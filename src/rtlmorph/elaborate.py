"""Elaboration: resolve names, fold parameters, infer widths, classify
process blocks, and order combinational logic for evaluation.

The elaborated form is what the simulator and the synthesizability linter
consume. The original parsed AST is kept untouched; mutation strategies
operate on that, not on the folded copy.
"""

import json
from dataclasses import dataclass, field, replace

from . import nodes as n
from . import evalexpr as ev
from .errors import (
    CombinationalLoop, MultipleDrivers, NoSuchModule, ResolutionError,
    RtlmorphError, UnsupportedConstruct, WidthMismatch,
)


class DuplicateDeclaration(RtlmorphError):
    pass


class IllegalAssignment(RtlmorphError):
    pass


@dataclass(frozen=True)
class SignalInfo:
    name: str
    kind: str  # input | output | inout | wire | reg
    width: int
    signed: bool = False


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    line: int
    col: int
    message: str

    def to_json(self) -> str:
        return json.dumps({
            "severity": self.severity, "code": self.code,
            "line": self.line, "col": self.col, "message": self.message,
        }, sort_keys=True)


def diagnostics_report(diags) -> str:
    """Line-oriented machine-readable report: one JSON object per line."""
    return "\n".join(d.to_json() for d in diags) + ("\n" if diags else "")


@dataclass
class BlockInfo:
    item_index: int
    kind: str  # "clocked" | "comb"
    clocks: tuple = ()
    async_resets: tuple = ()
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()


@dataclass
class CombUnit:
    """One unit of combinational evaluation: a continuous assign, a
    wire initializer, or a whole combinational always block."""
    kind: str  # "assign" | "init" | "block"
    item_index: int  # index into folded.items, or -1 for inits
    target_hint: str
    reads: frozenset
    writes: frozenset
    node: object  # ContinuousAssign | NetDecl | ProcBlock


@dataclass
class ElaboratedModule:
    decl: n.ModuleDecl
    folded: n.ModuleDecl
    params: dict
    signals: dict
    widths: dict = field(repr=False, default_factory=dict)
    blocks: list = field(default_factory=list)
    comb_order: list = field(default_factory=list)

    @property
    def inputs(self):
        return [s for s in self.signals.values() if s.kind == "input"]

    @property
    def outputs(self):
        return [s for s in self.signals.values() if s.kind == "output"]

    def width_of(self, name):
        info = self.signals.get(name)
        return info.width if info else None

    def clocks(self):
        out = []
        for b in self.blocks:
            for c in b.clocks:
                if c not in out:
                    out.append(c)
        return out

    def async_resets(self):
        out = []
        for b in self.blocks:
            for r in b.async_resets:
                if r not in out:
                    out.append(r)
        return out


@dataclass
class ElaboratedDesign:
    unit: n.SourceUnit
    modules: dict
    top: str

    @property
    def top_module(self) -> ElaboratedModule:
        return self.modules[self.top]


# --- parameter folding ------------------------------------------------------


def _fold_params(m: n.ModuleDecl):
    params = {}
    for p in m.params:
        if p.name in params:
            raise DuplicateDeclaration(f"parameter {p.name} declared twice")
        got = ev.try_const(p.value, params)
        if got is None:
            raise ResolutionError(p.name)
        value, width = got
        if value < 0:
            raise WidthMismatch(f"parameter {p.name} folds to a negative value")
        params[p.name] = (value, width)

    def fold(e):
        if isinstance(e, n.Ref) and e.name in params:
            value, width = params[e.name]
            return n.Literal(value, width, pos=e.pos)
        return e

    folded = replace(n.map_module(m, expr_fn=fold), params=())
    return folded, params


# --- per-module elaboration -------------------------------------------------


def _decl_width(msb, lsb, name):
    msb_v = ev.const_value(msb)
    lsb_v = ev.const_value(lsb)
    if lsb_v != 0:
        raise UnsupportedConstruct(f"non-zero range base on {name}")
    w = msb_v - lsb_v + 1
    if w < 1:
        raise WidthMismatch(f"declared width of {name} is < 1")
    if w > ev.MAX_WIDTH:
        raise WidthMismatch(f"{name} exceeds the {ev.MAX_WIDTH}-bit signal cap")
    return w


def _collect_signals(folded: n.ModuleDecl):
    signals = {}
    for p in folded.ports:
        if p.name in signals:
            raise DuplicateDeclaration(f"port {p.name} declared twice")
        # kind is the direction; reg/wire storage is tracked on the PortDecl
        signals[p.name] = SignalInfo(p.name, p.direction, _decl_width(p.msb, p.lsb, p.name), p.signed)
    for d in folded.nets:
        if d.name in signals:
            raise DuplicateDeclaration(f"{d.name} declared twice")
        signals[d.name] = SignalInfo(d.name, d.kind, _decl_width(d.msb, d.lsb, d.name), d.signed)
    return signals


def _storage_kind(m: n.ModuleDecl, signals, name):
    """wire or reg, regardless of port-ness."""
    p = m.port(name)
    if p is not None:
        return p.kind
    return signals[name].kind


def _reads_of_stmt(s, written):
    """Names read by a statement, ignoring reads of names already written
    earlier in straight-line order (blocking-assign data flow)."""
    reads = set()
    if isinstance(s, n.Block):
        for c in s.stmts:
            reads |= _reads_of_stmt(c, written)
        return reads
    if isinstance(s, n.If):
        reads |= n.refs_in(s.cond) - written
        w_then = set(written)
        reads |= _reads_of_stmt(s.then_stmt, w_then)
        w_else = set(written)
        if s.else_stmt is not None:
            reads |= _reads_of_stmt(s.else_stmt, w_else)
        written |= (w_then & w_else)
        return reads
    if isinstance(s, n.Case):
        reads |= n.refs_in(s.subject) - written
        branch_written = []
        for arm in s.arms:
            for l in arm.labels:
                reads |= n.refs_in(l) - written
            w = set(written)
            reads |= _reads_of_stmt(arm.body, w)
            branch_written.append(w)
        if s.default is not None:
            w = set(written)
            reads |= _reads_of_stmt(s.default, w)
            branch_written.append(w)
        else:
            branch_written.append(set(written))  # fall-through path writes nothing
        if branch_written:
            written |= set.intersection(*branch_written)
        return reads
    if isinstance(s, (n.NonblockingAssign, n.BlockingAssign)):
        reads |= n.refs_in(s.rhs) - written
        if isinstance(s.lhs, (n.Index, n.Slice)):
            for e in n.expr_children(s.lhs):
                reads |= n.refs_in(e) - written
            reads.discard(n.lvalue_base(s.lhs))
        if isinstance(s, n.BlockingAssign) and isinstance(s.lhs, n.Ref):
            written.add(s.lhs.name)
        return reads
    return reads


def _annotate_stmt(s, width_of, widths):
    if s is None:
        return
    if isinstance(s, n.Block):
        for c in s.stmts:
            _annotate_stmt(c, width_of, widths)
    elif isinstance(s, n.If):
        ev.annotate(s.cond, width_of, widths)
        _annotate_stmt(s.then_stmt, width_of, widths)
        _annotate_stmt(s.else_stmt, width_of, widths)
    elif isinstance(s, n.Case):
        sw = ev.annotate(s.subject, width_of, widths)
        for arm in s.arms:
            for l in arm.labels:
                if ev.try_const(l) is None:
                    raise WidthMismatch("case label is not a constant expression")
                lw = ev.self_width(l, width_of)
                both = max(sw, lw)
                ev.annotate(l, width_of, widths, both)
            _annotate_stmt(arm.body, width_of, widths)
        _annotate_stmt(s.default, width_of, widths)
    elif isinstance(s, (n.NonblockingAssign, n.BlockingAssign)):
        lw = ev.annotate(s.lhs, width_of, widths)
        rw = ev.self_width(s.rhs, width_of)
        if rw > lw:
            raise WidthMismatch(
                f"assignment to {n.lvalue_base(s.lhs)} would truncate "
                f"a {rw}-bit value to {lw} bits")
        ev.annotate(s.rhs, width_of, widths, lw)


def _elaborate_module(m: n.ModuleDecl, unit: n.SourceUnit):
    folded, params = _fold_params(m)
    signals = _collect_signals(folded)
    width_of = lambda name: signals[name].width if name in signals else None

    # resolve every identifier up front for a clean error
    for e in n.module_exprs(folded):
        for node in n.walk_expr(e):
            if isinstance(node, n.Ref) and node.name not in signals:
                raise ResolutionError(node.name, *(node.pos or (None, None)))

    em = ElaboratedModule(decl=m, folded=folded, params=params, signals=signals)
    widths = em.widths
    for decl in list(folded.ports) + list(folded.nets):
        ev.annotate(decl.msb, width_of, widths)
        ev.annotate(decl.lsb, width_of, widths)

    drivers = {}  # name -> list of driver descriptions

    def add_driver(name, what):
        drivers.setdefault(name, []).append(what)
        if len(drivers[name]) > 1:
            raise MultipleDrivers(name)

    comb_units = []
    for d in folded.nets:
        if d.init is not None:
            lw = signals[d.name].width
            rw = ev.self_width(d.init, width_of)
            if rw > lw:
                raise WidthMismatch(f"initializer of {d.name} would truncate {rw} bits to {lw}")
            ev.annotate(d.init, width_of, widths, lw)
            add_driver(d.name, "init")
            comb_units.append(CombUnit("init", -1, d.name,
                                       frozenset(n.refs_in(d.init)),
                                       frozenset([d.name]), d))

    for idx, item in enumerate(folded.items):
        if isinstance(item, n.ContinuousAssign):
            base = n.lvalue_base(item.lhs)
            if _storage_kind(folded, signals, base) == "reg":
                raise IllegalAssignment(f"continuous assign drives reg {base}")
            if signals[base].kind == "input":
                raise IllegalAssignment(f"continuous assign drives input port {base}")
            lw = ev.annotate(item.lhs, width_of, widths)
            rw = ev.self_width(item.rhs, width_of)
            if rw > lw:
                raise WidthMismatch(f"assign to {base} would truncate {rw} bits to {lw}")
            ev.annotate(item.rhs, width_of, widths, lw)
            add_driver(base, f"assign#{idx}")
            reads = n.refs_in(item.rhs)
            if isinstance(item.lhs, (n.Index, n.Slice)):
                for e in n.expr_children(item.lhs):
                    reads |= n.refs_in(e)
                reads.discard(base)
            comb_units.append(CombUnit("assign", idx, base, frozenset(reads),
                                       frozenset([base]), item))
        elif isinstance(item, n.ProcBlock):
            _annotate_stmt(item.body, width_of, widths)
            writes = n.assigned_names(item.body)
            reads = _reads_of_stmt(item.body, set())
            for w in writes:
                if signals[w].kind == "input":
                    raise IllegalAssignment(f"process assigns input port {w}")
            if isinstance(item.sensitivity, n.EdgeSensitivity):
                for _, sig in item.sensitivity.edges:
                    if sig not in signals:
                        raise ResolutionError(sig)
                    if signals[sig].kind != "input":
                        raise UnsupportedConstruct(
                            f"edge sensitivity on non-input signal {sig}")
                for w in writes:
                    if _storage_kind(folded, signals, w) != "reg":
                        raise IllegalAssignment(f"edge-sensitive block assigns non-reg {w}")
                    add_driver(w, f"block#{idx}")
                clocks, resets = _classify_edges(item)
                em.blocks.append(BlockInfo(idx, "clocked", tuple(clocks), tuple(resets),
                                           frozenset(reads), frozenset(writes)))
            else:
                for w in writes:
                    if _storage_kind(folded, signals, w) != "reg":
                        raise IllegalAssignment(f"combinational block assigns non-reg {w}")
                    add_driver(w, f"block#{idx}")
                em.blocks.append(BlockInfo(idx, "comb", (), (),
                                           frozenset(reads), frozenset(writes)))
                comb_units.append(CombUnit("block", idx, ",".join(sorted(writes)),
                                           frozenset(reads), frozenset(writes), item))
        elif isinstance(item, n.InstanceDecl):
            _check_instance(item, unit, signals, width_of, widths)
        else:
            raise TypeError(f"unexpected item {item!r}")

    em.comb_order = _order_comb_units(comb_units)
    return em


def _classify_edges(block: n.ProcBlock):
    """Split edge-list signals into (clocks, async resets).

    An edge signal that the body immediately tests in a top-level if
    condition is an asynchronous reset; the rest are clocks.
    """
    body = block.body
    while isinstance(body, n.Block) and len(body.stmts) == 1:
        body = body.stmts[0]
    cond_refs = n.refs_in(body.cond) if isinstance(body, n.If) else set()
    clocks, resets = [], []
    for edge, sig in block.sensitivity.edges:
        if sig in cond_refs:
            resets.append(sig)
        else:
            clocks.append(sig)
    return clocks, resets


def _check_instance(item, unit, signals, width_of, widths):
    target = unit.module(item.module_name) if unit else None
    for pname, e in item.connections:
        ev.annotate(e, width_of, widths)
    if target is None:
        return  # cross-file instance: structural only
    port_names = [p.name for p in target.ports]
    if any(pn is not None for pn, _ in item.connections):
        for pn, _ in item.connections:
            if pn not in port_names:
                raise ResolutionError(f"{item.module_name}.{pn}")
    elif len(item.connections) != len(port_names):
        raise WidthMismatch(
            f"instance {item.instance_name} has {len(item.connections)} "
            f"connections for {len(port_names)} ports")


def _order_comb_units(units):
    """Topological order of combinational units; cycle -> CombinationalLoop."""
    n_units = len(units)
    writers = {}
    for i, u in enumerate(units):
        for w in u.writes:
            writers.setdefault(w, []).append(i)
    succs = [[] for _ in range(n_units)]
    in_deg = [0] * n_units
    for i, u in enumerate(units):
        for r in u.reads:
            for j in writers.get(r, ()):
                if j != i:
                    succs[j].append(i)
                    in_deg[i] += 1
                else:
                    raise CombinationalLoop([r])
    ready = sorted(i for i in range(n_units) if in_deg[i] == 0)
    order = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for j in sorted(succs[i]):
            in_deg[j] -= 1
            if in_deg[j] == 0:
                ready.append(j)
        ready.sort()
    if len(order) != n_units:
        stuck = [units[i].target_hint for i in range(n_units) if in_deg[i] > 0]
        raise CombinationalLoop(sorted(stuck))
    return [units[i] for i in order]


def elaborate(unit, top=None) -> ElaboratedDesign:
    """Elaborate a SourceUnit (or single module) into simulatable form."""
    if isinstance(unit, n.ModuleDecl):
        unit = n.SourceUnit((unit,), source_name="<module>")
    modules = {}
    for m in unit.modules:
        modules[m.name] = _elaborate_module(m, unit)
    if top is None:
        top = unit.top
    if top is None:
        if len(unit.modules) != 1:
            raise NoSuchModule("multiple modules; specify a top")
        top = unit.modules[0].name
    if top not in modules:
        raise NoSuchModule(top)
    return ElaboratedDesign(unit=unit, modules=modules, top=top)


# --- synthesizability lint ---------------------------------------------------


def _covers(s, target, subject_width_of):
    if s is None:
        return False
    if isinstance(s, n.Block):
        return any(_covers(c, target, subject_width_of) for c in s.stmts)
    if isinstance(s, n.If):
        return (s.else_stmt is not None
                and _covers(s.then_stmt, target, subject_width_of)
                and _covers(s.else_stmt, target, subject_width_of))
    if isinstance(s, n.Case):
        arms_ok = all(_covers(a.body, target, subject_width_of) for a in s.arms)
        if not arms_ok:
            return False
        if s.default is not None:
            return _covers(s.default, target, subject_width_of)
        labels = set()
        for a in s.arms:
            for l in a.labels:
                got = ev.try_const(l)
                if got is None:
                    return False
                labels.add(got[0])
        w = subject_width_of(s.subject)
        return w is not None and len(labels) == (1 << w)
    if isinstance(s, (n.BlockingAssign, n.NonblockingAssign)):
        return isinstance(s.lhs, n.Ref) and s.lhs.name == target
    return False


def lint_module(em: ElaboratedModule):
    diags = []
    folded = em.folded

    def loc(node):
        return node.pos or (0, 0)

    for b in em.blocks:
        item = folded.items[b.item_index]
        line, col = loc(item)
        if b.kind == "clocked":
            for s in n.walk_stmts(item.body):
                if isinstance(s, n.BlockingAssign):
                    sl, sc = loc(s)
                    diags.append(Diagnostic("error", "blocking-in-clocked", sl, sc,
                                            f"blocking assignment to {n.lvalue_base(s.lhs)} "
                                            "in an edge-sensitive block"))
            if len(b.clocks) != 1:
                diags.append(Diagnostic("error", "multi-clock-block", line, col,
                                        f"edge-sensitive block has {len(b.clocks)} clock(s)"))
        else:
            for s in n.walk_stmts(item.body):
                if isinstance(s, n.NonblockingAssign):
                    sl, sc = loc(s)
                    diags.append(Diagnostic("error", "nonblocking-in-comb", sl, sc,
                                            f"nonblocking assignment to {n.lvalue_base(s.lhs)} "
                                            "in a combinational block"))
            sens = item.sensitivity
            if isinstance(sens, n.CombSensitivity) and sens.signals is not None:
                missing = sorted(b.reads - set(sens.signals))
                if missing:
                    diags.append(Diagnostic("error", "incomplete-sensitivity", line, col,
                                            f"sensitivity list misses: {', '.join(missing)}"))

            def subject_width_of(e):
                return em.widths.get(id(e))

            for target in sorted(b.writes):
                if not _covers(item.body, target, subject_width_of):
                    diags.append(Diagnostic("error", "inferred-latch", line, col,
                                            f"{target} is not assigned on every path"))

    clocks = set(em.clocks())
    if clocks:
        datalike = set()
        for idx, item in enumerate(folded.items):
            if isinstance(item, n.ContinuousAssign):
                datalike |= n.refs_in(item.rhs)
            elif isinstance(item, n.ProcBlock):
                for s in n.walk_stmts(item.body):
                    for e in n.stmt_exprs(s):
                        datalike |= n.refs_in(e)
        for c in sorted(clocks & datalike):
            diags.append(Diagnostic("warning", "clock-used-as-data", 0, 0,
                                    f"clock {c} feeds data logic"))

    driven = set()
    for d in folded.nets:
        if d.init is not None:
            driven.add(d.name)
    for item in folded.items:
        if isinstance(item, n.ContinuousAssign):
            driven.add(n.lvalue_base(item.lhs))
        elif isinstance(item, n.ProcBlock):
            driven |= n.assigned_names(item.body)
    read = set()
    for e in n.module_exprs(folded):
        read |= n.refs_in(e)
    for s in sorted(read):
        info = em.signals[s]
        if info.kind in ("wire", "reg") and s not in driven:
            diags.append(Diagnostic("warning", "undriven-net", 0, 0,
                                    f"{s} is read but never driven"))
    return diags


def lint_synthesizable(design: ElaboratedDesign):
    diags = []
    for name in design.modules:
        diags.extend(lint_module(design.modules[name]))
    return diags
