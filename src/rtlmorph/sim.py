"""Cycle-accurate two-valued interpreter for elaborated designs.

Registers start at zero, clocks are ordinary inputs toggled by the
stimulus, and nonblocking assignment semantics are honored by collecting
register updates against pre-update values before applying them. Modules
compile once into closures; instances share the compiled form but never
share mutable state. Branch counters bind at compile time, so an instance
built with them compiles its own form.

Step order inside eval(): find every block whose sensitivity sees a
matching transition (an edge is a change of a clock input from its value
at the previous step), apply the new input values, settle combinational
logic, fire the found blocks (reading pre-update register values), apply
the collected updates, settle again, sample outputs.
"""

from dataclasses import dataclass

from . import nodes as n
from . import ops
from .elaborate import ElaboratedDesign, ElaboratedModule, elaborate
from .errors import NoSuchModule, RtlmorphError, SettleDivergence, UnsupportedConstruct
from .evalexpr import const_value

SETTLE_CAP = 10_000


@dataclass(frozen=True)
class Stimulus:
    """Per-step input assignments. Every step must assign every primary
    input, clocks included: there is no implicit clock generator."""
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(dict(s) for s in self.steps))

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class Trace:
    steps: tuple  # one {output: value} per step

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(dict(s) for s in self.steps))

    def __len__(self):
        return len(self.steps)


class BranchCounters:
    """Optional instrumentation: per-labeled-if (then, else) hit counts."""

    def __init__(self):
        self.counts = {}

    def bump(self, label, taken):
        then_c, else_c = self.counts.get(label, (0, 0))
        self.counts[label] = (then_c + 1, else_c) if taken else (then_c, else_c + 1)


# --- compilation -----------------------------------------------------------


def _compile_expr(e, widths):
    w = widths[id(e)]
    mask = (1 << w) - 1
    if isinstance(e, n.Literal):
        v = e.value & mask
        return lambda s: v
    if isinstance(e, n.Ref):
        name = e.name
        return lambda s: s[name]
    if isinstance(e, n.Unary):
        om = (1 << widths[id(e.operand)]) - 1
        return ops.UNARY[e.op].closure(_compile_expr(e.operand, widths), mask, om)
    if isinstance(e, n.Binary):
        return ops.BINARY[e.op].closure(
            _compile_expr(e.lhs, widths), _compile_expr(e.rhs, widths), mask, w)
    if isinstance(e, n.Ternary):
        cf = _compile_expr(e.cond, widths)
        tf = _compile_expr(e.then_expr, widths)
        ef = _compile_expr(e.else_expr, widths)
        return lambda s: tf(s) if cf(s) else ef(s)
    if isinstance(e, n.Index):
        sf = _compile_expr(e.subject, widths)
        xf = _compile_expr(e.index, widths)
        sub_w = widths[id(e.subject)]
        return lambda s: ((sf(s) >> i) & 1) if (i := xf(s)) < sub_w else 0
    if isinstance(e, n.Slice):
        sf = _compile_expr(e.subject, widths)
        lo = const_value(e.lsb)
        return lambda s: (sf(s) >> lo) & mask
    if isinstance(e, n.Concat):
        parts = [(_compile_expr(p, widths), widths[id(p)]) for p in e.parts]
        def concat(s):
            acc = 0
            for pf, pw in parts:
                acc = (acc << pw) | pf(s)
            return acc
        return concat
    raise TypeError(f"cannot compile {e!r}")


def _compile_lhs_write(lhs, widths, signal_width):
    """Returns fn(out, state, value): write value through the lvalue into
    the `out` dict, merging part-selects over the freshest base value."""
    if isinstance(lhs, n.Ref):
        name = lhs.name
        return lambda out, s, v: out.__setitem__(name, v)
    base = n.lvalue_base(lhs)
    full_mask = (1 << signal_width(base)) - 1
    if isinstance(lhs, n.Index):
        if n.refs_in(lhs.index):
            idx_f = _compile_expr(lhs.index, widths)
        else:
            const_i = const_value(lhs.index)
            idx_f = lambda s: const_i
        def write_bit(out, s, v):
            i = idx_f(s)
            cur = out.get(base, s[base])
            out[base] = (cur & ~(1 << i) | ((v & 1) << i)) & full_mask
        return write_bit
    if isinstance(lhs, n.Slice):
        lo = const_value(lhs.lsb)
        hi = const_value(lhs.msb)
        sel_mask = ((1 << (hi - lo + 1)) - 1) << lo
        def write_slice(out, s, v):
            cur = out.get(base, s[base])
            out[base] = (cur & ~sel_mask) | ((v << lo) & sel_mask)
        return write_slice
    raise TypeError(f"not an lvalue: {lhs!r}")


def _compile_stmt(stmt, widths, signal_width, hooks):
    """Compile a statement to fn(state, nxt).

    Blocking assigns write `state` directly; nonblocking assigns write the
    pending-update dict `nxt`. With `hooks`, every labelled if counts the
    outcomes of its condition.
    """
    sub = lambda s: _compile_stmt(s, widths, signal_width, hooks)
    if isinstance(stmt, n.Block):
        fns = [sub(s) for s in stmt.stmts]
        def block(s, nxt):
            for f in fns:
                f(s, nxt)
        return block
    if isinstance(stmt, n.If):
        cf = _compile_expr(stmt.cond, widths)
        if hooks is not None and stmt.label is not None:
            cond, label, bump = cf, stmt.label, hooks.bump
            def cf(s):
                taken = bool(cond(s))
                bump(label, taken)
                return taken
        tf = sub(stmt.then_stmt)
        ef = sub(stmt.else_stmt) if stmt.else_stmt else None
        def if_stmt(s, nxt):
            if cf(s):
                tf(s, nxt)
            elif ef is not None:
                ef(s, nxt)
        return if_stmt
    if isinstance(stmt, n.Case):
        sf = _compile_expr(stmt.subject, widths)
        arms = [(frozenset(const_value(l) for l in arm.labels), sub(arm.body))
                for arm in stmt.arms]
        df = sub(stmt.default) if stmt.default else None
        def case_stmt(s, nxt):
            v = sf(s)
            for values, f in arms:
                if v in values:
                    f(s, nxt)
                    return
            if df is not None:
                df(s, nxt)
        return case_stmt
    if isinstance(stmt, n.NonblockingAssign):
        rf = _compile_expr(stmt.rhs, widths)
        wf = _compile_lhs_write(stmt.lhs, widths, signal_width)
        return lambda s, nxt: wf(nxt, s, rf(s))
    if isinstance(stmt, n.BlockingAssign):
        rf = _compile_expr(stmt.rhs, widths)
        wf = _compile_lhs_write(stmt.lhs, widths, signal_width)
        return lambda s, nxt: wf(s, s, rf(s))
    raise TypeError(f"cannot compile statement {stmt!r}")


class CompiledModule:
    """Closures for one module: `comb_fns` are fn(state) in settle order,
    `clocked` pairs each edge list with its body's fn(state, nxt), and
    `inputs` pairs each input name with its width mask."""

    def __init__(self, em: ElaboratedModule, hooks=None):
        folded = em.folded
        for item in folded.items:
            if isinstance(item, n.InstanceDecl):
                raise UnsupportedConstruct(
                    "module instances are not simulatable in-process")
        widths = em.widths
        signal_width = lambda name: em.signals[name].width
        stmt = lambda body: _compile_stmt(body, widths, signal_width, hooks)

        self.inputs = [(s.name, (1 << s.width) - 1) for s in em.inputs]
        self.output_names = [s.name for s in em.outputs]
        self.signal_names = list(em.signals)

        self.comb_fns = []
        for u in em.comb_order:
            if u.kind == "block":
                bf = stmt(u.node.body)
                self.comb_fns.append(lambda s, bf=bf: bf(s, None))
                continue
            if u.kind == "init":
                lhs, rhs = n.Ref(u.node.name), u.node.init
            else:
                lhs, rhs = u.node.lhs, u.node.rhs
            rf = _compile_expr(rhs, widths)
            wf = _compile_lhs_write(lhs, widths, signal_width)
            self.comb_fns.append(lambda s, rf=rf, wf=wf: wf(s, s, rf(s)))

        self.clocked = []
        for b in em.blocks:
            if b.kind != "clocked":
                continue
            item = folded.items[b.item_index]
            self.clocked.append((tuple(item.sensitivity.edges), stmt(item.body)))


def _compiled(em: ElaboratedModule) -> CompiledModule:
    """The hook-free compiled form, cached on the module."""
    cm = getattr(em, "_compiled", None)
    if cm is None:
        cm = CompiledModule(em)
        em._compiled = cm
    return cm


# --- instances ---------------------------------------------------------------


class SimInstance:
    """Mutable state over a compiled module. An input's state entry is
    written only by eval(), so it holds the value of the previous step
    (0 before the first), and edges are detected against it."""

    def __init__(self, design: ElaboratedDesign, top=None, hooks=None):
        name = top or design.top
        if name not in design.modules:
            raise NoSuchModule(name)
        em = design.modules[name]
        self.cm = _compiled(em) if hooks is None else CompiledModule(em, hooks)
        self.state = {s: 0 for s in self.cm.signal_names}
        self._settle()

    def _settle(self):
        state = self.state
        fns = self.cm.comb_fns
        if not fns:
            return
        for _ in range(SETTLE_CAP):
            snapshot = dict(state)
            for f in fns:
                f(state)
            if state == snapshot:
                return
        raise SettleDivergence(f"no fixpoint after {SETTLE_CAP} iterations")

    def eval(self, inputs) -> dict:
        state = self.state
        try:
            masked = {name: inputs[name] & mask for name, mask in self.cm.inputs}
        except KeyError:
            missing = [name for name, _ in self.cm.inputs if name not in inputs]
            raise RtlmorphError(
                f"stimulus misses inputs: {', '.join(missing)}") from None

        triggered = []
        for edges, fn in self.cm.clocked:
            for edge, sig in edges:
                old, new = state[sig], inputs[sig]
                if (edge == "pos" and old == 0 and new != 0) or \
                   (edge == "neg" and old != 0 and new == 0):
                    triggered.append(fn)
                    break

        state.update(masked)
        self._settle()

        if triggered:
            nxt = {}
            for fn in triggered:
                fn(state, nxt)
            state.update(nxt)
            self._settle()

        return {o: state[o] for o in self.cm.output_names}

    def run(self, stim: Stimulus) -> Trace:
        return Trace(tuple(self.eval(step) for step in stim.steps))


def instantiate(design, top=None, hooks=None) -> SimInstance:
    """Build a zero-initialized instance; combinational nets are settled
    from all-zero inputs."""
    if isinstance(design, (n.SourceUnit, n.ModuleDecl)):
        design = elaborate(design)
    return SimInstance(design, top=top, hooks=hooks)


def run(inst: SimInstance, stim: Stimulus) -> Trace:
    return inst.run(stim)
