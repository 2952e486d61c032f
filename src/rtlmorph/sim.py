"""Cycle-accurate two-valued interpreter for elaborated designs.

Registers start at zero, clocks are ordinary inputs toggled by the
stimulus, and nonblocking assignment semantics are honored by collecting
register updates against pre-update values before applying them. Modules
compile once into closures; instances share the compiled form but never
share mutable state.

Step order inside eval(): apply new input values, settle combinational
logic, fire every block whose sensitivity saw a matching transition
(reading pre-update register values), apply the collected updates, settle
again, sample outputs.
"""

from dataclasses import dataclass

from . import nodes as n
from .elaborate import ElaboratedDesign, ElaboratedModule, elaborate
from .errors import NoSuchModule, RtlmorphError, SettleDivergence, UnsupportedConstruct

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


def _compile_expr(e, widths, C):
    w = widths[id(e)]
    mask = (1 << w) - 1
    if isinstance(e, n.Literal):
        v = e.value & mask
        return lambda s: v
    if isinstance(e, n.Ref):
        name = e.name
        return lambda s: s[name]
    if isinstance(e, n.Unary):
        f = _compile_expr(e.operand, widths, C)
        if e.op == "~":
            return lambda s: (~f(s)) & mask
        if e.op == "-":
            return lambda s: (-f(s)) & mask
        if e.op == "!":
            return lambda s: 0 if f(s) else 1
        ow = widths[id(e.operand)]
        omask = (1 << ow) - 1
        if e.op == "&":
            return lambda s: 1 if f(s) == omask else 0
        if e.op == "|":
            return lambda s: 1 if f(s) else 0
        if e.op == "^":
            return lambda s: bin(f(s)).count("1") & 1
    if isinstance(e, n.Binary):
        lf = _compile_expr(e.lhs, widths, C)
        rf = _compile_expr(e.rhs, widths, C)
        op = e.op
        if op == "&":
            return lambda s: lf(s) & rf(s)
        if op == "|":
            return lambda s: lf(s) | rf(s)
        if op == "^":
            return lambda s: lf(s) ^ rf(s)
        if op == "+":
            return lambda s: (lf(s) + rf(s)) & mask
        if op == "-":
            return lambda s: (lf(s) - rf(s)) & mask
        if op == "*":
            return lambda s: (lf(s) * rf(s)) & mask
        if op == "==":
            return lambda s: 1 if lf(s) == rf(s) else 0
        if op == "!=":
            return lambda s: 1 if lf(s) != rf(s) else 0
        if op == "<":
            return lambda s: 1 if lf(s) < rf(s) else 0
        if op == "<=":
            return lambda s: 1 if lf(s) <= rf(s) else 0
        if op == ">":
            return lambda s: 1 if lf(s) > rf(s) else 0
        if op == ">=":
            return lambda s: 1 if lf(s) >= rf(s) else 0
        if op == "&&":
            return lambda s: 1 if (lf(s) and rf(s)) else 0
        if op == "||":
            return lambda s: 1 if (lf(s) or rf(s)) else 0
        if op == "<<":
            return lambda s: ((lf(s) << sh) & mask) if (sh := rf(s)) < w else 0
        if op == ">>":
            return lambda s: (lf(s) >> sh) if (sh := rf(s)) < w else 0
    if isinstance(e, n.Ternary):
        cf = _compile_expr(e.cond, widths, C)
        tf = _compile_expr(e.then_expr, widths, C)
        ef = _compile_expr(e.else_expr, widths, C)
        return lambda s: tf(s) if cf(s) else ef(s)
    if isinstance(e, n.Index):
        sf = _compile_expr(e.subject, widths, C)
        xf = _compile_expr(e.index, widths, C)
        sub_w = widths[id(e.subject)]
        return lambda s: ((sf(s) >> i) & 1) if (i := xf(s)) < sub_w else 0
    if isinstance(e, n.Slice):
        sf = _compile_expr(e.subject, widths, C)
        lo = C(e.lsb)
        return lambda s: (sf(s) >> lo) & mask
    if isinstance(e, n.Concat):
        parts = [(_compile_expr(p, widths, C), widths[id(p)]) for p in e.parts]
        def concat(s):
            acc = 0
            for pf, pw in parts:
                acc = (acc << pw) | pf(s)
            return acc
        return concat
    raise TypeError(f"cannot compile {e!r}")


def _compile_lhs_write(lhs, widths, C, signal_width):
    """Returns fn(out, state, value): write value through the lvalue into
    the `out` dict, merging part-selects over the freshest base value."""
    if isinstance(lhs, n.Ref):
        name = lhs.name
        return lambda out, s, v: out.__setitem__(name, v)
    base = n.lvalue_base(lhs)
    full_mask = (1 << signal_width(base)) - 1
    if isinstance(lhs, n.Index):
        if n.refs_in(lhs.index):
            idx_f = _compile_expr(lhs.index, widths, C)
        else:
            const_i = C(lhs.index)
            idx_f = lambda s: const_i
        def write_bit(out, s, v):
            i = idx_f(s)
            cur = out.get(base, s[base])
            out[base] = (cur & ~(1 << i) | ((v & 1) << i)) & full_mask
        return write_bit
    if isinstance(lhs, n.Slice):
        lo = C(lhs.lsb)
        hi = C(lhs.msb)
        sel_mask = ((1 << (hi - lo + 1)) - 1) << lo
        def write_slice(out, s, v):
            cur = out.get(base, s[base])
            out[base] = (cur & ~sel_mask) | ((v << lo) & sel_mask)
        return write_slice
    raise TypeError(f"not an lvalue: {lhs!r}")


def _compile_stmt(stmt, widths, C, signal_width):
    """Compile a statement to fn(state, nxt, hooks).

    Blocking assigns write `state` directly; nonblocking assigns write the
    pending-update dict `nxt`.
    """
    if isinstance(stmt, n.Block):
        fns = [_compile_stmt(s, widths, C, signal_width) for s in stmt.stmts]
        def block(s, nxt, hooks):
            for f in fns:
                f(s, nxt, hooks)
        return block
    if isinstance(stmt, n.If):
        cf = _compile_expr(stmt.cond, widths, C)
        tf = _compile_stmt(stmt.then_stmt, widths, C, signal_width)
        ef = _compile_stmt(stmt.else_stmt, widths, C, signal_width) if stmt.else_stmt else None
        label = stmt.label
        def if_stmt(s, nxt, hooks):
            taken = bool(cf(s))
            if hooks is not None and label is not None:
                hooks.bump(label, taken)
            if taken:
                tf(s, nxt, hooks)
            elif ef is not None:
                ef(s, nxt, hooks)
        return if_stmt
    if isinstance(stmt, n.Case):
        sf = _compile_expr(stmt.subject, widths, C)
        arms = []
        for arm in stmt.arms:
            values = frozenset(C(l) for l in arm.labels)
            arms.append((values, _compile_stmt(arm.body, widths, C, signal_width)))
        df = _compile_stmt(stmt.default, widths, C, signal_width) if stmt.default else None
        def case_stmt(s, nxt, hooks):
            v = sf(s)
            for values, f in arms:
                if v in values:
                    f(s, nxt, hooks)
                    return
            if df is not None:
                df(s, nxt, hooks)
        return case_stmt
    if isinstance(stmt, n.NonblockingAssign):
        rf = _compile_expr(stmt.rhs, widths, C)
        wf = _compile_lhs_write(stmt.lhs, widths, C, signal_width)
        return lambda s, nxt, hooks: wf(nxt, s, rf(s))
    if isinstance(stmt, n.BlockingAssign):
        rf = _compile_expr(stmt.rhs, widths, C)
        wf = _compile_lhs_write(stmt.lhs, widths, C, signal_width)
        return lambda s, nxt, hooks: wf(s, s, rf(s))
    raise TypeError(f"cannot compile statement {stmt!r}")


class CompiledModule:
    def __init__(self, em: ElaboratedModule):
        self.em = em
        folded = em.folded
        for item in folded.items:
            if isinstance(item, n.InstanceDecl):
                raise UnsupportedConstruct(
                    "module instances are not simulatable in-process")
        widths = em.widths
        from .evalexpr import const_value as C
        signal_width = lambda name: em.signals[name].width

        self.input_names = [s.name for s in em.inputs]
        self.output_names = [s.name for s in em.outputs]
        self.signal_names = list(em.signals)

        self.comb_fns = []
        for u in em.comb_order:
            if u.kind == "init":
                rf = _compile_expr(u.node.init, widths, C)
                name = u.node.name
                self.comb_fns.append(
                    lambda s, hooks, rf=rf, name=name: s.__setitem__(name, rf(s)))
            elif u.kind == "assign":
                rf = _compile_expr(u.node.rhs, widths, C)
                wf = _compile_lhs_write(u.node.lhs, widths, C, signal_width)
                self.comb_fns.append(
                    lambda s, hooks, rf=rf, wf=wf: wf(s, s, rf(s)))
            else:
                bf = _compile_stmt(u.node.body, widths, C, signal_width)
                self.comb_fns.append(
                    lambda s, hooks, bf=bf: bf(s, None, hooks))

        self.clocked = []
        for b in em.blocks:
            if b.kind != "clocked":
                continue
            item = folded.items[b.item_index]
            fn = _compile_stmt(item.body, widths, C, signal_width)
            self.clocked.append((tuple(item.sensitivity.edges), fn))


def _compiled(em: ElaboratedModule) -> CompiledModule:
    cm = getattr(em, "_compiled", None)
    if cm is None:
        cm = CompiledModule(em)
        em._compiled = cm
    return cm


# --- instances ---------------------------------------------------------------


class SimInstance:
    def __init__(self, design: ElaboratedDesign, top=None, hooks=None):
        name = top or design.top
        if name not in design.modules:
            raise NoSuchModule(name)
        self.em = design.modules[name]
        self.cm = _compiled(self.em)
        self.hooks = hooks
        self.time = 0
        self.state = {s: 0 for s in self.cm.signal_names}
        self.prev_inputs = {s: 0 for s in self.cm.input_names}
        self._settle()

    def reset(self):
        self.time = 0
        for s in self.state:
            self.state[s] = 0
        for s in self.prev_inputs:
            self.prev_inputs[s] = 0
        self._settle()

    def _settle(self):
        state = self.state
        fns = self.cm.comb_fns
        if not fns:
            return
        hooks = self.hooks
        for _ in range(SETTLE_CAP):
            snapshot = dict(state)
            for f in fns:
                f(state, hooks)
            if state == snapshot:
                return
        raise SettleDivergence(f"no fixpoint after {SETTLE_CAP} iterations")

    def eval(self, inputs) -> dict:
        state = self.state
        prev = self.prev_inputs
        missing = [k for k in self.cm.input_names if k not in inputs]
        if missing:
            raise RtlmorphError(f"stimulus misses inputs: {', '.join(missing)}")

        triggered = []
        for edges, fn in self.cm.clocked:
            for edge, sig in edges:
                old = prev.get(sig, state.get(sig, 0))
                new = inputs.get(sig, state.get(sig, 0))
                if (edge == "pos" and old == 0 and new != 0) or \
                   (edge == "neg" and old != 0 and new == 0):
                    triggered.append(fn)
                    break

        for name in self.cm.input_names:
            w = self.em.signals[name].width
            state[name] = inputs[name] & ((1 << w) - 1)
        self._settle()

        if triggered:
            nxt = {}
            for fn in triggered:
                fn(state, nxt, self.hooks)
            state.update(nxt)
            self._settle()

        for name in self.cm.input_names:
            prev[name] = state[name]
        self.time += 1
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
