"""Generated trial loops: one compiled Python function per oracle check.

For a pair of elaborated designs, `trial_loop` emits the source of one
function that runs a whole randomized trial of both designs, with every
signal of both held in a local variable, and `compile()`s it. This is
levelized compiled-code simulation (Wang et al., "SSIM: A Software
Levelized Compiled-Code Simulator", DAC 1987): elaboration's `comb_order`
is topological, so one pass over the combinational units settles a design.

Each step follows `sim.SimInstance.eval`, the reference the function is
tested against: find the clocked blocks whose edge lists see a
transition, apply the new inputs, settle, run the fired bodies into
nonblocking temporaries, commit them, settle again. Edges on clocks are
resolved when the source is built, because the clock pattern is fixed (it
falls in the first step of a cycle, except in cycle 0, and rises in the
second). The settle before the rising edge is left out when no
combinational unit reads a clock, since nothing it reads has changed.

A design with a part-select write whose unit also reads the written
signal keeps the interpreter's fixpoint settle: elaboration drops that
read from the ordering, so one pass may fall short. Operator values come
from `ops`. Nothing is cached; a function lives as long as its check.
"""

from contextlib import contextmanager
from itertools import count

from . import nodes as n
from . import ops
from .errors import SettleDivergence
from .evalexpr import const_value
from .sim import SETTLE_CAP


class _Source:
    """Lines of Python source, indentation and fresh local names."""

    def __init__(self):
        self.lines = []
        self.depth = 0
        self._ids = count()

    def __call__(self, text):
        self.lines.append("    " * self.depth + text)

    def fresh(self, stem):
        return f"{stem}{next(self._ids)}"

    @contextmanager
    def block(self, header):
        self(header)
        self.depth += 1
        start = len(self.lines)
        yield
        if len(self.lines) == start:
            self("pass")
        self.depth -= 1

    def compile(self, name, env):
        """The function `name` defined by the lines, or None when Python
        cannot compile them (nesting beyond the parser's limits)."""
        try:
            code = compile("\n".join(self.lines) + "\n", f"<{name}>", "exec")
        except (SyntaxError, RecursionError):
            return None
        ns = dict(env)
        exec(code, ns)
        return ns[name]


def _clocked_items(em):
    return [em.folded.items[b.item_index] for b in em.blocks if b.kind == "clocked"]


def _writes(s, kind):
    return {n.lvalue_base(a.lhs) for a in n.walk_stmts(s) if isinstance(a, kind)}


def _part_select_loop(unit):
    """True when a unit writes part of a signal that it also reads."""
    if unit.kind == "init":
        return False
    if unit.kind == "assign":
        assigns = [unit.node]
        exprs = [unit.node.rhs]
    else:
        stmts = list(n.walk_stmts(unit.node.body))
        assigns = [s for s in stmts if isinstance(s, (n.BlockingAssign,
                                                      n.NonblockingAssign))]
        exprs = [e for s in stmts if not isinstance(s, (n.BlockingAssign,
                                                         n.NonblockingAssign))
                 for e in n.stmt_exprs(s)] + [a.rhs for a in assigns]
    bases = set()
    for a in assigns:
        if isinstance(a.lhs, (n.Index, n.Slice)):
            bases.add(n.lvalue_base(a.lhs))
            exprs.extend(n.expr_children(a.lhs)[1:])
    return any(bases & n.refs_in(e) for e in exprs)


class _Design:
    """Source for one design of the pair. Its signals are the locals
    `<prefix>_<index>`; inputs use the shared locals the caller names."""

    def __init__(self, em, prefix, input_locals, src):
        self.em = em
        self.src = src
        self.local = {name: input_locals.get(name, f"{prefix}_{i}")
                      for i, name in enumerate(em.signals)}
        self.fixpoint = any(_part_select_loop(u) for u in em.comb_order)
        self.clocked = _clocked_items(em)

    def simulatable(self):
        """A nonblocking assign in a combinational block fails in the
        interpreter when it runs; such designs stay there."""
        return not any(_writes(u.node.body, n.NonblockingAssign)
                       for u in self.em.comb_order if u.kind == "block")

    # --- expressions -------------------------------------------------------

    def expr(self, e):
        widths = self.em.widths
        w = widths[id(e)]
        mask = (1 << w) - 1
        if isinstance(e, n.Literal):
            return str(e.value & mask)
        if isinstance(e, n.Ref):
            return self.local[e.name]
        if isinstance(e, n.Unary):
            om = (1 << widths[id(e.operand)]) - 1
            return ops.UNARY[e.op].source(self.expr(e.operand), mask, om)
        if isinstance(e, n.Binary):
            return ops.BINARY[e.op].source(self.expr(e.lhs), self.expr(e.rhs),
                                           mask, w, self.src.fresh("sh"))
        if isinstance(e, n.Ternary):
            return (f"({self.expr(e.then_expr)}) if ({self.expr(e.cond)}) "
                    f"else ({self.expr(e.else_expr)})")
        if isinstance(e, n.Index):
            sub_w = widths[id(e.subject)]
            subject = self.expr(e.subject)
            if isinstance(e.index, n.Literal):
                i = e.index.value & ((1 << widths[id(e.index)]) - 1)
                return f"(({subject}) >> {i}) & 1" if i < sub_w else "0"
            i = self.src.fresh("ix")
            return (f"(({subject}) >> {i}) & 1 if ({i} := {self.expr(e.index)}) "
                    f"< {sub_w} else 0")
        if isinstance(e, n.Slice):
            return f"(({self.expr(e.subject)}) >> {const_value(e.lsb)}) & {mask}"
        if isinstance(e, n.Concat):
            acc = None
            for p in e.parts:
                part = self.expr(p)
                acc = f"({part})" if acc is None else \
                    f"(({acc}) << {widths[id(p)]}) | ({part})"
            return acc
        raise TypeError(f"cannot generate {e!r}")

    # --- statements --------------------------------------------------------

    def write(self, lhs, value, pending=None):
        """Write `value` through an lvalue: into the signal's local, or
        into its nonblocking temporary when `pending` maps the signal to
        (temporary, source of the freshest value)."""
        src = self.src
        base = n.lvalue_base(lhs)
        target = cur = self.local[base]
        if pending is not None:
            target, cur = pending[base]
        if isinstance(lhs, n.Ref):
            src(f"{target} = {value}")
            return
        if isinstance(lhs, n.Index):
            full = (1 << self.em.signals[base].width) - 1
            if n.refs_in(lhs.index):
                v, i = src.fresh("wv"), src.fresh("wi")
                src(f"{v} = {value}")
                src(f"{i} = {self.expr(lhs.index)}")
                src(f"{target} = (({cur}) & ~(1 << {i}) | (({v} & 1) << {i})) & {full}")
            else:
                i = const_value(lhs.index)
                src(f"{target} = (({cur}) & {~(1 << i)} | ((({value}) & 1) << {i})) "
                    f"& {full}")
            return
        if isinstance(lhs, n.Slice):
            lo, hi = const_value(lhs.lsb), const_value(lhs.msb)
            sel = ((1 << (hi - lo + 1)) - 1) << lo
            src(f"{target} = (({cur}) & {~sel}) | ((({value}) << {lo}) & {sel})")
            return
        raise TypeError(f"not an lvalue: {lhs!r}")

    def stmt(self, s, pending=None):
        src = self.src
        if isinstance(s, n.Block):
            for c in s.stmts:
                self.stmt(c, pending)
        elif isinstance(s, n.If):
            self._if(s, pending, "if")
        elif isinstance(s, n.Case):
            subject = src.fresh("cs")
            src(f"{subject} = {self.expr(s.subject)}")
            keyword = "if"
            for arm in s.arms:
                values = sorted({const_value(label) for label in arm.labels})
                if not values:
                    continue
                test = f"{subject} == {values[0]}" if len(values) == 1 else \
                    f"{subject} in {{{', '.join(map(str, values))}}}"
                with src.block(f"{keyword} {test}:"):
                    self.stmt(arm.body, pending)
                keyword = "elif"
            if s.default is not None:
                if keyword == "if":
                    self.stmt(s.default, pending)
                else:
                    with src.block("else:"):
                        self.stmt(s.default, pending)
        elif isinstance(s, n.NonblockingAssign):
            self.write(s.lhs, self.expr(s.rhs), pending)
        elif isinstance(s, n.BlockingAssign):
            self.write(s.lhs, self.expr(s.rhs))
        else:
            raise TypeError(f"cannot generate statement {s!r}")

    def _if(self, s, pending, keyword):
        with self.src.block(f"{keyword} ({self.expr(s.cond)}):"):
            self.stmt(s.then_stmt, pending)
        if isinstance(s.else_stmt, n.If):
            self._if(s.else_stmt, pending, "elif")
        elif s.else_stmt is not None:
            with self.src.block("else:"):
                self.stmt(s.else_stmt, pending)

    # --- settle and clocked blocks ------------------------------------------

    def settle(self):
        units = self.em.comb_order
        if not units:
            return
        if not self.fixpoint:
            self._units()
            return
        src = self.src
        written = sorted({self.local[w] for u in units for w in u.writes})
        state = f"({', '.join(written)},)"
        with src.block("for _ in range(SETTLE_CAP):"):
            src(f"snap = {state}")
            self._units()
            with src.block(f"if {state} == snap:"):
                src("break")
        with src.block("else:"):
            src('raise SettleDivergence(f"no fixpoint after {SETTLE_CAP} iterations")')

    def _units(self):
        for u in self.em.comb_order:
            if u.kind == "block":
                self.stmt(u.node.body)
            elif u.kind == "init":
                self.src(f"{self.local[u.node.name]} = {self.expr(u.node.init)}")
            else:
                self.write(u.node.lhs, self.expr(u.node.rhs))

    def reads_any(self, names):
        return any(u.reads & names for u in self.em.comb_order)

    def fire(self, fired):
        """Run the clocked blocks whose condition in `fired` (one per
        block: True, False or source text) holds, then settle."""
        blocks = [(item, cond) for item, cond in zip(self.clocked, fired)
                  if cond is not False]
        if not blocks:
            return
        conds = [c for _, c in blocks]
        if True in conds:
            self._fire(blocks)
            return
        with self.src.block(f"if {' or '.join(conds)}:"):
            if len(blocks) == 1:
                blocks = [(blocks[0][0], True)]
            self._fire(blocks)

    def _fire(self, blocks):
        src = self.src
        pending = {}
        for item, _ in blocks:
            late = _writes(item.body, n.NonblockingAssign)
            mixed = late & _writes(item.body, n.BlockingAssign)
            for reg in sorted(late):
                local = self.local[reg]
                temp = f"nx_{local}"
                if reg in mixed:
                    # a blocking write may change the signal before a
                    # nonblocking bit write reads it: track "no update yet"
                    src(f"{temp} = None")
                    pending[reg] = (temp, f"{local} if {temp} is None else {temp}")
                else:
                    src(f"{temp} = {local}")
                    pending[reg] = (temp, temp)
        for item, cond in blocks:
            if cond is True:
                self.stmt(item.body, pending)
            else:
                with src.block(f"if {cond}:"):
                    self.stmt(item.body, pending)
        for reg, (temp, cur) in sorted(pending.items()):
            local = self.local[reg]
            if temp == cur:
                src(f"{local} = {temp}")
            else:
                with src.block(f"if {temp} is not None:"):
                    src(f"{local} = {temp}")
        self.settle()


def _zero(src, names):
    for i in range(0, len(names), 16):
        src(" = ".join(names[i:i + 16]) + " = 0")


def trial_loop(ea, eb, plan, offsets):
    """Compile one randomized trial over both designs, or return None when
    the pair must stay on the interpreter.

    The function is `trial(getrandbits, storm_from, storm_to)`: it draws
    the data inputs as `plan` does, steps both designs through each cycle
    and compares outputs by the oracle's rule (`offsets` is (output,
    offset) pairs in comparison order; offset 0 inside reset; no
    comparison reaching back to or before the last reset cycle). It
    returns the first divergence as (cycle, output, offset, expected,
    actual), or None.
    """
    ma, mb = ea.top_module, eb.top_module
    width_a = {s.name: s.width for s in ma.inputs}
    width_b = {s.name: s.width for s in mb.inputs}
    extras = list(plan.copies())
    if any(width_b[e] != width_a[src] for e, src in extras):
        return None  # a narrower copy would need the interpreter's masking
    src = _Source()
    # one local per input of the first design, shared by both; an input of
    # the second design copied from a clock map gets its own
    inputs = {s.name: f"in_{i}" for i, s in enumerate(ma.inputs)}
    for i, (e, _) in enumerate(extras):
        inputs[e] = f"ex_{i}"
    da = _Design(ma, "a", inputs, src)
    db = _Design(mb, "b", inputs, src)
    if not (da.simulatable() and db.simulatable()):
        return None

    clocks = set(plan.clocks)
    copy_of = dict(extras)
    ticking = clocks | {e for e, s in extras if s in clocks}
    edge_signals = {sig for d in (da, db) for item in d.clocked
                    for _, sig in item.sensitivity.edges}
    drawn = {}  # data input -> local holding this cycle's drawn value

    def new_value(sig, phase):
        """Source of an input's value in this step."""
        sig = copy_of.get(sig, sig)
        if sig in clocks:
            return str(phase)
        if sig in plan.resets:
            return "rv"
        return drawn.get(sig, inputs[sig])

    def edge(kind, sig, phase):
        """An edge test: True or False when the source can decide it."""
        if sig in ticking:
            if phase == 1:
                return kind == "pos"  # low since this cycle's first step
            return False if kind == "pos" else f"{inputs[sig]} != 0"
        if phase == 1:
            return False  # only the clocks change between the two steps
        old, new = inputs[sig], new_value(sig, phase)
        if kind == "pos":
            return f"({old} == 0 and {new} != 0)"
        return f"({old} != 0 and {new} == 0)"

    def fire_conditions(d, phase):
        conds = []
        for item in d.clocked:
            terms = [edge(kind, sig, phase) for kind, sig in item.sensitivity.edges]
            if True in terms:
                conds.append(True)
                continue
            terms = [t for t in terms if t is not False]
            if not terms:
                conds.append(False)
                continue
            flag = src.fresh("fire")
            src(f"{flag} = {' or '.join(terms)}")
            conds.append(flag)
        return conds

    phases = (0, 1) if plan.clocks else (0,)
    history = {name: f"hist_{i}" for i, (name, k) in enumerate(offsets) if k > 0}
    with src.block("def trial(getrandbits, storm_from, storm_to):"):
        _zero(src, sorted(set(da.local.values()) | set(db.local.values())))
        for h in history.values():
            src(f"{h} = []")
        da.settle()
        db.settle()
        src("last_reset = -1")
        with src.block(f"for t in range({plan.cycles}):"):
            src(f"rv = 1 if t < {plan.prologue} or storm_from <= t < storm_to else 0")
            for phase in phases:
                changed = []
                if phase == 0:
                    for name, w in plan.draws():
                        if name in edge_signals or any(
                                s == name and e in edge_signals for e, s in extras):
                            drawn[name] = f"dv_{inputs[name]}"
                            src(f"{drawn[name]} = getrandbits({w})")
                            changed.append(name)
                        else:
                            src(f"{inputs[name]} = getrandbits({w})")
                    changed += [r for r in plan.resets if r not in clocks]
                    changed += [e for e, s in extras if s not in clocks]
                changed += [c for c in inputs if c in ticking]
                fired_a = fire_conditions(da, phase)
                fired_b = fire_conditions(db, phase)
                for sig in changed:
                    src(f"{inputs[sig]} = {new_value(sig, phase)}")
                for d, fired in ((da, fired_a), (db, fired_b)):
                    if phase == 0 or d.reads_any(ticking):
                        d.settle()
                    d.fire(fired)
            for name, h in history.items():
                src(f"{h}.append({da.local[name]})")
            with src.block("if rv:"):
                for name, _ in offsets:
                    a, b = da.local[name], db.local[name]
                    with src.block(f"if {b} != {a}:"):
                        src(f"return t, {name!r}, 0, {a}, {b}")
                src("last_reset = t")
            with src.block("else:"):
                for name, k in offsets:
                    a, b = da.local[name], db.local[name]
                    if k == 0:
                        test, expected = f"{b} != {a}", a
                    else:
                        expected = f"{history[name]}[t - {k}]"
                        test = f"t - {k} > last_reset and {b} != {expected}"
                    with src.block(f"if {test}:"):
                        src(f"return t, {name!r}, {k}, {expected}, {b}")
        src("return None")
    return src.compile("trial", {"SETTLE_CAP": SETTLE_CAP,
                                 "SettleDivergence": SettleDivergence})
