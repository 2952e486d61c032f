"""Bit-level lowering: elaborated combinational logic as a hashed gate DAG,
evaluated on big-int truth tables.

`Netlist` is an and-inverter graph with xor nodes (Brayton & Mishchenko,
"ABC: An Academic Industrial-Strength Verification Tool", CAV 2010). A
literal is `2 * node + complement`; node 0 is constant false, so literal 0
is false and 1 is true. Gates are hashed as they are built, and constant
and trivial operands fold (`x ^ x`, `x & x`, `x & ~x`, a mux with a
constant select or equal arms), so two designs that differ only in logic
that folds away share every node. Operators lower through the bit
templates in `ops`; if/case become muxes, and blocking writes are tracked
per bit.

A truth table is a Python int whose bit j is a node's value under the
j-th input assignment of a window. `Netlist.evaluate` computes the tables
of the nodes a set of literals reads, in creation order, and drops each
table after its last reader.

The lowering declines what a table cannot stand for (`Declined`): a
combinational block that leaves a target bit unassigned on some path, or
reads one before assigning it (the value would come from an earlier
vector: latch-style state), a part-select assign that reads its own base
(the interpreter settles it to a fixpoint), and a nonblocking assign in a
combinational block (the interpreter fails when it runs).
"""

from . import nodes as n
from . import ops
from .elaborate import _covers
from .evalexpr import annotate, const_value

_AND, _XOR = 0, 1

# Bits of a target that a block (or part-select assign) has not written on
# this path, and bits written on some paths only.
_HELD, _PARTIAL = -1, -2


class Declined(Exception):
    """The lowering cannot stand for the interpreter on this design."""

    def __init__(self, reason, stateful=False):
        super().__init__(reason)
        self.stateful = stateful


class Netlist:
    """A structurally hashed gate DAG over input variables."""

    def __init__(self):
        self.fanins = [None]  # per node: (op, a, b), or None for inputs
        self._hashed = {}
        self._plans = {}

    def input(self):
        self.fanins.append(None)
        return 2 * (len(self.fanins) - 1)

    def _node(self, op, a, b):
        key = (op, a, b)
        node = self._hashed.get(key)
        if node is None:
            node = self._hashed[key] = len(self.fanins)
            self.fanins.append(key)
        return 2 * node

    def and_(self, a, b):
        if a > b:
            a, b = b, a
        if a <= 1:
            return b if a else 0
        if a == b:
            return a
        if a == b ^ 1:
            return 0
        return self._node(_AND, a, b)

    def or_(self, a, b):
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor(self, a, b):
        # complements move to the output, so x ^ y and ~x ^ ~y share a node
        flip = (a ^ b) & 1
        a, b = a & ~1, b & ~1
        if a > b:
            a, b = b, a
        if a == 0:
            return b ^ flip
        if a == b:
            return flip
        return self._node(_XOR, a, b) ^ flip

    def mux(self, s, t, e):
        if s <= 1:
            return t if s else e
        if t == e:
            return t
        return self.or_(self.and_(s, t), self.and_(s ^ 1, e))

    def _cone(self, lits):
        """Nodes the literals read, in creation (topological) order."""
        seen = set()
        stack = [lit >> 1 for lit in lits]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            fan = self.fanins[node]
            if fan is not None:
                stack.append(fan[1] >> 1)
                stack.append(fan[2] >> 1)
        return sorted(seen)

    def support(self, lits):
        """The input nodes the literals depend on."""
        return {node for node in self._cone(lits)
                if node and self.fanins[node] is None}

    def _schedule(self, lits):
        """The cone's input nodes, and per gate of it (node, op, fanin
        nodes and complements, nodes whose last reader it is); kept per
        set of literals, since a check reads one set in every window."""
        key = tuple(lits)
        plan = self._plans.get(key)
        if plan is None:
            order = self._cone(lits)
            last = {}
            for node in order:
                fan = self.fanins[node]
                if fan is not None:
                    last[fan[1] >> 1] = last[fan[2] >> 1] = node
            keep = {lit >> 1 for lit in lits}
            inputs = [node for node in order if node and self.fanins[node] is None]
            gates = []
            for node in order:
                fan = self.fanins[node]
                if fan is not None:
                    op, a, b = fan
                    dead = tuple(f for f in (a >> 1, b >> 1)
                                 if f and last[f] == node and f not in keep)
                    gates.append((node, op, a >> 1, a & 1, b >> 1, b & 1, dead))
            plan = self._plans[key] = (inputs, gates)
        return plan

    def evaluate(self, lits, tables, full):
        """Each literal's truth table, masked to `full`. `tables` maps each
        input node to its table and is consumed; a node's table is dropped
        after its last reader."""
        inputs, gates = self._schedule(lits)
        val = {0: 0}
        for node in inputs:
            val[node] = tables.pop(node)
        for node, op, a, ca, b, cb, dead in gates:
            x = ~val[a] if ca else val[a]
            y = ~val[b] if cb else val[b]
            val[node] = x ^ y if op == _XOR else x & y
            for f in dead:
                del val[f]
        return [(~val[lit >> 1] if lit & 1 else val[lit >> 1]) & full
                for lit in lits]


def _fill(bits, w):
    return bits + [0] * (w - len(bits))


def _any(g, bits):
    return ops.UNARY["|"].bits(g, bits)[0]


def _equals(g, bits, value):
    """1 when the bits read `value` (an int, unbounded)."""
    if value >> len(bits):
        return 0
    const = [(value >> i) & 1 for i in range(len(bits))]
    return ops.BINARY["=="].bits(g, bits, const)[0]


def _merge(g, s, t, e):
    """One bit after a branch on `s`: t where it holds, e elsewhere."""
    if s <= 1:
        return t if s else e
    if t == e:
        return t
    if t < 0 or e < 0:
        return _PARTIAL
    return g.mux(s, t, e)


def _reads_own_base(assign):
    base = n.lvalue_base(assign.lhs)
    exprs = (assign.rhs,) + tuple(n.expr_children(assign.lhs)[1:])
    return any(base in n.refs_in(e) for e in exprs)


class _Lowering:
    """Expressions and statements of one module as literals of `net`.
    `bits` maps each signal to its current bits, LSB first; inside a
    combinational block, `local` holds its targets' bits on the current
    path."""

    def __init__(self, net, widths, bits):
        self.g = net
        self.widths = widths
        self.bits = bits
        self.local = {}

    def read(self, name):
        bits = self.local[name] if name in self.local else self.bits[name]
        if min(bits, default=0) < 0:
            raise Declined(f"{name} is read before it is assigned", stateful=True)
        return bits

    def expr(self, e):
        g = self.g
        w = self.widths[id(e)]
        if isinstance(e, n.Literal):
            return [(e.value >> i) & 1 for i in range(w)]
        if isinstance(e, n.Ref):
            return _fill(self.read(e.name), w)
        if isinstance(e, n.Unary):
            return _fill(ops.UNARY[e.op].bits(g, self.expr(e.operand)), w)
        if isinstance(e, n.Binary):
            l, r = self.expr(e.lhs), self.expr(e.rhs)
            return _fill(ops.BINARY[e.op].bits(g, l, r), w)
        if isinstance(e, n.Ternary):
            c = _any(g, self.expr(e.cond))
            return [g.mux(c, t, f) for t, f in
                    zip(self.expr(e.then_expr), self.expr(e.else_expr))]
        if isinstance(e, n.Index):
            # bit i of x is bit 0 of x >> i, 0 when i is out of range
            shifted = ops.BINARY[">>"].bits(g, self.expr(e.subject), self.expr(e.index))
            return _fill(shifted[:1], w)
        if isinstance(e, n.Slice):
            subject = self.expr(e.subject)
            return _fill(subject[const_value(e.lsb):][:w], w)
        if isinstance(e, n.Concat):
            bits = []
            for p in reversed(e.parts):
                bits += self.expr(p)
            return _fill(bits, w)
        raise TypeError(f"cannot lower {e!r}")

    def writes(self, lhs, value, width):
        """(bit, condition, value) for each bit of the base that the lvalue
        may write; the condition is a literal (1 for a fixed position)."""
        if isinstance(lhs, n.Ref):
            return [(j, 1, value[j]) for j in range(width)]
        if isinstance(lhs, n.Slice):
            lo = const_value(lhs.lsb)
            return [(lo + k, 1, v) for k, v in enumerate(value)]
        if isinstance(lhs, n.Index):
            index = self.expr(lhs.index)
            return [(j, hit, value[0]) for j in range(width)
                    if (hit := _equals(self.g, index, j))]
        raise TypeError(f"not an lvalue: {lhs!r}")

    def write(self, target, lhs, value):
        for j, hit, v in self.writes(lhs, value, len(target)):
            target[j] = _merge(self.g, hit, v, target[j])

    # --- combinational blocks ------------------------------------------------

    def stmt(self, s):
        if s is None:
            return
        if isinstance(s, n.Block):
            for c in s.stmts:
                self.stmt(c)
        elif isinstance(s, n.If):
            self.branch(_any(self.g, self.expr(s.cond)),
                        lambda: self.stmt(s.then_stmt),
                        lambda: self.stmt(s.else_stmt))
        elif isinstance(s, n.Case):
            subject = self.expr(s.subject)
            arms, values = [], set()
            for arm in s.arms:
                labels = sorted({const_value(label) for label in arm.labels})
                values.update(labels)
                test = _any(self.g, [_equals(self.g, subject, v) for v in labels])
                if test:
                    arms.append((test, arm.body))
            # without a default, labels that name every subject value leave
            # the last arm that can match no other case (as elaborate's
            # `_covers` has it)
            if s.default is None and arms and \
                    sum(0 <= v < 1 << len(subject) for v in values) == 1 << len(subject):
                arms[-1] = (1, arms[-1][1])
            self.case(arms, s.default)
        elif isinstance(s, n.BlockingAssign):
            target = self.local[n.lvalue_base(s.lhs)]
            self.write(target, s.lhs, self.expr(s.rhs))
        elif isinstance(s, n.NonblockingAssign):
            raise Declined("nonblocking assign in a combinational block")
        else:
            raise TypeError(f"cannot lower statement {s!r}")

    def case(self, arms, default):
        """The first arm whose test holds runs, else the default."""
        if not arms:
            if default is not None:
                self.stmt(default)
            return
        (test, body), rest = arms[0], arms[1:]
        self.branch(test, lambda: self.stmt(body), lambda: self.case(rest, default))

    def branch(self, cond, then, otherwise):
        if cond <= 1:
            (then if cond else otherwise)()
            return
        entry = self.local
        self.local = {t: list(bits) for t, bits in entry.items()}
        then()
        taken = self.local
        self.local = {t: list(bits) for t, bits in entry.items()}
        otherwise()
        self.local = {t: [_merge(self.g, cond, a, b) for a, b in zip(bits, self.local[t])]
                      for t, bits in taken.items()}


def _settled(name, bits):
    """A target's bits after its unit: a bit never written keeps its
    initial 0; one written on some paths only holds state."""
    if _PARTIAL in bits:
        raise Declined(f"{name} is not assigned on every path", stateful=True)
    return [0 if b == _HELD else b for b in bits]


def may_hold_state(em):
    """False when the lowering cannot find latch-style state in the module,
    which is known without lowering it: every combinational block writes
    whole targets with blocking assigns, each target on every path, and
    every continuous assign writes a whole signal."""
    subject_width = lambda e: em.widths.get(id(e))
    for u in em.comb_order:
        if u.kind == "assign" and not isinstance(u.node.lhs, n.Ref):
            return True
        if u.kind == "block":
            body = u.node.body
            if any(isinstance(s, n.NonblockingAssign) or isinstance(s, n.BlockingAssign)
                   and not isinstance(s.lhs, n.Ref) for s in n.walk_stmts(body)):
                return True
            if not all(_covers(body, t, subject_width) for t in u.writes):
                return True
    return False


def lower_module(net, em, inputs):
    """Every signal of an elaborated combinational module as bits of
    `net`; `inputs` maps each input port to its literals. Raises Declined.
    A unit declined for a reason other than state leaves its targets as
    fresh inputs, so a later unit that holds state is still found."""
    bits = {name: inputs[name] if s.kind == "input" else [0] * s.width
            for name, s in em.signals.items()}
    low = _Lowering(net, em.widths, bits)
    declined = None
    for u in em.comb_order:
        try:
            if u.kind == "init":
                bits[u.node.name] = low.expr(u.node.init)
            elif u.kind == "assign":
                if _reads_own_base(u.node):
                    raise Declined("a part-select assign reads its own base")
                target = [_HELD] * em.signals[u.target_hint].width
                low.write(target, u.node.lhs, low.expr(u.node.rhs))
                bits[u.target_hint] = _settled(u.target_hint, target)
            else:
                low.local = {t: [_HELD] * em.signals[t].width for t in sorted(u.writes)}
                low.stmt(u.node.body)
                for t, target in low.local.items():
                    bits[t] = _settled(t, target)
                low.local = {}
        except Declined as e:
            if e.stateful:
                raise
            low.local = {}
            declined = declined or e
            for t in u.writes:
                bits[t] = [net.input() for _ in range(em.signals[t].width)]
    if declined is not None:
        raise declined
    return bits


# --- truth tables ---------------------------------------------------------------


def _pattern(i, k):
    """Input bit i over the 2^k assignments of k bits: bit j of the table
    is bit i of j."""
    if i >= 3:
        run = 1 << (i - 3)
        data = (b"\0" * run + b"\xff" * run) * (1 << (k - i - 1))
        return int.from_bytes(data, "little")
    byte = (0xAA, 0xCC, 0xF0)[i]
    if k >= 3:
        return int.from_bytes(bytes([byte]) * (1 << (k - 3)), "little")
    return byte & ((1 << (1 << k)) - 1)


def _window(variables, k, used):
    """Input tables over vectors 2^k .. 2^(k+1) - 1 of the packed inputs,
    for the input nodes in `used`: the bits below k run through every
    pattern, bit k is 1, the rest 0."""
    full = (1 << (1 << k)) - 1
    tables = {}
    for i, lit in enumerate(variables):
        if lit >> 1 in used:
            tables[lit >> 1] = _pattern(i, k) if i < k else full if i == k else 0
    return tables, full


class Miter:
    """Two combinational designs over shared input bits, and per output
    the literal that is 1 where they differ. Raises Declined."""

    def __init__(self, ea, eb, ins, out_names):
        net = self.net = Netlist()
        inputs = {name: [net.input() for _ in range(w)] for name, w in ins}
        self.variables = [lit for name, _ in ins for lit in inputs[name]]
        outs, declined = [], None
        for ed in (ea, eb):
            try:
                outs.append(lower_module(net, ed.top_module, inputs))
            except Declined as e:
                if e.stateful:
                    raise
                declined = e  # the other design may still hold state
        if declined is not None:
            raise declined
        self.outs_a, self.outs_b = outs
        self.diffs = [(name, _any(net, [net.xor(a, b) for a, b in
                                        zip(self.outs_a[name], self.outs_b[name])]))
                      for name in out_names]

    def first_divergence(self, start, stop):
        """The first vector in start..stop-1 where an output differs, as
        (vector, output, expected, actual), or None. `start` and `stop`
        are powers of two; vectors are read in windows that double from
        `start`, so a divergence at v costs O(v) table bits."""
        live = [(name, d) for name, d in self.diffs if d]
        if not live:
            return None
        # each live output's miter, then its bits on both sides
        lits = [d for _, d in live]
        for name, _ in live:
            lits += self.outs_a[name] + self.outs_b[name]
        used = self.net.support(lits)
        while start < stop:
            k = start.bit_length() - 1
            tables, full = _window(self.variables, k, used)
            values = self.net.evaluate(lits, tables, full)
            hit = 0
            for t in values[:len(live)]:
                hit |= t
            if hit:
                j = (hit & -hit).bit_length() - 1
                i = next(i for i, t in enumerate(values[:len(live)]) if t >> j & 1)
                name = live[i][0]
                at = len(live) + sum(2 * len(self.outs_a[o]) for o, _ in live[:i])
                w = len(self.outs_a[name])
                word = lambda ts: sum(((t >> j) & 1) << b for b, t in enumerate(ts))
                return (start + j, name, word(values[at:at + w]),
                        word(values[at + w:at + 2 * w]))
            start *= 2
        return None


def tautology(pred, support, width_of):
    """True when `pred` is 1 under every assignment of its support
    signals: its truth table is all ones, and its upper bits all zeros."""
    net = Netlist()
    bits = {s: [net.input() for _ in range(width_of(s))] for s in support}
    widths = {}
    annotate(pred, width_of, widths)
    out = _Lowering(net, widths, bits).expr(pred)
    variables = [lit for s in support for lit in bits[s]]
    used = net.support(out)
    k = len(variables)
    full = (1 << (1 << k)) - 1
    tables = {lit >> 1: _pattern(i, k) for i, lit in enumerate(variables)
              if lit >> 1 in used}
    return net.evaluate(out, tables, full) == [full] + [0] * (len(out) - 1)


def bit_loop(assign, widths, width_of):
    """True when a part-select assign that reads its own base makes a bit
    of it depend on itself, directly or through its other bits."""
    net = Netlist()
    base = n.lvalue_base(assign.lhs)
    bits = {name: [net.input() for _ in range(width_of(name))]
            for name in sorted(n.refs_in(assign.rhs) | n.refs_in(assign.lhs))}
    own = {lit >> 1: j for j, lit in enumerate(bits[base])}
    low = _Lowering(net, widths, bits)
    deps = [set() for _ in bits[base]]
    for j, hit, v in low.writes(assign.lhs, low.expr(assign.rhs), len(deps)):
        deps[j] |= {own[x] for x in net.support([hit, v]) if x in own}
    # a cycle among the bits: depth-first search with three colours
    state = [0] * len(deps)

    def cyclic(j):
        state[j] = 1
        for k in deps[j]:
            if state[k] == 1 or state[k] == 0 and cyclic(k):
                return True
        state[j] = 2
        return False

    return any(state[j] == 0 and cyclic(j) for j in range(len(deps)))
