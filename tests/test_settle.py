"""Fixed settle counts against settling to a fixpoint.

Elaboration fixes how many runs settle each combinational unit
(`CombUnit.passes`, from `bitblast.settle_passes`), and the interpreter
runs each unit that many times with no convergence check. Seeded random
combinational blocks and part-select assigns over a 4-bit signal that
read its own bits must, wherever they elaborate, step exactly as a
reference that reruns each unit until its targets stop changing, from
random start states.
"""

from dataclasses import replace
from random import Random

from rtlmorph import nodes as n
from rtlmorph.elaborate import elaborate
from rtlmorph.emitter import emit_module
from rtlmorph.errors import RtlmorphError
from rtlmorph.parser import parse
from rtlmorph.sim import CompiledModule, instantiate

W = 4  # width of the signal x that each design writes and reads
STEPS = 40
CAP = 64  # runs after which the reference gives a unit up as unsettled

# the designs are built as trees: parsing a thousand of them would take
# most of the test's time
SHELL = parse("""module p(input wire a, input wire [3:0] b, input wire [2:0] i,
                 output wire [3:0] y);
    wire [3:0] x;
    assign y = x;
endmodule
""").modules[0]
A, B, I, X = (n.Ref(name) for name in "abix")


def _bit(rng):
    """A 1-bit expression over the inputs and the bits of x."""
    k, j = n.Literal(rng.randrange(W)), n.Literal(rng.randrange(W))
    xk = n.Index(X, k)
    return rng.choice([
        A, n.Index(B, k), n.Index(B, j), n.Binary("^", n.Index(B, k), A),
        xk, n.Index(X, I), n.Unary("~", xk), n.Binary("&", xk, A),
        n.Binary("^", xk, n.Index(B, j)), n.Binary("|", xk, n.Index(X, j)),
        n.Ternary(n.Index(B, k), n.Index(X, j), A),
    ])


def _value(rng, w):
    """A w-bit expression: a slice of b or x, or bits concatenated."""
    if w > 1 and rng.random() < 0.3:
        lo = rng.randrange(W - w + 1)
        return n.Slice(rng.choice((B, X)), n.Literal(lo + w - 1), n.Literal(lo))
    return n.Concat([_bit(rng) for _ in range(w)])


def _write(rng, whole):
    """(lhs, rhs) of a bit, slice or variable-index write of x, or with
    `whole` also of a write of all of it."""
    kind = rng.randrange(4 if whole else 3)
    if kind == 0:
        return n.Index(X, n.Literal(rng.randrange(W))), _bit(rng)
    if kind == 1:
        lo = rng.randrange(W)
        hi = rng.randrange(lo, W)
        return n.Slice(X, n.Literal(hi), n.Literal(lo)), _value(rng, hi - lo + 1)
    if kind == 2:
        return n.Index(X, I), _bit(rng)
    return X, _value(rng, W)


def _block(rng, depth):
    stmts = []
    for _ in range(rng.randint(1, 3)):
        if depth < 2 and rng.random() < 0.3:
            other = _block(rng, depth + 1) if rng.random() < 0.6 else None
            stmts.append(n.If(_bit(rng), _block(rng, depth + 1), other))
        else:
            stmts.append(n.BlockingAssign(*_write(rng, True)))
    return n.Block(stmts)


def random_design(seed):
    """A comb block over `reg [3:0] x`, or a part-select assign to
    `wire [3:0] x`, that may read bits of x."""
    rng = Random(seed)
    if rng.random() < 0.3:
        kind, unit = "wire", n.ContinuousAssign(*_write(rng, False))
    else:
        kind, unit = "reg", n.ProcBlock(n.CombSensitivity(), _block(rng, 0))
    return replace(SHELL, nets=[replace(SHELL.nets[0], kind=kind)],
                   items=(unit,) + SHELL.items)


def _settle_by_iteration(units, state):
    """Each unit in order, rerun until its targets stop changing."""
    for f, targets in units:
        for _ in range(CAP):
            before = [state[t] for t in targets]
            f(state)
            if [state[t] for t in targets] == before:
                break
        else:
            raise AssertionError(f"{sorted(targets)} never settles")


def test_fixed_passes_match_settling_to_a_fixpoint():
    accepted = rejected = multi = 0
    for seed in range(1000):
        m = random_design(seed)
        try:
            design = elaborate(m)
        except RtlmorphError:
            rejected += 1
            continue
        accepted += 1
        em = design.top_module
        multi += any(u.passes > 1 for u in em.comb_order)
        once = CompiledModule(replace(em, comb_order=[replace(u, passes=1)
                                                      for u in em.comb_order]))
        units = [(f, u.writes) for f, u in zip(once.comb_fns, em.comb_order)]
        rng = Random(seed)
        inst = instantiate(design)
        inst.state.update({name: rng.getrandbits(s.width)
                           for name, s in em.signals.items()})
        state = dict(inst.state)
        for step in range(STEPS):
            inputs = {"a": rng.getrandbits(1), "b": rng.getrandbits(4),
                      "i": rng.getrandbits(3)}
            inst.eval(inputs)
            state.update(inputs)
            _settle_by_iteration(units, state)
            assert inst.state == state, (emit_module(m), step)
    # elaboration accepts and rejects, and fixes more than one run for some
    assert accepted > 300 and rejected > 300 and multi > 100, (accepted, rejected, multi)
