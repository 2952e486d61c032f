"""The operator table: each operator's binding level, width rule and value.

A value is Python source over the operands `{l}`/`{r}` (or `{x}`), the
result mask `{m}`, the result width `{w}`, the operand mask `{om}` and a
temporary name `{sh}`. The simulator hands an operator operands already
masked to their annotated widths, which is why `{l} >> {r}` needs no
guard for counts of `w` or more. From each value three products are
built once, at import: `fold(l, r, m, w)` / `fold(x, m, om)` computes it
over ints; `closure(lf, rf, m, w)` / `closure(f, m, om)` returns `fn(s)`
with the operand closures called inline, so a compiled node costs one
call; and `source(l, r, m, w, sh)` / `source(x, m, om)` returns the value
as an expression over operand source text, with the masks and widths as
literals, for the generated trial loop (`codegen`). A caller of `source`
passes a temporary name of its own per node, so nested shifts do not share
one.

Beside its value each row holds the operator's bit template, `bits(g, l,
r)` / `bits(g, x)`: the same function built from gates (`bitblast`). The
operands are lists of literals, LSB first, at the widths the simulator
hands them; `g` offers `and_`, `or_`, `xor` and `mux(s, t, e)` over
literals, where 0 is false, 1 is true and `a ^ 1` is the complement of
`a`. A template returns the result's low bits, as many as it defines
(one for a comparison or reduction); the caller zero-fills the rest.
"""

from collections import namedtuple

# Width rules (WIDTHS.md): ARITH is max of the operand widths, operands
# take the node's width; COMPARE is 1 bit over operands extended to the
# wider side; LOGICAL is 1 bit over self-determined operands; SHIFT is the
# left operand's width, the count stays self-determined.
ARITH, COMPARE, LOGICAL, SHIFT = "arith", "compare", "logical", "shift"

# Which constants fold through a unary operator: any, sized only, or none.
# An unsized constant is an integer, so negation folds it (that is how `-1`
# is written) but `~` needs a width to invert within.
ANY, SIZED = "any", "sized"

# --- bit templates -----------------------------------------------------------


def _any(g, x):
    acc = 0
    for b in x:
        acc = g.or_(acc, b)
    return acc


def _all(g, x):
    acc = 1
    for b in x:
        acc = g.and_(acc, b)
    return acc


def _parity(g, x):
    acc = 0
    for b in x:
        acc = g.xor(acc, b)
    return acc


def _add(g, l, r, carry):
    """Ripple-carry l + r + carry: (sum bits, carry out)."""
    out = []
    for a, b in zip(l, r):
        half = g.xor(a, b)
        out.append(g.xor(half, carry))
        carry = g.or_(g.and_(a, b), g.and_(carry, half))
    return out, carry


def _sub(g, l, r):
    """l - r as l + ~r + 1: (difference bits, carry out, which is l >= r)."""
    return _add(g, l, [b ^ 1 for b in r], 1)


def _equal(g, l, r):
    return _any(g, [g.xor(a, b) for a, b in zip(l, r)]) ^ 1


def _shift(g, x, count, up):
    """Barrel shift by a variable count, one mux rank per count bit; a
    count of len(x) or more gives 0."""
    w = len(x)
    for k, c in enumerate(count):
        step = 1 << k
        if step >= w:
            keep = _any(g, count[k:]) ^ 1
            return [g.and_(b, keep) for b in x]
        if up:
            x = [g.mux(c, x[j - step] if j >= step else 0, x[j]) for j in range(w)]
        else:
            x = [g.mux(c, x[j + step] if j + step < w else 0, x[j]) for j in range(w)]
    return x


def _multiply(g, l, r):
    """Shift-add over the low len(l) bits of the product."""
    w = len(l)
    acc = [0] * w
    for i, b in enumerate(r[:w]):
        acc, _ = _add(g, acc, [0] * i + [g.and_(b, a) for a in l[:w - i]], 0)
    return acc


_BINARY = {  # op: (binding level, larger binds tighter; width rule; value;
             #      bit template)
    "||": (1, LOGICAL, "1 if ({l} or {r}) else 0",
           lambda g, l, r: [g.or_(_any(g, l), _any(g, r))]),
    "&&": (2, LOGICAL, "1 if ({l} and {r}) else 0",
           lambda g, l, r: [g.and_(_any(g, l), _any(g, r))]),
    "|": (3, ARITH, "{l} | {r}",
          lambda g, l, r: [g.or_(a, b) for a, b in zip(l, r)]),
    "^": (4, ARITH, "{l} ^ {r}",
          lambda g, l, r: [g.xor(a, b) for a, b in zip(l, r)]),
    "&": (5, ARITH, "{l} & {r}",
          lambda g, l, r: [g.and_(a, b) for a, b in zip(l, r)]),
    "==": (6, COMPARE, "1 if {l} == {r} else 0",
           lambda g, l, r: [_equal(g, l, r)]),
    "!=": (6, COMPARE, "1 if {l} != {r} else 0",
           lambda g, l, r: [_equal(g, l, r) ^ 1]),
    "<": (7, COMPARE, "1 if {l} < {r} else 0",
          lambda g, l, r: [_sub(g, l, r)[1] ^ 1]),
    "<=": (7, COMPARE, "1 if {l} <= {r} else 0",
           lambda g, l, r: [_sub(g, r, l)[1]]),
    ">": (7, COMPARE, "1 if {l} > {r} else 0",
          lambda g, l, r: [_sub(g, r, l)[1] ^ 1]),
    ">=": (7, COMPARE, "1 if {l} >= {r} else 0",
           lambda g, l, r: [_sub(g, l, r)[1]]),
    "<<": (8, SHIFT, "(({l} << {sh}) & {m}) if ({sh} := {r}) < {w} else 0",
           lambda g, l, r: _shift(g, l, r, up=True)),
    ">>": (8, SHIFT, "{l} >> {r}",
           lambda g, l, r: _shift(g, l, r, up=False)),
    "+": (9, ARITH, "({l} + {r}) & {m}",
          lambda g, l, r: _add(g, l, r, 0)[0]),
    "-": (9, ARITH, "({l} - {r}) & {m}",
          lambda g, l, r: _sub(g, l, r)[0]),
    "*": (10, ARITH, "({l} * {r}) & {m}", _multiply),
}

_UNARY = {  # op: (width rule, value, constants it folds, bit template)
    "~": (ARITH, "(~{x}) & {m}", SIZED, lambda g, x: [b ^ 1 for b in x]),
    "-": (ARITH, "(-{x}) & {m}", ANY,
          lambda g, x: _add(g, [b ^ 1 for b in x], [0] * len(x), 1)[0]),
    "!": (LOGICAL, "0 if {x} else 1", ANY, lambda g, x: [_any(g, x) ^ 1]),
    "&": (LOGICAL, "1 if {x} == {om} else 0", None, lambda g, x: [_all(g, x)]),
    "|": (LOGICAL, "1 if {x} else 0", None, lambda g, x: [_any(g, x)]),
    "^": (LOGICAL, "bin({x}).count('1') & 1", None,
          lambda g, x: [_parity(g, x)]),
}

# every unary operator binds tighter than any binary one
UNARY_LEVEL = max(row[0] for row in _BINARY.values()) + 1


BinaryOp = namedtuple("BinaryOp", "level rule fold closure source bits")
UnaryOp = namedtuple("UnaryOp", "rule folds fold closure source bits")

# fold and closure keep the field names as their parameter and local names
_NAMES = dict(m="m", w="w", om="om", sh="sh")


def _define(op, name, params, body):
    ns = {}
    exec(compile(f"def {name}({params}):\n    return {body}\n",
                 f"<operator {op}>", "exec"), ns)
    return ns[name]


def _binary_source(value):
    def source(l, r, m, w, sh):
        return value.format(l=f"({l})", r=f"({r})", m=m, w=w, sh=sh)
    return source


def _unary_source(value):
    def source(x, m, om):
        return value.format(x=f"({x})", m=m, om=om)
    return source


BINARY = {
    op: BinaryOp(
        level, rule,
        _define(op, "fold", "l, r, m, w", value.format(l="l", r="r", **_NAMES)),
        _define(op, "closure", "lf, rf, m, w",
                "lambda s: " + value.format(l="lf(s)", r="rf(s)", **_NAMES)),
        _binary_source(value), bits)
    for op, (level, rule, value, bits) in _BINARY.items()
}

UNARY = {
    op: UnaryOp(
        rule, folds,
        _define(op, "fold", "x, m, om", value.format(x="x", **_NAMES)),
        _define(op, "closure", "f, m, om",
                "lambda s: " + value.format(x="f(s)", **_NAMES)),
        _unary_source(value), bits)
    for op, (rule, value, folds, bits) in _UNARY.items()
}
