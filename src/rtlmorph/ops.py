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

_BINARY = {  # op: (binding level, larger binds tighter; width rule; value)
    "||": (1, LOGICAL, "1 if ({l} or {r}) else 0"),
    "&&": (2, LOGICAL, "1 if ({l} and {r}) else 0"),
    "|": (3, ARITH, "{l} | {r}"),
    "^": (4, ARITH, "{l} ^ {r}"),
    "&": (5, ARITH, "{l} & {r}"),
    "==": (6, COMPARE, "1 if {l} == {r} else 0"),
    "!=": (6, COMPARE, "1 if {l} != {r} else 0"),
    "<": (7, COMPARE, "1 if {l} < {r} else 0"),
    "<=": (7, COMPARE, "1 if {l} <= {r} else 0"),
    ">": (7, COMPARE, "1 if {l} > {r} else 0"),
    ">=": (7, COMPARE, "1 if {l} >= {r} else 0"),
    "<<": (8, SHIFT, "(({l} << {sh}) & {m}) if ({sh} := {r}) < {w} else 0"),
    ">>": (8, SHIFT, "{l} >> {r}"),
    "+": (9, ARITH, "({l} + {r}) & {m}"),
    "-": (9, ARITH, "({l} - {r}) & {m}"),
    "*": (10, ARITH, "({l} * {r}) & {m}"),
}

_UNARY = {  # op: (width rule, value, constants it folds)
    "~": (ARITH, "(~{x}) & {m}", SIZED),
    "-": (ARITH, "(-{x}) & {m}", ANY),
    "!": (LOGICAL, "0 if {x} else 1", ANY),
    "&": (LOGICAL, "1 if {x} == {om} else 0", None),
    "|": (LOGICAL, "1 if {x} else 0", None),
    "^": (LOGICAL, "bin({x}).count('1') & 1", None),
}

# every unary operator binds tighter than any binary one
UNARY_LEVEL = max(level for level, _, _ in _BINARY.values()) + 1


BinaryOp = namedtuple("BinaryOp", "level rule fold closure source")
UnaryOp = namedtuple("UnaryOp", "rule folds fold closure source")

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
        _binary_source(value))
    for op, (level, rule, value) in _BINARY.items()
}

UNARY = {
    op: UnaryOp(
        rule, folds,
        _define(op, "fold", "x, m, om", value.format(x="x", **_NAMES)),
        _define(op, "closure", "f, m, om",
                "lambda s: " + value.format(x="f(s)", **_NAMES)),
        _unary_source(value))
    for op, (rule, value, folds) in _UNARY.items()
}
