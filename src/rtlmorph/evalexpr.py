"""Width inference and reference evaluation for expressions.

The width algebra is documented in WIDTHS.md: self-determined operand
widths are extended to the width of their context, values are unsigned,
and assignments never silently truncate (a self-determined RHS wider than
its target is a WidthMismatch). All simulation values are plain ints
masked to the node's inferred width.
"""

from . import nodes as n
from . import ops
from .errors import ResolutionError, WidthMismatch

MAX_WIDTH = 64
# constant left shifts by this many bits or more fold to 0, which bounds
# the ints folding builds
_FOLD_SHIFT_CAP = 1024


def _literal_min_width(value: int) -> int:
    return max(1, value.bit_length())


def self_width(e: n.Expr, width_of) -> int:
    """Self-determined width, before any context extension."""
    if isinstance(e, n.Literal):
        return e.width if e.width is not None else _literal_min_width(e.value)
    if isinstance(e, n.Ref):
        w = width_of(e.name)
        if w is None:
            raise ResolutionError(e.name, *(e.pos or (None, None)))
        return w
    if isinstance(e, n.Unary):
        if ops.UNARY[e.op].rule == ops.ARITH:
            return self_width(e.operand, width_of)
        return 1
    if isinstance(e, n.Binary):
        rule = ops.BINARY[e.op].rule
        if rule == ops.ARITH:
            return max(self_width(e.lhs, width_of), self_width(e.rhs, width_of))
        if rule == ops.SHIFT:
            return self_width(e.lhs, width_of)
        return 1
    if isinstance(e, n.Ternary):
        return max(self_width(e.then_expr, width_of), self_width(e.else_expr, width_of))
    if isinstance(e, n.Index):
        return 1
    if isinstance(e, n.Slice):
        msb = const_value(e.msb)
        lsb = const_value(e.lsb)
        if msb < lsb:
            raise WidthMismatch(f"reversed slice [{msb}:{lsb}]")
        return msb - lsb + 1
    if isinstance(e, n.Concat):
        return sum(self_width(p, width_of) for p in e.parts)
    raise TypeError(f"not an expression: {e!r}")


def annotate(e: n.Expr, width_of, widths: dict, context=None) -> int:
    """Assign a final width to every node under e; returns e's final width.

    widths is keyed by id(node); the caller owns keeping the tree alive.
    """
    sw = self_width(e, width_of)
    final = max(sw, context) if context is not None else sw
    if final > MAX_WIDTH:
        raise WidthMismatch(f"width {final} exceeds the {MAX_WIDTH}-bit cap")

    if isinstance(e, (n.Literal, n.Ref)):
        pass
    elif isinstance(e, n.Unary):
        ctx = final if ops.UNARY[e.op].rule == ops.ARITH else None
        annotate(e.operand, width_of, widths, ctx)
    elif isinstance(e, n.Binary):
        rule = ops.BINARY[e.op].rule
        if rule == ops.ARITH:
            annotate(e.lhs, width_of, widths, final)
            annotate(e.rhs, width_of, widths, final)
        elif rule == ops.COMPARE:
            both = max(self_width(e.lhs, width_of), self_width(e.rhs, width_of))
            annotate(e.lhs, width_of, widths, both)
            annotate(e.rhs, width_of, widths, both)
        elif rule == ops.LOGICAL:
            annotate(e.lhs, width_of, widths, None)
            annotate(e.rhs, width_of, widths, None)
        elif rule == ops.SHIFT:
            annotate(e.lhs, width_of, widths, final)
            annotate(e.rhs, width_of, widths, None)
    elif isinstance(e, n.Ternary):
        annotate(e.cond, width_of, widths, None)
        annotate(e.then_expr, width_of, widths, final)
        annotate(e.else_expr, width_of, widths, final)
    elif isinstance(e, n.Index):
        sub_w = annotate(e.subject, width_of, widths, None)
        annotate(e.index, width_of, widths, None)
        if isinstance(e.index, n.Literal) and e.index.value >= sub_w:
            raise WidthMismatch(f"bit select {e.index.value} out of range for width {sub_w}")
    elif isinstance(e, n.Slice):
        sub_w = annotate(e.subject, width_of, widths, None)
        annotate(e.msb, width_of, widths, None)
        annotate(e.lsb, width_of, widths, None)
        if const_value(e.msb) >= sub_w:
            raise WidthMismatch(f"part select [{const_value(e.msb)}:{const_value(e.lsb)}] "
                                f"out of range for width {sub_w}")
    elif isinstance(e, n.Concat):
        for p in e.parts:
            annotate(p, width_of, widths, None)
    widths[id(e)] = final
    return final


def evaluate(e: n.Expr, env, widths: dict) -> int:
    """Reference (uncompiled) evaluation; env maps signal name -> int.

    The tests check the simulator's compiled closures against this
    evaluator, so it is written out by hand and deliberately not built
    from `ops`: built from the same table, it would agree by construction.
    """
    w = widths[id(e)]
    mask = (1 << w) - 1
    if isinstance(e, n.Literal):
        return e.value & mask
    if isinstance(e, n.Ref):
        return env[e.name] & mask
    if isinstance(e, n.Unary):
        v = evaluate(e.operand, env, widths)
        if e.op == "~":
            return (~v) & mask
        if e.op == "-":
            return (-v) & mask
        if e.op == "!":
            return 0 if v else 1
        ow = widths[id(e.operand)]
        omask = (1 << ow) - 1
        if e.op == "&":
            return 1 if v == omask else 0
        if e.op == "|":
            return 1 if v != 0 else 0
        if e.op == "^":
            return bin(v).count("1") & 1
    if isinstance(e, n.Binary):
        if e.op in ("&&", "||"):
            l = evaluate(e.lhs, env, widths)
            if e.op == "&&":
                return 1 if (l != 0 and evaluate(e.rhs, env, widths) != 0) else 0
            return 1 if (l != 0 or evaluate(e.rhs, env, widths) != 0) else 0
        l = evaluate(e.lhs, env, widths)
        r = evaluate(e.rhs, env, widths)
        if e.op == "&":
            return l & r
        if e.op == "|":
            return l | r
        if e.op == "^":
            return l ^ r
        if e.op == "+":
            return (l + r) & mask
        if e.op == "-":
            return (l - r) & mask
        if e.op == "*":
            return (l * r) & mask
        if e.op == "==":
            return 1 if l == r else 0
        if e.op == "!=":
            return 1 if l != r else 0
        if e.op == "<":
            return 1 if l < r else 0
        if e.op == "<=":
            return 1 if l <= r else 0
        if e.op == ">":
            return 1 if l > r else 0
        if e.op == ">=":
            return 1 if l >= r else 0
        if e.op == "<<":
            return 0 if r >= w else (l << r) & mask
        if e.op == ">>":
            return 0 if r >= w else l >> r
    if isinstance(e, n.Ternary):
        if evaluate(e.cond, env, widths) != 0:
            return evaluate(e.then_expr, env, widths)
        return evaluate(e.else_expr, env, widths)
    if isinstance(e, n.Index):
        v = evaluate(e.subject, env, widths)
        i = evaluate(e.index, env, widths)
        sub_w = widths[id(e.subject)]
        return 0 if i >= sub_w else (v >> i) & 1
    if isinstance(e, n.Slice):
        v = evaluate(e.subject, env, widths)
        lo = const_value(e.lsb)
        return (v >> lo) & ((1 << (const_value(e.msb) - lo + 1)) - 1)
    if isinstance(e, n.Concat):
        acc = 0
        for p in e.parts:
            pw = widths[id(p)]
            acc = (acc << pw) | evaluate(p, env, widths)
        return acc
    raise TypeError(f"cannot evaluate {e!r}")


def const_value(e: n.Expr, params=None) -> int:
    """Evaluate a compile-time constant expression to an int."""
    v = try_const(e, params)
    if v is None:
        raise WidthMismatch(f"expected a constant expression, got {e!r}")
    return v[0]


def try_const(e: n.Expr, params=None):
    """(value, display_width or None) when e folds to a constant, else None.

    Arithmetic on constants is unbounded here; sized literals keep their
    declared width for display purposes only.
    """
    params = params or {}
    if isinstance(e, n.Literal):
        return (e.value, e.width)
    if isinstance(e, n.Ref):
        got = params.get(e.name)
        return got if got is not None else None
    if isinstance(e, n.Unary):
        inner = try_const(e.operand, params)
        if inner is None:
            return None
        v, w = inner
        op = ops.UNARY[e.op]
        if op.folds is None or (op.folds == ops.SIZED and w is None):
            return None
        m = -1 if w is None else (1 << w) - 1
        return (op.fold(v, m, None), w if op.rule == ops.ARITH else 1)
    if isinstance(e, n.Binary):
        l = try_const(e.lhs, params)
        r = try_const(e.rhs, params)
        if l is None or r is None:
            return None
        op = ops.BINARY[e.op]
        if op.rule == ops.SHIFT and r[0] < 0:
            raise WidthMismatch(f"shift count {r[0]} is negative")
        return (op.fold(l[0], r[0], -1, _FOLD_SHIFT_CAP), None)
    return None
