"""Deterministic pretty-printer for the AST.

The output is stable under repeated emit and parses back to a structurally
equal tree. Parentheses are minimal with respect to operator precedence;
literal display bases are preserved from the source.
"""

from . import nodes as n
from . import ops

_INDENT = "    "

# binding strength; larger binds tighter
_PRIMARY_LEVEL = ops.UNARY_LEVEL + 1
_TERNARY_LEVEL = 0


def _level(e):
    if isinstance(e, n.Binary):
        return ops.BINARY[e.op].level
    if isinstance(e, n.Unary):
        return ops.UNARY_LEVEL
    if isinstance(e, n.Ternary):
        return _TERNARY_LEVEL
    return _PRIMARY_LEVEL


def _fmt_literal(e: n.Literal) -> str:
    if e.width is None:
        return str(e.value)
    base = e.base if e.base in "bodh" else "d"
    if base == "b":
        digits = format(e.value, "b").zfill(e.width)
    elif base == "h":
        digits = format(e.value, "x")
    elif base == "o":
        digits = format(e.value, "o")
    else:
        digits = str(e.value)
    return f"{e.width}'{base}{digits}"


def emit_expr(e: n.Expr) -> str:
    if isinstance(e, n.Literal):
        return _fmt_literal(e)
    if isinstance(e, n.Ref):
        return e.name
    if isinstance(e, n.Unary):
        # nested unaries keep explicit parens: ~(~x), not ~~x
        return e.op + _wrap(e.operand, ops.UNARY_LEVEL, allow_equal=False)
    if isinstance(e, n.Binary):
        lvl = ops.BINARY[e.op].level
        lhs = _wrap(e.lhs, lvl, allow_equal=True)
        rhs = _wrap(e.rhs, lvl, allow_equal=False)
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, n.Ternary):
        cond = _wrap(e.cond, _TERNARY_LEVEL + 1, allow_equal=True)
        then_e = emit_expr(e.then_expr)
        else_e = emit_expr(e.else_expr)
        return f"{cond} ? {then_e} : {else_e}"
    if isinstance(e, n.Index):
        return f"{_subject(e.subject)}[{emit_expr(e.index)}]"
    if isinstance(e, n.Slice):
        return f"{_subject(e.subject)}[{emit_expr(e.msb)}:{emit_expr(e.lsb)}]"
    if isinstance(e, n.Concat):
        return "{" + ", ".join(emit_expr(p) for p in e.parts) + "}"
    raise TypeError(f"cannot emit {e!r}")


def _wrap(e, ctx_level, allow_equal):
    lvl = _level(e)
    if lvl > ctx_level or (allow_equal and lvl == ctx_level):
        return emit_expr(e)
    return f"({emit_expr(e)})"


def _subject(e):
    if isinstance(e, (n.Ref, n.Index, n.Slice, n.Concat, n.Literal)):
        return emit_expr(e)
    return f"({emit_expr(e)})"


def _fmt_range(msb, lsb) -> str:
    if msb == n.Literal(0) and lsb == n.Literal(0):
        return ""
    return f"[{emit_expr(msb)}:{emit_expr(lsb)}] "


def _emit_stmt(s: n.Stmt, out, depth):
    pad = _INDENT * depth
    if isinstance(s, n.Block):
        out.append(pad + "begin")
        for c in s.stmts:
            _emit_stmt(c, out, depth + 1)
        out.append(pad + "end")
    elif isinstance(s, n.If):
        _emit_if(s, out, depth, prefix=pad)
    elif isinstance(s, n.Case):
        out.append(f"{pad}case ({emit_expr(s.subject)})")
        for arm in s.arms:
            labels = ", ".join(emit_expr(l) for l in arm.labels)
            _emit_arm_body(labels, arm.body, out, depth + 1)
        if s.default is not None:
            _emit_arm_body("default", s.default, out, depth + 1)
        out.append(pad + "endcase")
    elif isinstance(s, n.NonblockingAssign):
        out.append(f"{pad}{emit_expr(s.lhs)} <= {emit_expr(s.rhs)};")
    elif isinstance(s, n.BlockingAssign):
        out.append(f"{pad}{emit_expr(s.lhs)} = {emit_expr(s.rhs)};")
    else:
        raise TypeError(f"cannot emit statement {s!r}")


def _emit_arm_body(label, body, out, depth):
    pad = _INDENT * depth
    if isinstance(body, n.Block):
        out.append(f"{pad}{label}: begin")
        for c in body.stmts:
            _emit_stmt(c, out, depth + 1)
        out.append(pad + "end")
    else:
        tmp = []
        _emit_stmt(body, tmp, 0)
        if len(tmp) == 1:
            out.append(f"{pad}{label}: {tmp[0]}")
        else:
            out.append(f"{pad}{label}:")
            _emit_stmt(body, out, depth + 1)


def _emit_if(s: n.If, out, depth, prefix):
    head = f"{prefix}if ({emit_expr(s.cond)})"
    pad = _INDENT * depth
    if isinstance(s.then_stmt, n.Block):
        out.append(head + " begin")
        for c in s.then_stmt.stmts:
            _emit_stmt(c, out, depth + 1)
        closing = pad + "end"
    else:
        out.append(head)
        _emit_stmt(s.then_stmt, out, depth + 1)
        closing = None

    if s.else_stmt is None:
        if closing:
            out.append(closing)
        return
    else_head = (closing + " else") if closing else (pad + "else")
    if isinstance(s.else_stmt, n.If):
        _emit_if(s.else_stmt, out, depth, prefix=else_head + " ")
    elif isinstance(s.else_stmt, n.Block):
        out.append(else_head + " begin")
        for c in s.else_stmt.stmts:
            _emit_stmt(c, out, depth + 1)
        out.append(pad + "end")
    else:
        out.append(else_head)
        _emit_stmt(s.else_stmt, out, depth + 1)


def _emit_sensitivity(sens) -> str:
    if isinstance(sens, n.CombSensitivity):
        if sens.signals is None:
            return "@(*)"
        return "@(" + " or ".join(sens.signals) + ")"
    parts = [("posedge " if edge == "pos" else "negedge ") + sig for edge, sig in sens.edges]
    return "@(" + " or ".join(parts) + ")"


def emit_module(m: n.ModuleDecl) -> str:
    out = []
    if m.ports:
        out.append(f"module {m.name}(")
        for i, p in enumerate(m.ports):
            storage = " reg" if p.kind == "reg" else " wire"
            signed = " signed" if p.signed else ""
            rng = _fmt_range(p.msb, p.lsb)
            comma = "," if i < len(m.ports) - 1 else ""
            out.append(f"{_INDENT}{p.direction}{storage}{signed} {rng}{p.name}{comma}")
        out.append(");")
    else:
        out.append(f"module {m.name};")
    for p in m.params:
        kw = "localparam" if p.local else "parameter"
        out.append(f"{_INDENT}{kw} {p.name} = {emit_expr(p.value)};")
    for d in m.nets:
        signed = "signed " if d.signed else ""
        rng = _fmt_range(d.msb, d.lsb)
        if d.init is not None:
            out.append(f"{_INDENT}{d.kind} {signed}{rng}{d.name} = {emit_expr(d.init)};")
        else:
            out.append(f"{_INDENT}{d.kind} {signed}{rng}{d.name};")
    for item in m.items:
        if isinstance(item, n.ContinuousAssign):
            out.append(f"{_INDENT}assign {emit_expr(item.lhs)} = {emit_expr(item.rhs)};")
        elif isinstance(item, n.ProcBlock):
            head = f"{_INDENT}always {_emit_sensitivity(item.sensitivity)}"
            if isinstance(item.body, n.Block):
                out.append(head + " begin")
                for c in item.body.stmts:
                    _emit_stmt(c, out, 2)
                out.append(_INDENT + "end")
            else:
                out.append(head)
                _emit_stmt(item.body, out, 2)
        elif isinstance(item, n.InstanceDecl):
            conns = []
            for pname, e in item.connections:
                conns.append(f".{pname}({emit_expr(e)})" if pname else emit_expr(e))
            out.append(f"{_INDENT}{item.module_name} {item.instance_name}({', '.join(conns)});")
        else:
            raise TypeError(f"cannot emit item {item!r}")
    out.append("endmodule")
    return "\n".join(out) + "\n"


def emit(unit) -> str:
    """Emit a SourceUnit (or a single ModuleDecl) as formatted Verilog."""
    if isinstance(unit, n.ModuleDecl):
        return emit_module(unit)
    return "\n".join(emit_module(m) for m in unit.modules)
