"""Typed AST for the supported synthesizable Verilog subset.

All nodes are frozen dataclasses: transforms build new trees instead of
mutating, which makes sharing across threads safe. Equality is structural
and deliberately ignores source positions, literal bases, and labels so
that ``parse(emit(x)) == x`` holds for any tree the toolkit produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union


def _tup(seq):
    return tuple(seq) if not isinstance(seq, tuple) else seq


@dataclass(frozen=True)
class Node:
    pass


# --- expressions ----------------------------------------------------------

@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class Literal(Expr):
    value: int
    width: Optional[int] = None  # None: unsized, adapts to context
    signed: bool = False
    base: str = field(default="d", compare=False)  # display base only
    pos: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("literals are nonnegative; use unary minus")
        if self.width is not None and self.width < 1:
            raise ValueError("literal width must be >= 1")


@dataclass(frozen=True)
class Ref(Expr):
    name: str
    pos: Optional[tuple] = field(default=None, compare=False)


UNARY_OPS = ("~", "!", "-", "&", "|", "^")
BINARY_OPS = (
    "&", "|", "^", "+", "-", "*", "==", "!=", "<", "<=", ">", ">=",
    "<<", ">>", "&&", "||",
)


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then_expr: Expr
    else_expr: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class Index(Expr):
    subject: Expr
    index: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class Slice(Expr):
    subject: Expr
    msb: Expr
    lsb: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple
    pos: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", _tup(self.parts))


# --- statements -----------------------------------------------------------

@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple
    pos: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stmts", _tup(self.stmts))


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_stmt: Stmt
    else_stmt: Optional[Stmt] = None
    label: Optional[str] = field(default=None, compare=False)
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class CaseArm(Node):
    labels: tuple  # constant exprs
    body: Stmt

    def __post_init__(self):
        object.__setattr__(self, "labels", _tup(self.labels))


@dataclass(frozen=True)
class Case(Stmt):
    subject: Expr
    arms: tuple
    default: Optional[Stmt] = None
    pos: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arms", _tup(self.arms))


@dataclass(frozen=True)
class NonblockingAssign(Stmt):
    lhs: Expr  # Ref or constant Index/Slice
    rhs: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class BlockingAssign(Stmt):
    lhs: Expr
    rhs: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


# --- module items ---------------------------------------------------------

@dataclass(frozen=True)
class EdgeSensitivity(Node):
    edges: tuple  # of (edge: "pos"|"neg", signal name)

    def __post_init__(self):
        object.__setattr__(self, "edges", _tup(self.edges))


@dataclass(frozen=True)
class CombSensitivity(Node):
    signals: Optional[tuple] = None  # None means @(*)

    def __post_init__(self):
        if self.signals is not None:
            object.__setattr__(self, "signals", _tup(self.signals))


@dataclass(frozen=True)
class ModuleItem(Node):
    pass


@dataclass(frozen=True)
class ContinuousAssign(ModuleItem):
    lhs: Expr
    rhs: Expr
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class ProcBlock(ModuleItem):
    sensitivity: Union[EdgeSensitivity, CombSensitivity]
    body: Stmt
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class InstanceDecl(ModuleItem):
    module_name: str
    instance_name: str
    connections: tuple  # of (port name or None for positional, Expr)
    pos: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "connections", _tup(self.connections))


# --- declarations ---------------------------------------------------------

def make_range(width: int):
    """(msb, lsb) pair for a zero-based vector of the given width."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return (Literal(width - 1), Literal(0))


@dataclass(frozen=True)
class PortDecl(Node):
    name: str
    direction: str  # "input" | "output" | "inout"
    msb: Expr = field(default_factory=lambda: Literal(0))
    lsb: Expr = field(default_factory=lambda: Literal(0))
    signed: bool = False
    kind: str = "wire"  # storage: "wire" | "reg"
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class NetDecl(Node):
    name: str
    kind: str  # "wire" | "reg"
    msb: Expr = field(default_factory=lambda: Literal(0))
    lsb: Expr = field(default_factory=lambda: Literal(0))
    signed: bool = False
    init: Optional[Expr] = None  # wire-with-init acts as a continuous assign
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class ParamDecl(Node):
    name: str
    value: Expr
    local: bool = False
    pos: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class ModuleDecl(Node):
    name: str
    ports: tuple
    params: tuple = ()
    nets: tuple = ()
    items: tuple = ()
    pos: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ports", _tup(self.ports))
        object.__setattr__(self, "params", _tup(self.params))
        object.__setattr__(self, "nets", _tup(self.nets))
        object.__setattr__(self, "items", _tup(self.items))

    def port(self, name):
        for p in self.ports:
            if p.name == name:
                return p
        return None

    def net(self, name):
        for n in self.nets:
            if n.name == name:
                return n
        return None

    def declared_names(self):
        names = set()
        names.update(p.name for p in self.ports)
        names.update(n.name for n in self.nets)
        names.update(p.name for p in self.params)
        return names


@dataclass(frozen=True)
class SourceUnit(Node):
    modules: tuple
    source_name: str = field(default="<memory>", compare=False)
    top: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modules", _tup(self.modules))
        seen = set()
        for m in self.modules:
            if m.name in seen:
                raise ValueError(f"duplicate module name: {m.name}")
            seen.add(m.name)

    def module(self, name):
        for m in self.modules:
            if m.name == name:
                return m
        return None


# --- traversal helpers ----------------------------------------------------

def expr_children(e: Expr):
    if isinstance(e, Unary):
        return (e.operand,)
    if isinstance(e, Binary):
        return (e.lhs, e.rhs)
    if isinstance(e, Ternary):
        return (e.cond, e.then_expr, e.else_expr)
    if isinstance(e, Index):
        return (e.subject, e.index)
    if isinstance(e, Slice):
        return (e.subject, e.msb, e.lsb)
    if isinstance(e, Concat):
        return e.parts
    return ()


def walk_expr(e: Expr):
    yield e
    for c in expr_children(e):
        yield from walk_expr(c)


def walk_stmts(s: Stmt):
    if s is None:
        return
    yield s
    if isinstance(s, Block):
        for c in s.stmts:
            yield from walk_stmts(c)
    elif isinstance(s, If):
        yield from walk_stmts(s.then_stmt)
        yield from walk_stmts(s.else_stmt)
    elif isinstance(s, Case):
        for arm in s.arms:
            yield from walk_stmts(arm.body)
        yield from walk_stmts(s.default)


def stmt_exprs(s: Stmt):
    """Expressions appearing directly in a statement (not recursing into substatements)."""
    if isinstance(s, If):
        return (s.cond,)
    if isinstance(s, Case):
        out = [s.subject]
        for arm in s.arms:
            out.extend(arm.labels)
        return tuple(out)
    if isinstance(s, (NonblockingAssign, BlockingAssign)):
        return (s.lhs, s.rhs)
    return ()


def module_exprs(m: ModuleDecl):
    """Every expression in a module, including decl ranges and inits."""
    for p in m.params:
        yield p.value
    for p in m.ports:
        yield p.msb
        yield p.lsb
    for n in m.nets:
        yield n.msb
        yield n.lsb
        if n.init is not None:
            yield n.init
    for item in m.items:
        if isinstance(item, ContinuousAssign):
            yield item.lhs
            yield item.rhs
        elif isinstance(item, ProcBlock):
            for s in walk_stmts(item.body):
                yield from stmt_exprs(s)
        elif isinstance(item, InstanceDecl):
            for _, e in item.connections:
                yield e


def refs_in(e: Expr):
    return {n.name for n in walk_expr(e) if isinstance(n, Ref)}


def map_expr(e: Expr, fn):
    """Rebuild an expression bottom-up, applying fn to every node."""
    if isinstance(e, Unary):
        e = replace(e, operand=map_expr(e.operand, fn))
    elif isinstance(e, Binary):
        e = replace(e, lhs=map_expr(e.lhs, fn), rhs=map_expr(e.rhs, fn))
    elif isinstance(e, Ternary):
        e = replace(e, cond=map_expr(e.cond, fn),
                    then_expr=map_expr(e.then_expr, fn),
                    else_expr=map_expr(e.else_expr, fn))
    elif isinstance(e, Index):
        e = replace(e, subject=map_expr(e.subject, fn), index=map_expr(e.index, fn))
    elif isinstance(e, Slice):
        e = replace(e, subject=map_expr(e.subject, fn),
                    msb=map_expr(e.msb, fn), lsb=map_expr(e.lsb, fn))
    elif isinstance(e, Concat):
        e = replace(e, parts=tuple(map_expr(p, fn) for p in e.parts))
    return fn(e)


def _map_opt(e, fn):
    return map_expr(e, fn) if e is not None and fn is not None else e


def _with(node, **fields):
    """replace(), but node itself when every field is the object it holds."""
    for k, v in fields.items():
        if getattr(node, k) is not v:
            return replace(node, **fields)
    return node


def map_stmt(s: Stmt, stmt_fn=None, expr_fn=None):
    """Rebuild a statement tree pre-order.

    stmt_fn sees each statement before its children; a result that is a
    different object replaces the whole subtree, which is not visited
    further. Otherwise containers are rebuilt and, when expr_fn is given,
    each expression the statement holds directly goes through
    map_expr(expr_fn). Visit order: an If's cond, then branch, else
    branch; a Case's subject, then per arm its labels and its body, then
    the default; an assignment's lhs, then its rhs. With expr_fn=None,
    expressions are kept as they are.
    """
    if s is None:
        return None
    if stmt_fn is not None:
        out = stmt_fn(s)
        if out is not s:
            return out
    if isinstance(s, Block):
        return replace(s, stmts=tuple(map_stmt(c, stmt_fn, expr_fn) for c in s.stmts))
    if isinstance(s, If):
        return replace(s, cond=_map_opt(s.cond, expr_fn),
                       then_stmt=map_stmt(s.then_stmt, stmt_fn, expr_fn),
                       else_stmt=map_stmt(s.else_stmt, stmt_fn, expr_fn))
    if isinstance(s, Case):
        return replace(s, subject=_map_opt(s.subject, expr_fn),
                       arms=tuple(CaseArm(tuple(_map_opt(l, expr_fn) for l in a.labels),
                                          map_stmt(a.body, stmt_fn, expr_fn))
                                  for a in s.arms),
                       default=map_stmt(s.default, stmt_fn, expr_fn))
    if isinstance(s, (NonblockingAssign, BlockingAssign)):
        return _with(s, lhs=_map_opt(s.lhs, expr_fn), rhs=_map_opt(s.rhs, expr_fn))
    return s


def map_module(m: ModuleDecl, stmt_fn=None, expr_fn=None):
    """Rebuild a module through map_stmt and map_expr.

    Visit order: each port's msb and lsb; each net's msb, lsb and init;
    then the items in order: a continuous assign's lhs then rhs, a process
    body through map_stmt, an instance's connections. Parameter values are
    left as they are. Negative controls number their sites in this order,
    so changing it changes which site a control seed picks.
    """
    def e(x):
        return _map_opt(x, expr_fn)

    ports = tuple(_with(p, msb=e(p.msb), lsb=e(p.lsb)) for p in m.ports)
    nets = tuple(_with(d, msb=e(d.msb), lsb=e(d.lsb), init=e(d.init)) for d in m.nets)
    items = []
    for item in m.items:
        if isinstance(item, ContinuousAssign):
            item = _with(item, lhs=e(item.lhs), rhs=e(item.rhs))
        elif isinstance(item, ProcBlock):
            item = replace(item, body=map_stmt(item.body, stmt_fn, expr_fn))
        elif isinstance(item, InstanceDecl):
            item = replace(item, connections=tuple(
                (name, e(x)) for name, x in item.connections))
        items.append(item)
    return replace(m, ports=ports, nets=nets, items=tuple(items))


def lvalue_base(lhs: Expr) -> str:
    """Base signal name of an lvalue (identifier or constant bit/part select)."""
    if isinstance(lhs, Ref):
        return lhs.name
    if isinstance(lhs, (Index, Slice)):
        return lvalue_base(lhs.subject)
    raise ValueError(f"not an lvalue: {lhs!r}")


def assigned_names(s: Stmt):
    return {lvalue_base(a.lhs) for a in walk_stmts(s)
            if isinstance(a, (NonblockingAssign, BlockingAssign))}


def count_nodes(m: ModuleDecl) -> int:
    """Structural size: every expression node plus every statement node."""
    n = 0
    for e in module_exprs(m):
        n += sum(1 for _ in walk_expr(e))
    for item in m.items:
        if isinstance(item, ProcBlock):
            n += sum(1 for _ in walk_stmts(item.body))
    n += len(m.ports) + len(m.nets) + len(m.params) + len(m.items)
    return n
