"""Recursive-descent parser producing the typed AST.

Supported shape: module declarations with ANSI or non-ANSI ports,
wire/reg/parameter declarations, continuous assigns, always blocks with
edge or combinational sensitivity, begin/if/case statements, the documented
expression operator set, and named module instances. Everything else is
rejected with UnsupportedConstruct rather than silently mangled.
"""

from . import nodes as n
from . import ops
from .errors import UnsupportedConstruct, VerilogSyntaxError
from .lexer import tokenize

# binary operators grouped by binding level, loosest first; all are
# left-associative
_BINARY_LEVELS = [
    {op for op, row in ops.BINARY.items() if row.level == level}
    for level in sorted({row.level for row in ops.BINARY.values()})
]
_UNSUPPORTED_KW = {
    "integer", "initial", "generate", "endgenerate", "function",
    "endfunction", "task", "endtask", "for", "while",
}


class _Parser:
    def __init__(self, tokens, source_name):
        self.toks = tokens
        self.i = 0
        self.source_name = source_name

    # -- token plumbing --

    @property
    def cur(self):
        return self.toks[self.i]

    def at(self, kind, text=None):
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind, text=None):
        if self.at(kind, text):
            t = self.cur
            self.i += 1
            return t
        return None

    def expect(self, kind, text=None):
        t = self.accept(kind, text)
        if t is None:
            want = text or kind
            raise VerilogSyntaxError(self.cur.line, self.cur.col, want, self.cur.text or "end of input")
        return t

    def pos(self):
        return (self.cur.line, self.cur.col)

    def _reject_unsupported(self):
        t = self.cur
        if t.kind == "kw" and t.text in _UNSUPPORTED_KW:
            raise UnsupportedConstruct(t.text, t.line, t.col)

    # -- grammar --

    def source_unit(self):
        modules = []
        while not self.at("eof"):
            self._reject_unsupported()
            modules.append(self.module())
        return n.SourceUnit(tuple(modules), source_name=self.source_name)

    def module(self):
        pos = self.pos()
        self.expect("kw", "module")
        name = self.expect("id").text
        ports, port_order = [], []
        nets, params, items = [], [], []
        pending_dirs = {}  # non-ANSI: name -> PortDecl filled later

        if self.accept("("):
            if not self.at(")"):
                first = True
                while first or self.accept(","):
                    first = False
                    if self.at("kw", "input") or self.at("kw", "output") or self.at("kw", "inout"):
                        ports.append(self.ansi_port())
                    else:
                        t = self.expect("id")
                        port_order.append(t.text)
            self.expect(")")
        self.expect(";")

        while not self.at("kw", "endmodule"):
            self._reject_unsupported()
            t = self.cur
            if t.kind == "kw" and t.text in ("input", "output", "inout"):
                for p in self.port_item_decl():
                    if p.name not in port_order:
                        raise VerilogSyntaxError(p.pos[0], p.pos[1], f"{p.name} in module port list")
                    pending_dirs[p.name] = p
            elif t.kind == "kw" and t.text in ("wire", "reg"):
                nets.extend(self.net_decl())
            elif t.kind == "kw" and t.text in ("parameter", "localparam"):
                params.extend(self.param_decl())
            elif t.kind == "kw" and t.text == "assign":
                items.append(self.continuous_assign())
            elif t.kind == "kw" and t.text == "always":
                items.append(self.always_block())
            elif t.kind == "id":
                items.append(self.instance())
            else:
                raise VerilogSyntaxError(t.line, t.col, "a module item", t.text)
        self.expect("kw", "endmodule")

        if port_order:
            ordered = []
            for pname in port_order:
                if pname not in pending_dirs:
                    raise VerilogSyntaxError(pos[0], pos[1], f"direction declaration for port {pname}")
                ordered.append(pending_dirs[pname])
            ports = ordered + ports
        # non-ANSI: a wire/reg declaration of a port name retypes the port
        port_names = {p.name for p in ports}
        redecls = {d.name: d for d in nets if d.name in port_names}
        if redecls:
            merged = []
            for p in ports:
                d = redecls.get(p.name)
                if d is None:
                    merged.append(p)
                    continue
                default_range = p.msb == n.Literal(0) and p.lsb == n.Literal(0)
                merged.append(n.PortDecl(
                    p.name, p.direction,
                    d.msb if default_range else p.msb,
                    d.lsb if default_range else p.lsb,
                    p.signed or d.signed, d.kind, pos=p.pos))
            ports = merged
            nets = [d for d in nets if d.name not in port_names]
        return n.ModuleDecl(name, tuple(ports), tuple(params), tuple(nets), tuple(items), pos=pos)

    def ansi_port(self):
        pos = self.pos()
        direction = self.expect("kw").text
        kind = "wire"
        if self.at("kw", "wire") or self.at("kw", "reg"):
            kind = self.expect("kw").text
        signed = bool(self.accept("kw", "signed"))
        msb, lsb = self.opt_range()
        name = self.expect("id").text
        return n.PortDecl(name, direction, msb, lsb, signed, kind, pos=pos)

    def port_item_decl(self):
        pos = self.pos()
        direction = self.expect("kw").text
        kind = "wire"
        if self.at("kw", "wire") or self.at("kw", "reg"):
            kind = self.expect("kw").text
        signed = bool(self.accept("kw", "signed"))
        msb, lsb = self.opt_range()
        out = [n.PortDecl(self.expect("id").text, direction, msb, lsb, signed, kind, pos=pos)]
        while self.accept(","):
            out.append(n.PortDecl(self.expect("id").text, direction, msb, lsb, signed, kind, pos=pos))
        self.expect(";")
        return out

    def opt_range(self):
        if not self.accept("["):
            return n.Literal(0), n.Literal(0)
        msb = self.expr()
        self.expect(":")
        lsb = self.expr()
        self.expect("]")
        return msb, lsb

    def net_decl(self):
        pos = self.pos()
        kind = self.expect("kw").text
        signed = bool(self.accept("kw", "signed"))
        msb, lsb = self.opt_range()
        decls = []
        first = True
        while first or self.accept(","):
            first = False
            name = self.expect("id").text
            init = None
            if self.accept("="):
                init = self.expr()
                if kind == "reg":
                    raise UnsupportedConstruct("reg initializer", pos[0], pos[1])
            decls.append(n.NetDecl(name, kind, msb, lsb, signed, init, pos=pos))
        self.expect(";")
        return decls

    def param_decl(self):
        pos = self.pos()
        local = self.expect("kw").text == "localparam"
        if self.accept("["):  # ranged parameters: fold the range away
            self.expr()
            self.expect(":")
            self.expr()
            self.expect("]")
        out = []
        first = True
        while first or self.accept(","):
            first = False
            name = self.expect("id").text
            self.expect("=")
            out.append(n.ParamDecl(name, self.expr(), local, pos=pos))
        self.expect(";")
        return out

    def continuous_assign(self):
        pos = self.pos()
        self.expect("kw", "assign")
        lhs = self.lvalue()
        self.expect("=")
        rhs = self.expr()
        self.expect(";")
        return n.ContinuousAssign(lhs, rhs, pos=pos)

    def always_block(self):
        pos = self.pos()
        self.expect("kw", "always")
        self.expect("@")
        star = False
        if self.accept("*"):
            star = True
            sens = n.CombSensitivity(None)
        else:
            self.expect("(")
            if self.accept("*"):
                sens = n.CombSensitivity(None)
                star = True
            elif self.at("kw", "posedge") or self.at("kw", "negedge"):
                edges = [self.edge_item()]
                while self.accept("kw", "or") or self.accept(","):
                    edges.append(self.edge_item())
                sens = n.EdgeSensitivity(tuple(edges))
            else:
                sigs = [self.expect("id").text]
                while self.accept("kw", "or") or self.accept(","):
                    sigs.append(self.expect("id").text)
                sens = n.CombSensitivity(tuple(sigs))
            self.expect(")")
        del star
        return n.ProcBlock(sens, self.stmt(), pos=pos)

    def edge_item(self):
        edge = "pos" if self.accept("kw", "posedge") else None
        if edge is None:
            self.expect("kw", "negedge")
            edge = "neg"
        return (edge, self.expect("id").text)

    def instance(self):
        pos = self.pos()
        module_name = self.expect("id").text
        instance_name = self.expect("id").text
        self.expect("(")
        conns = []
        if not self.at(")"):
            first = True
            while first or self.accept(","):
                first = False
                if self.accept("."):
                    pname = self.expect("id").text
                    self.expect("(")
                    conns.append((pname, self.expr()))
                    self.expect(")")
                else:
                    conns.append((None, self.expr()))
        self.expect(")")
        self.expect(";")
        if any(p is None for p, _ in conns) and any(p is not None for p, _ in conns):
            raise VerilogSyntaxError(pos[0], pos[1], "all-named or all-positional connections")
        return n.InstanceDecl(module_name, instance_name, tuple(conns), pos=pos)

    # -- statements --

    def stmt(self):
        self._reject_unsupported()
        pos = self.pos()
        if self.accept("kw", "begin"):
            stmts = []
            while not self.at("kw", "end"):
                stmts.append(self.stmt())
            self.expect("kw", "end")
            return n.Block(tuple(stmts), pos=pos)
        if self.accept("kw", "if"):
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then_stmt = self.stmt()
            else_stmt = self.stmt() if self.accept("kw", "else") else None
            return n.If(cond, then_stmt, else_stmt, pos=pos)
        if self.accept("kw", "case"):
            self.expect("(")
            subject = self.expr()
            self.expect(")")
            arms, default = [], None
            while not self.at("kw", "endcase"):
                if self.accept("kw", "default"):
                    self.accept(":")
                    if default is not None:
                        raise VerilogSyntaxError(pos[0], pos[1], "a single default arm")
                    default = self.stmt()
                    continue
                labels = [self.expr()]
                while self.accept(","):
                    labels.append(self.expr())
                self.expect(":")
                arms.append(n.CaseArm(tuple(labels), self.stmt()))
            self.expect("kw", "endcase")
            return n.Case(subject, tuple(arms), default, pos=pos)
        lhs = self.lvalue()
        if self.accept("<="):
            rhs = self.expr()
            self.expect(";")
            return n.NonblockingAssign(lhs, rhs, pos=pos)
        self.expect("=")
        rhs = self.expr()
        self.expect(";")
        return n.BlockingAssign(lhs, rhs, pos=pos)

    def lvalue(self):
        pos = self.pos()
        name = self.expect("id").text
        e = n.Ref(name, pos=pos)
        if self.accept("["):
            first = self.expr()
            if self.accept(":"):
                second = self.expr()
                self.expect("]")
                return n.Slice(e, first, second, pos=pos)
            self.expect("]")
            return n.Index(e, first, pos=pos)
        return e

    # -- expressions --

    def expr(self):
        return self.ternary()

    def ternary(self):
        pos = self.pos()
        cond = self.binary(0)
        if self.accept("?"):
            then_e = self.expr()
            self.expect(":")
            else_e = self.ternary()
            return n.Ternary(cond, then_e, else_e, pos=pos)
        return cond

    def binary(self, level):
        if level >= len(_BINARY_LEVELS):
            return self.unary()
        level_ops = _BINARY_LEVELS[level]
        pos = self.pos()
        lhs = self.binary(level + 1)
        while self.cur.kind in level_ops:
            op = self.expect(self.cur.kind).text
            rhs = self.binary(level + 1)
            lhs = n.Binary(op, lhs, rhs, pos=pos)
        return lhs

    def unary(self):
        pos = self.pos()
        if self.cur.kind in ops.UNARY:
            op = self.expect(self.cur.kind).text
            return n.Unary(op, self.unary(), pos=pos)
        return self.postfix()

    def postfix(self):
        e = self.primary()
        pos = self.pos()
        while self.at("["):
            self.expect("[")
            first = self.expr()
            if self.accept(":"):
                second = self.expr()
                self.expect("]")
                e = n.Slice(e, first, second, pos=pos)
            else:
                self.expect("]")
                e = n.Index(e, first, pos=pos)
        return e

    def primary(self):
        t = self.cur
        if t.kind == "num":
            self.i += 1
            value, width, base = t.value
            return n.Literal(value, width, base=base, pos=(t.line, t.col))
        if t.kind == "id":
            self.i += 1
            return n.Ref(t.text, pos=(t.line, t.col))
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.accept("{"):
            pos = (t.line, t.col)
            parts = [self.expr()]
            while self.accept(","):
                parts.append(self.expr())
            self.expect("}")
            return n.Concat(tuple(parts), pos=pos)
        if t.kind == "kw" and t.text in _UNSUPPORTED_KW:
            raise UnsupportedConstruct(t.text, t.line, t.col)
        raise VerilogSyntaxError(t.line, t.col, "an expression", t.text or "end of input")


def parse(text: str, source_name: str = "<memory>") -> n.SourceUnit:
    return _Parser(tokenize(text), source_name).source_unit()


def parse_file(path) -> n.SourceUnit:
    with open(path, "r", encoding="utf-8") as f:
        return parse(f.read(), source_name=str(path))
