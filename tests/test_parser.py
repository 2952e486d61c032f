import pytest
from hypothesis import given, strategies as st

from rtlmorph import nodes as n
from rtlmorph import parse, emit
from rtlmorph.errors import (
    ResolutionError, UnsupportedConstruct, VerilogSyntaxError,
)

from conftest import design_text

COUNTER = design_text("counter")


def test_counter_structure():
    unit = parse(COUNTER)
    assert len(unit.modules) == 1
    m = unit.modules[0]
    assert m.name == "counter"
    assert [(p.name, p.direction, p.kind) for p in m.ports] == [
        ("clk", "input", "wire"),
        ("reset", "input", "wire"),
        ("count", "output", "reg"),
    ]
    count = m.port("count")
    assert count.msb == n.Literal(3) and count.lsb == n.Literal(0)
    assert len(m.items) == 1
    block = m.items[0]
    assert isinstance(block, n.ProcBlock)
    assert block.sensitivity == n.EdgeSensitivity((("pos", "clk"), ("pos", "reset")))


def test_empty_module():
    unit = parse("module m;\nendmodule\n")
    m = unit.modules[0]
    assert m.ports == () and m.items == () and m.nets == ()


def test_wire_with_init_is_kept_on_the_decl():
    m = parse("module t(input wire a, input wire b, output wire y);\n"
              "wire term1 = ~(~a | ~b);\nassign y = term1;\nendmodule").modules[0]
    d = m.net("term1")
    assert d.init is not None
    assert d.init == n.Unary("~", n.Binary("|", n.Unary("~", n.Ref("a")),
                                           n.Unary("~", n.Ref("b"))))


def test_non_ansi_ports():
    text = """module t(a, b, y);
    input a;
    input b;
    output [3:0] y;
    reg [3:0] y;
    always @(*) y = {3'b000, a & b};
endmodule
"""
    m = parse(text).modules[0]
    assert [p.name for p in m.ports] == ["a", "b", "y"]
    y = m.port("y")
    assert y.kind == "reg" and y.msb == n.Literal(3)
    assert m.net("y") is None  # merged into the port


def test_define_substitution():
    text = """`define WIDTH 4
module t(input wire [`WIDTH-1:0] x, output wire [`WIDTH-1:0] y);
    assign y = x;
endmodule
"""
    m = parse(text).modules[0]
    assert m.port("x").msb == n.Binary("-", n.Literal(4), n.Literal(1))


def test_case_with_multiple_labels_and_default():
    text = """module t(input wire [1:0] s, output reg y);
    always @(*) begin
        case (s)
            2'b00, 2'b01: y = 1'b0;
            default: y = 1'b1;
        endcase
    end
endmodule
"""
    m = parse(text).modules[0]
    case = m.items[0].body.stmts[0]
    assert isinstance(case, n.Case)
    assert len(case.arms) == 1 and len(case.arms[0].labels) == 2
    assert case.default is not None


def test_operator_precedence():
    m = parse("module t(input wire a, input wire b, input wire c, output wire y);"
              "assign y = a | b & c; endmodule").modules[0]
    rhs = m.items[0].rhs
    assert rhs == n.Binary("|", n.Ref("a"), n.Binary("&", n.Ref("b"), n.Ref("c")))


def test_nonblocking_vs_le_disambiguation():
    text = """module t(input wire clk, input wire [3:0] x, output reg y);
    always @(posedge clk)
        y <= x <= 4'd7;
endmodule
"""
    m = parse(text).modules[0]
    nba = m.items[0].body
    assert isinstance(nba, n.NonblockingAssign)
    assert isinstance(nba.rhs, n.Binary) and nba.rhs.op == "<="


@pytest.mark.parametrize("text, exc", [
    ("module t(input wire a output wire y); endmodule", VerilogSyntaxError),
    ("module t(input wire a, output wire y); assign y = ; endmodule", VerilogSyntaxError),
    ("module t; initial begin end endmodule", UnsupportedConstruct),
    ("module t(input wire a, output wire y); assign y = 1'bx; endmodule", UnsupportedConstruct),
    ("module t(input wire a); reg r = 1'b0; endmodule", UnsupportedConstruct),
])
def test_rejections(text, exc):
    with pytest.raises(exc):
        parse(text)


def test_syntax_error_carries_position():
    with pytest.raises(VerilogSyntaxError) as err:
        parse("module t(input wire a,\n output wire y)\nendmodule")
    assert err.value.line == 3


def test_resolution_error_via_elaborate():
    from rtlmorph import elaborate
    unit = parse("module t(input wire a, output wire y); assign y = nope; endmodule")
    with pytest.raises(ResolutionError):
        elaborate(unit)


def test_instance_parsing_named_and_positional():
    text = """module leaf(input wire a, output wire y);
    assign y = a;
endmodule
module top(input wire a, output wire y);
    leaf u1(.a(a), .y(y));
endmodule
"""
    unit = parse(text)
    inst = unit.module("top").items[0]
    assert isinstance(inst, n.InstanceDecl)
    assert inst.connections == (("a", n.Ref("a")), ("y", n.Ref("y")))


# --- randomized round-trip ---------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d"])


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            _names.map(n.Ref),
            st.integers(0, 15).map(lambda v: n.Literal(v, 4, base="b")),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        _names.map(n.Ref),
        st.integers(0, 15).map(lambda v: n.Literal(v, 4, base="d")),
        st.tuples(st.sampled_from(["&", "|", "^", "+", "-", "*", "==", "!=",
                                   "<", "<=", ">", ">=", "<<", ">>", "&&",
                                   "||"]), sub, sub)
        .map(lambda t: n.Binary(*t)),
        st.tuples(st.sampled_from(["~", "!", "-", "&", "|", "^"]), sub)
        .map(lambda t: n.Unary(*t)),
        st.tuples(sub, sub, sub).map(lambda t: n.Ternary(*t)),
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: n.Concat(tuple(ps))),
    )


@given(rhs=_exprs(3))
def test_roundtrip_random_expressions(rhs):
    module = n.ModuleDecl(
        "t",
        ports=tuple(n.PortDecl(x, "input", n.Literal(3), n.Literal(0))
                    for x in ("a", "b", "c", "d"))
        + (n.PortDecl("y", "output", n.Literal(7), n.Literal(0)),),
        items=(n.ContinuousAssign(n.Ref("y"), rhs),),
    )
    text = emit(n.SourceUnit((module,)))
    assert parse(text).modules[0] == module


def test_corpus_roundtrip(corpus_modules):
    for design_id, (entry, module) in corpus_modules.items():
        unit = entry.load()
        assert parse(emit(unit)) == unit, design_id


def test_mutant_roundtrip(all_mutants):
    from rtlmorph.nodes import SourceUnit
    assert len(all_mutants) >= 20
    for key, (mutant, _) in all_mutants.items():
        unit = SourceUnit((mutant,))
        assert parse(emit(unit)) == unit, key
