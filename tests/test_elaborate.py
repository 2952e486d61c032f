import json
from dataclasses import replace

import pytest

from rtlmorph import nodes as n
from rtlmorph import parse, elaborate, instantiate, lint_synthesizable
from rtlmorph.errors import CombinationalLoop, MultipleDrivers, WidthMismatch
from rtlmorph.evalexpr import MAX_WIDTH

from conftest import design_text


def test_counter_clock_reset_and_width():
    d = elaborate(parse(design_text("counter")))
    em = d.top_module
    assert em.clocks() == ["clk"]
    assert em.async_resets() == ["reset"]
    assert em.signals["count"].width == 4


def test_double_drive():
    unit = parse("module t(input wire a, input wire b, output wire y);\n"
                 "assign y = a;\nassign y = b;\nendmodule")
    with pytest.raises(MultipleDrivers):
        elaborate(unit)


def test_dual_clock_chain_two_domains(tmp_path):
    text = """module chain(
    input wire clk1,
    input wire clk2,
    input wire [7:0] din,
    output wire [7:0] dout
);
    reg [7:0] regA;
    reg [7:0] sync_reg1;
    reg [7:0] sync_reg2;
    reg [7:0] regB;
    always @(posedge clk1) begin
        regA <= din;
        sync_reg1 <= regA + 8'd1;
    end
    always @(posedge clk2) begin
        sync_reg2 <= sync_reg1;
        regB <= sync_reg2;
    end
    assign dout = regB;
endmodule
"""
    d = elaborate(parse(text))
    em = d.top_module
    clocked = [b for b in em.blocks if b.kind == "clocked"]
    assert len(clocked) == 2
    assert sorted(em.clocks()) == ["clk1", "clk2"]


def test_every_expression_gets_a_width(corpus_modules):
    for design_id, (entry, _) in corpus_modules.items():
        d = elaborate(entry.load(), top=entry.top)
        em = d.top_module
        for e in n.module_exprs(em.folded):
            for node in n.walk_expr(e):
                assert id(node) in em.widths, (design_id, node)


def test_shared_subtree_gets_a_width_per_place():
    # the same `a + b` object in a 5-bit and a 4-bit context: widths are
    # keyed by id(node), so elaboration must give each place its own node
    unit = parse("module t(input wire [3:0] a, input wire [3:0] b,\n"
                 "output wire [4:0] y, output wire [3:0] z);\n"
                 "assign y = a + b;\nassign z = a + b;\nendmodule")
    m = unit.modules[0]
    shared = m.items[0].rhs
    m = replace(m, items=(m.items[0], replace(m.items[1], rhs=shared)))
    inst = instantiate(elaborate(m))
    assert inst.eval({"a": 15, "b": 1}) == {"y": 16, "z": 0}


def test_parameters_folded_to_constants():
    d = elaborate(parse(design_text("traffic_light")))
    em = d.top_module
    assert em.params["HWY_GREEN"] == (0, 2)
    for e in n.module_exprs(em.folded):
        for node in n.walk_expr(e):
            assert not (isinstance(node, n.Ref) and node.name in em.params)


def test_parameter_folding_computes_only_its_operator():
    # folding 4 + -1 must not also try 4 << -1, a negative shift count
    unit = parse("module t(input wire a, output wire [3:0] y);\n"
                 "localparam K = 4 + -1;\n"
                 "assign y = K; endmodule")
    em = elaborate(unit).top_module
    assert em.params["K"][0] == 3


def test_width_mismatch_on_truncating_assign():
    unit = parse("module t(input wire [7:0] a, output wire [3:0] y);\n"
                 "assign y = a; endmodule")
    with pytest.raises(WidthMismatch):
        elaborate(unit)


def test_signal_cap():
    unit = parse(f"module t(input wire [{MAX_WIDTH}:0] a, "
                 f"output wire [{MAX_WIDTH}:0] y); assign y = a; endmodule")
    with pytest.raises(WidthMismatch):
        elaborate(unit)


def test_combinational_loop():
    unit = parse("module t(input wire a, output wire y);\n"
                 "wire u;\nwire v;\nassign u = v | a;\nassign v = u;\n"
                 "assign y = v;\nendmodule")
    with pytest.raises(CombinationalLoop):
        elaborate(unit)


def test_lint_counter_clean():
    assert lint_synthesizable(elaborate(parse(design_text("counter")))) == []


def test_lint_corpus_clean(manifest):
    for entry in manifest.entries:
        assert entry.flags == (), entry.design_id


def test_inferred_latch():
    unit = parse("module t(input wire s, input wire a, output reg y);\n"
                 "always @(*) begin\nif (s)\ny = a;\nend\nendmodule")
    diags = lint_synthesizable(elaborate(unit))
    assert any(d.code == "inferred-latch" and "y" in d.message for d in diags)


def test_blocking_in_clocked():
    unit = parse("module t(input wire clk, input wire a, output reg y);\n"
                 "always @(posedge clk)\ny = a;\nendmodule")
    diags = lint_synthesizable(elaborate(unit))
    assert any(d.code == "blocking-in-clocked" for d in diags)


def test_nonblocking_in_comb():
    unit = parse("module t(input wire a, output reg y);\n"
                 "always @(*)\ny <= a;\nendmodule")
    diags = lint_synthesizable(elaborate(unit))
    assert any(d.code == "nonblocking-in-comb" for d in diags)


def test_incomplete_sensitivity():
    unit = parse("module t(input wire a, input wire b, output reg y);\n"
                 "always @(a)\ny = a & b;\nendmodule")
    diags = lint_synthesizable(elaborate(unit))
    assert any(d.code == "incomplete-sensitivity" and "b" in d.message
               for d in diags)


def test_diagnostics_machine_readable():
    unit = parse("module t(input wire s, input wire a, output reg y);\n"
                 "always @(*) begin\nif (s)\ny = a;\nend\nendmodule")
    diags = lint_synthesizable(elaborate(unit))
    assert diags
    for d in diags:
        rec = json.loads(d.to_json())
        assert set(rec) == {"severity", "code", "line", "col", "message"}


def test_mutants_lint_clean(all_mutants):
    for key, (mutant, _) in all_mutants.items():
        diags = lint_synthesizable(elaborate(n.SourceUnit((mutant,))))
        assert diags == [], (key, diags)
