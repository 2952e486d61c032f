import os

import pytest

from rtlmorph import nodes as n
from rtlmorph import parse
from rtlmorph.equiv import (
    EquivConfig, check_comb_exhaustive, check_equivalence, check_seq_random,
    emit_formal_miter, negative_control, run_formal_miter,
)
from rtlmorph.errors import NoApplicableSite, PortMismatch, TooWide
from rtlmorph.morph.clock import split_domain
from rtlmorph.morph.logic import mutate_logic

from conftest import design_text


def test_worked_pair_equivalent_after_8_rows():
    orig = parse(design_text("logic_pair"))
    mut, _ = mutate_logic(orig.modules[0])
    v = check_comb_exhaustive(orig, n.SourceUnit((mut,)))
    assert v.is_equivalent
    assert v.evidence["vectors"] == 8


def test_and_vs_or_counterexample():
    a = parse("module t(input wire a, input wire b, output wire y); assign y = a & b; endmodule")
    b = parse("module t(input wire a, input wire b, output wire y); assign y = a | b; endmodule")
    v = check_comb_exhaustive(a, b)
    assert v.status == "inequivalent"
    assert v.evidence["inputs"] == {"a": 1, "b": 0}
    assert v.counterexample.replay(a, b)


def test_counterexample_export(tmp_path):
    a = parse("module t(input wire a, output wire y); assign y = a; endmodule")
    b = parse("module t(input wire a, output wire y); assign y = ~a; endmodule")
    v = check_comb_exhaustive(a, b)
    paths = v.counterexample.export(str(tmp_path), widths={"a": 1, "y": 1})
    for p in paths.values():
        assert os.path.exists(p)
    assert "signal y" in open(paths["note"]).read()


def test_too_wide():
    a = parse("module t(input wire [20:0] x, output wire y); assign y = x[0]; endmodule")
    with pytest.raises(TooWide):
        check_comb_exhaustive(a, a)


def test_port_mismatch():
    a = parse("module t(input wire a, output wire y); assign y = a; endmodule")
    b = parse("module t(input wire a, output wire z); assign z = a; endmodule")
    with pytest.raises(PortMismatch):
        check_comb_exhaustive(a, b)


def test_self_equivalence_sequential():
    counter = parse(design_text("counter"))
    v = check_seq_random(counter, counter, EquivConfig(trials=2, cycles=200))
    assert v.is_equivalent
    assert v.evidence["trials"] == 2
    assert "seeds" in v.evidence


def test_empty_budget_inconclusive():
    counter = parse(design_text("counter"))
    v = check_seq_random(counter, counter, EquivConfig(trials=0, cycles=0))
    assert v.status == "inconclusive"


def test_clock_mutant_offsets():
    pipe = parse(design_text("pipe_xor"))
    mutant, record = split_domain(pipe.modules[0], "stage_a", k=2)
    munit = n.SourceUnit((mutant,))
    ok = check_seq_random(pipe, munit, EquivConfig(
        trials=4, cycles=300, offsets=record.output_offsets,
        clock_map=record.clock_map))
    assert ok.is_equivalent
    for k in (0, 1):
        bad = check_seq_random(pipe, munit, EquivConfig(
            trials=4, cycles=300, offsets={"dout": k},
            clock_map=record.clock_map))
        assert bad.status == "inequivalent", k
        assert bad.counterexample.replay(pipe, munit), k


def test_auto_mode_picks_exhaustive_for_comb():
    a = parse(design_text("mux2"))
    v = check_equivalence(a, a)
    assert v.evidence.get("mode") == "exhaustive"


def test_seq_counterexample_replays():
    counter = parse(design_text("counter"))
    broken = negative_control(counter.modules[0], "constant_perturb", seed=1)
    bunit = n.SourceUnit((broken,))
    v = check_seq_random(counter, bunit, EquivConfig(trials=4, cycles=500))
    assert v.status == "inequivalent"
    assert v.counterexample.replay(counter, bunit)


def test_spec_counter_wrap_constant_example():
    """Wrap at 14 instead of 15: the oracle must notice."""
    counter = parse(design_text("counter"))
    altered = design_text("counter").replace("4'b1111", "4'b1110")
    v = check_seq_random(counter, parse(altered), EquivConfig(trials=4, cycles=500))
    assert v.status == "inequivalent"


def test_invert_reset_guard_detected_immediately():
    counter = parse(design_text("counter"))
    found = False
    for seed in range(20):
        broken = negative_control(counter.modules[0], "invert_condition", seed=seed)
        text_if = [s for item in broken.items
                   for s in n.walk_stmts(item.body) if isinstance(s, n.If)]
        top = text_if[0]
        if isinstance(top.cond, n.Unary) and top.cond.op == "!" and \
                n.refs_in(top.cond) == {"reset"}:
            found = True
            v = check_seq_random(counter, n.SourceUnit((broken,)),
                                 EquivConfig(trials=1, cycles=100))
            assert v.status == "inequivalent"
            assert v.evidence["cycle"] <= 8
    assert found, "no seed inverted the reset guard"


def test_temporal_off_by_one_traffic():
    traffic = parse(design_text("traffic_light"))
    broken = negative_control(traffic.modules[0], "temporal_off_by_one", seed=0)
    v = check_seq_random(traffic, n.SourceUnit((broken,)),
                         EquivConfig(trials=2, cycles=200))
    assert v.status == "inequivalent"
    # one full light cycle is 16 clock cycles
    assert v.evidence["cycle"] <= 4 + 16


def test_negative_control_shares_untouched_subtrees(corpus_modules):
    # a rewrite rebuilds only the path to what it changed
    original = corpus_modules["traffic_light"][1]
    for kind in ("invert_condition", "constant_perturb"):
        broken = negative_control(original, kind, seed=0)
        kept = [x for x, y in zip(original.items, broken.items) if x is y]
        assert broken != original and kept, kind
    same = n.map_module(original, lambda s: s, lambda e: e)
    assert all(x is y for x, y in zip(same.items, original.items))
    assert same.ports is original.ports and same.nets is original.nets


def test_wrong_var_update_applicability():
    logic = parse(design_text("logic_pair"))
    broken = negative_control(logic.modules[0], "wrong_var_update", seed=5)
    v = check_comb_exhaustive(logic, n.SourceUnit((broken,)))
    assert v.status == "inequivalent"
    counter = parse(design_text("counter"))
    with pytest.raises(NoApplicableSite):
        negative_control(counter.modules[0], "wrong_var_update", seed=0)


def test_offset_monotonicity():
    """Equivalent at the declared offset implies inequivalent below it."""
    pipe = parse(design_text("gray_tail"))
    for k in (1, 2):
        mutant, record = split_domain(pipe.modules[0], "stage_a", k=k)
        munit = n.SourceUnit((mutant,))
        cfg = lambda off: EquivConfig(trials=2, cycles=300, offsets={"dout": off},
                                      clock_map=record.clock_map)
        assert check_seq_random(pipe, munit, cfg(k)).is_equivalent
        for smaller in range(k):
            assert check_seq_random(pipe, munit, cfg(smaller)).status == "inequivalent"


def test_miter_bundle(tmp_path):
    orig = parse(design_text("logic_pair"))
    mut, _ = mutate_logic(orig.modules[0])
    bundle = emit_formal_miter(orig, n.SourceUnit((mut,)), outdir=str(tmp_path))
    text = open(bundle["miter"]).read()
    unit = parse(text)  # the bundle must be valid in our own subset
    assert {m.name for m in unit.modules} == \
        {"logic_pair_gold", "logic_pair_gate", "miter"}
    assert os.path.exists(bundle["comb_script"])
    assert os.path.exists(bundle["seq_script"])
    assert "sat" in open(bundle["comb_script"]).read()


def test_miter_offsets_add_shift_registers(tmp_path):
    pipe = parse(design_text("pipe_xor"))
    mutant, record = split_domain(pipe.modules[0], "stage_a", k=2)
    bundle = emit_formal_miter(pipe, n.SourceUnit((mutant,)),
                               offsets=record.output_offsets,
                               clock_map=record.clock_map,
                               outdir=str(tmp_path))
    text = open(bundle["miter"]).read()
    assert "dout_dly1" in text and "dout_dly2" in text
    parse(text)


def test_run_formal_reports_missing_tool(tmp_path):
    orig = parse(design_text("logic_pair"))
    bundle = emit_formal_miter(orig, orig, outdir=str(tmp_path))
    v = run_formal_miter(bundle, tool="definitely-not-a-tool-7f3a")
    assert v.status == "inconclusive"
    assert "not found" in v.evidence["reason"]


@pytest.mark.skipif(not __import__("shutil").which("yosys"),
                    reason="external synthesis tool not installed")
def test_run_formal_with_tool(tmp_path):
    orig = parse(design_text("logic_pair"))
    mut, _ = mutate_logic(orig.modules[0])
    bundle = emit_formal_miter(orig, n.SourceUnit((mut,)), outdir=str(tmp_path))
    assert run_formal_miter(bundle, mode="comb").is_equivalent
    broken = parse(design_text("logic_pair").replace("(a & b)", "(a | b)"))
    bundle2 = emit_formal_miter(orig, broken, outdir=str(tmp_path / "bad"))
    assert run_formal_miter(bundle2, mode="comb").status == "inequivalent"
