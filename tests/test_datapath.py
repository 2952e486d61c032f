from random import Random

import pytest

from rtlmorph import nodes as n
from rtlmorph import parse, emit, elaborate, instantiate, BranchCounters
from rtlmorph.errors import NoEligibleBlock, NoMuxFound
from rtlmorph.evalexpr import annotate, evaluate
from rtlmorph.morph.datapath import (
    DatapathMutationConfig, TAUTOLOGY_WIDTH_CAP, cascade_mux, find_mux_sites,
    gen_opaque_predicate, mutate_datapath, wrap_in_dead_branch,
)

from conftest import design_text
from test_sim import clocked_stimulus


def _exhaustive_true(pred, width_by_name):
    """Independent tautology oracle: annotate once, enumerate all values."""
    names = sorted(width_by_name)
    total = sum(width_by_name.values())
    widths = {}
    annotate(pred.expr, lambda s: width_by_name.get(s), widths)
    for v in range(1 << total):
        env = {}
        off = 0
        for s in names:
            w = width_by_name[s]
            env[s] = (v >> off) & ((1 << w) - 1)
            off += w
        if evaluate(pred.expr, env, widths) != 1:
            return False
    return True


def test_predicate_over_4bit_counter():
    decls = [n.NetDecl("count", "reg", n.Literal(3), n.Literal(0))]
    for seed in range(12):
        pred = gen_opaque_predicate(decls, seed=seed)
        assert pred.support == ("count",)
        assert _exhaustive_true(pred, {"count": 4})


def test_predicate_1bit_self_compare():
    decls = [n.NetDecl("s", "wire")]
    seen = set()
    for seed in range(40):
        pred = gen_opaque_predicate(decls, seed=seed)
        seen.add(pred.template_id)
        assert _exhaustive_true(pred, {"s": 1})
    assert "self-compare" in seen  # (s == s) appears among the templates


def test_predicate_wide_signal_slices():
    decls = [n.NetDecl("bus", "reg", n.Literal(23), n.Literal(0))]
    pred = gen_opaque_predicate(decls, seed=1)
    slices = [x for x in n.walk_expr(pred.expr) if isinstance(x, n.Slice)]
    assert slices, "expected a sub-slice fallback on a 24-bit signal"
    assert slices[0].msb == n.Literal(TAUTOLOGY_WIDTH_CAP - 1)
    assert _exhaustive_true(pred, {"bus": TAUTOLOGY_WIDTH_CAP})


def test_wrap_preserves_counter_traces():
    unit = parse(design_text("counter"))
    module = unit.modules[0]
    decls = [p for p in module.ports if p.name == "count"] or [module.port("count")]
    pred = gen_opaque_predicate([module.port("count")], seed=3)
    wrapped = wrap_in_dead_branch(module, pred, seed=3)
    stim = clocked_stimulus(1000)
    t0 = instantiate(elaborate(unit)).run(stim)
    t1 = instantiate(elaborate(n.SourceUnit((wrapped,)))).run(stim)
    assert t0.steps == t1.steps


def test_wrap_empty_module():
    module = parse("module m;\nendmodule").modules[0]
    pred = gen_opaque_predicate([n.NetDecl("x", "wire")], seed=0)
    with pytest.raises(NoEligibleBlock):
        wrap_in_dead_branch(module, pred, seed=0)


def test_double_wrap_still_equivalent_and_deeper():
    unit = parse(design_text("counter"))
    module = unit.modules[0]
    pred1 = gen_opaque_predicate([module.port("count")], seed=1)
    once = wrap_in_dead_branch(module, pred1, seed=1)
    pred2 = gen_opaque_predicate([module.port("count")], seed=2)
    twice = wrap_in_dead_branch(once, pred2, seed=2)

    def if_depth(stmt, acc=0):
        best = acc
        for s in n.walk_stmts(stmt):
            if isinstance(s, n.If) and s is not stmt:
                best = max(best, if_depth(s.then_stmt, acc + 1),
                           if_depth(s.else_stmt, acc + 1) if s.else_stmt else 0)
        return best

    stim = clocked_stimulus(500)
    t0 = instantiate(elaborate(unit)).run(stim)
    t2 = instantiate(elaborate(n.SourceUnit((twice,)))).run(stim)
    assert t0.steps == t2.steps
    from rtlmorph.nodes import count_nodes
    assert count_nodes(twice) > count_nodes(once) > count_nodes(module)


def test_cascade_shape():
    unit = parse(design_text("mux2"))
    module = unit.modules[0]
    site = find_mux_sites(module)[0]
    out = cascade_mux(module, site)
    stage = [d for d in out.nets if d.init is not None][0]
    assert stage.init == n.Ternary(n.Ref("sel"), n.Ref("a"), n.Ref("b"))
    final = out.items[0].rhs
    assert final == n.Ternary(n.Ref("sel"), n.Ref(stage.name), n.Ref("b"))


def test_cascade_identical_inputs():
    unit = parse("module t(input wire s, input wire [3:0] a, output wire [3:0] y);"
                 "assign y = s ? a : a; endmodule")
    module = unit.modules[0]
    out = cascade_mux(module, find_mux_sites(module)[0])
    io, im = instantiate(elaborate(unit)), instantiate(elaborate(n.SourceUnit((out,))))
    for s in (0, 1):
        for a in range(16):
            assert io.eval({"s": s, "a": a}) == im.eval({"s": s, "a": a})


def test_cascade_exhaustive_1bit():
    unit = parse("module t(input wire s, input wire a, input wire b, "
                 "output wire y); assign y = s ? a : b; endmodule")
    module = unit.modules[0]
    out = cascade_mux(module, find_mux_sites(module)[0])
    io, im = instantiate(elaborate(unit)), instantiate(elaborate(n.SourceUnit((out,))))
    for v in range(8):
        ins = {"s": v & 1, "a": (v >> 1) & 1, "b": (v >> 2) & 1}
        assert io.eval(ins) == im.eval(ins)


def test_cascade_no_mux():
    module = parse(design_text("logic_pair")).modules[0]
    assert find_mux_sites(module) == []
    from rtlmorph.morph.datapath import MuxSite
    fake = MuxSite("assign y", n.Ref("a"), (n.Ref("b"), n.Ref("c")), n.Ref("y"))
    with pytest.raises(NoMuxFound):
        cascade_mux(module, fake)


def test_mutate_datapath_no_mux_still_wraps():
    module = parse(design_text("alu_small")).modules[0]
    assert find_mux_sites(module) == []
    mutant, record = mutate_datapath(module, DatapathMutationConfig(seed=4))
    assert any(s.startswith("dead-branch") for s in record.sites)
    assert not any(s.startswith("cascade") for s in record.sites)


def test_mutate_datapath_deterministic():
    module = parse(design_text("priority_sel")).modules[0]
    m1, r1 = mutate_datapath(module, DatapathMutationConfig(seed=6))
    m2, r2 = mutate_datapath(module, DatapathMutationConfig(seed=6))
    assert emit(m1) == emit(m2)
    assert r1.to_json() == r2.to_json()


def test_dead_arm_never_executes():
    module = parse(design_text("alu_small")).modules[0]
    mutant, _ = mutate_datapath(module, DatapathMutationConfig(seed=5))
    hooks = BranchCounters()
    inst = instantiate(elaborate(n.SourceUnit((mutant,))), hooks=hooks)
    rng = Random(0)
    for _ in range(1000):
        inst.eval({"op": rng.randrange(4), "a": rng.randrange(256),
                   "b": rng.randrange(256)})
    assert hooks.counts, "the dead-branch if should be instrumented"
    # every settle runs the block once, so `then` fires at least once per
    # eval; the dead arm must never fire at all
    for label, (then_c, else_c) in hooks.counts.items():
        assert then_c >= 1000 and else_c == 0, label


def test_cascade_preserves_both_selector_polarities():
    unit = parse(design_text("mux2"))
    module = unit.modules[0]
    out = cascade_mux(module, find_mux_sites(module)[0])
    io = instantiate(elaborate(unit))
    im = instantiate(elaborate(n.SourceUnit((out,))))
    rng = Random(9)
    for sel in (0, 1):
        for _ in range(64):
            ins = {"sel": sel, "a": rng.randrange(16), "b": rng.randrange(16)}
            assert io.eval(ins) == im.eval(ins)
