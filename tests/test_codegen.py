"""The generated trial loop against the interpreter.

`codegen` compiles one function per oracle check that steps both designs
with every signal in a local; `equiv` keeps the closure interpreter
(`sim.SimInstance`) as its probe and as the reference. For every trial,
both must report the same first divergence, or none.
"""

from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rtlmorph import bitblast, codegen, equiv, morph, nodes as n
from rtlmorph.elaborate import elaborate
from rtlmorph.equiv import NEGATIVE_KINDS, EquivConfig, negative_control
from rtlmorph.errors import NoApplicableSite, WidthMismatch
from rtlmorph.evalexpr import annotate, evaluate
from rtlmorph.parser import parse

from test_rewrite_stability import MUTANT_PAIRS
from test_semantics import SIGNALS, _exprs, _module_for

BUDGET = dict(trials=2, cycles=200)


def trials_agree(a, b, cfg, label=None):
    """Every trial of a randomized check, on both loops; returns the
    divergences (None per trial that has none)."""
    ea, eb = equiv._design(a), equiv._design(b)
    plan, offsets = equiv._trials_plan(ea, eb, cfg)
    run = codegen.trial_loop(ea, eb, plan, offsets)
    assert run is not None
    found = []
    for trial in range(cfg.trials):
        seed = equiv._mix(cfg.seed, "trial", trial)
        want = equiv._trial_interpreted(ea, eb, plan, offsets, seed,
                                        trial == 0, cfg.cycles)
        got = run(Random(seed).getrandbits, *plan.storm(trial == 0))
        assert repr(got) == repr(want), (label, trial, got, want)
        found.append(got)
    return found


@settings(max_examples=300)
@given(expr=_exprs(3), seed=st.integers(0, 2**32 - 1))
def test_generated_expressions_match_reference(expr, seed):
    # the source codegen emits for an expression, evaluated with each
    # signal's local bound, against the tree-walking reference
    try:
        em = elaborate(n.SourceUnit((_module_for(expr),))).top_module
    except WidthMismatch:
        assume(False)
    rhs = em.folded.items[0].rhs
    design = codegen._Design(em, "a", {}, codegen._Source())
    rng = Random(seed)
    env = {s: rng.getrandbits(w) for s, w in SIGNALS.items()}
    got = eval(design.expr(rhs), {}, {design.local[s]: v for s, v in env.items()})
    widths = {}
    annotate(expr, lambda s: SIGNALS.get(s), widths, context=32)
    assert got == evaluate(expr, env, widths), (expr, env)


def corpus_pairs(corpus):
    """(label, original, other, cfg) for the mutants at seeds 0-1 with
    declared and shortened offsets, and every control kind at seeds 0-4."""
    for design, strategy in MUTANT_PAIRS:
        for seed in range(2):
            mutant, record = morph.mutate(corpus[design], strategy, seed=seed)
            offsets = record.output_offsets
            runs = [offsets]
            if any(offsets.values()):
                runs.append({o: max(k - 1, 0) for o, k in offsets.items()})
            for offs in runs:
                yield ((design, strategy, seed, tuple(sorted(offs.items()))),
                       corpus[design], mutant,
                       EquivConfig(seed=seed, offsets=offs,
                                   clock_map=record.clock_map, **BUDGET))
    for design in sorted(corpus):
        for kind in NEGATIVE_KINDS:
            for seed in range(5):
                try:
                    broken = negative_control(corpus[design], kind, seed=seed)
                except NoApplicableSite:
                    break
                yield ((design, kind, seed), corpus[design], broken,
                       EquivConfig(seed=seed, **BUDGET))


def test_corpus_trials_match_the_interpreter(corpus_modules):
    corpus = {d: m for d, (_, m) in corpus_modules.items()}
    diverged = agreed = 0
    for label, a, b, cfg in corpus_pairs(corpus):
        found = trials_agree(n.SourceUnit((a,)), n.SourceUnit((b,)), cfg, label)
        diverged += any(found)
        agreed += not any(found)
    # both outcomes are exercised
    assert diverged > 100 and agreed > 40, (diverged, agreed)


COUNTER = """
module c(input wire clk, input wire reset, input wire [3:0] d,
         output reg [3:0] q);
    always @(negedge clk or posedge reset)
        if (reset) q <= 4'd0;
        else q <= q + {body};
endmodule
"""

BITS = """
module bits(input wire clk, input wire reset, input wire [3:0] d,
            input wire [2:0] sel, output reg [7:0] q);
    always @(posedge clk or posedge reset)
        if (reset) q <= 8'd0;
        else begin
            q[3:0] <= d;
            q[sel] <= {bit};
            q[7] <= ~q[7];
        end
endmodule
"""

BLOCKING = """
module blk(input wire clk, input wire [3:0] a, input wire [3:0] b,
           output reg [3:0] q, output reg [3:0] m);
    reg [3:0] t;
    always @(posedge clk) begin
        t = a + b;
        q <= t {op} q;
        m = a;
        m[0] <= ~b[0];
    end
endmodule
"""

LATCH = """
module lat(input wire en, input wire [3:0] d, output wire [3:0] y);
    reg [3:0] l;
    always @(*) if ({cond}) l = d;
    assign y = l;
endmodule
"""

SPLIT = """
module two(input wire clk, input wire reset, input wire [3:0] d,
           output reg [3:0] q, output reg [3:0] r);
    always @(posedge clk or posedge reset)
        if (reset) q <= 4'd0; else q <= d;
    always @(posedge clk or posedge reset)
        if (reset) r <= 4'd0; else r <= q;
endmodule
"""

SPLIT_MAPPED = """
module two(input wire clk, input wire clk2, input wire reset,
           input wire [3:0] d, output reg [3:0] q, output reg [3:0] r);
    always @(posedge clk or posedge reset)
        if (reset) q <= 4'd0; else q <= d;
    always @(posedge clk2 or posedge reset)
        if (reset) r <= 4'd0; else r <= {src};
endmodule
"""

CLOCK_READ = """
module cr(input wire clk, input wire reset, input wire [3:0] d,
          output wire [3:0] y);
    reg [3:0] q;
    always @(negedge clk or posedge reset)
        if (reset) q <= 4'd0; else q <= q + d;
    assign y = clk ? q : {low};
endmodule
"""

CHAIN = """
module t(input wire a, output wire [1:0] y);
    wire [1:0] x;
    assign x[1:0] = {body};
    assign y = x;
endmodule
"""


@pytest.mark.parametrize("gold, other, clock_map, same", [
    (COUNTER.format(body="d"), COUNTER.format(body="d"), {}, True),
    (COUNTER.format(body="d"), COUNTER.format(body="(d | 4'd1)"), {}, False),
    (BITS.format(bit="d[0]"), BITS.format(bit="d[0]"), {}, True),
    (BITS.format(bit="d[0]"), BITS.format(bit="d[1]"), {}, False),
    (BLOCKING.format(op="+"), BLOCKING.format(op="+"), {}, True),
    (BLOCKING.format(op="+"), BLOCKING.format(op="^"), {}, False),
    (LATCH.format(cond="en"), LATCH.format(cond="en"), {}, True),
    (LATCH.format(cond="en"), LATCH.format(cond="en & d[0]"), {}, False),
    (SPLIT, SPLIT_MAPPED.format(src="q"), {"clk2": "clk"}, True),
    (SPLIT, SPLIT_MAPPED.format(src="d"), {"clk2": "clk"}, False),
    (CLOCK_READ.format(low="4'd0"), CLOCK_READ.format(low="4'd1"), {}, True),
    (CLOCK_READ.format(low="4'd0"), CLOCK_READ.format(low="d"), {}, True),
    (CHAIN.format(body="{x[0], a}"), CHAIN.format(body="{a, a}"), {}, True),
    (CHAIN.format(body="{x[0], a}"), CHAIN.format(body="{~a, a}"), {}, False),
])
def test_hand_written_trials_match_the_interpreter(gold, other, clock_map, same):
    a, b = parse(gold), parse(other)
    found = trials_agree(a, b, EquivConfig(clock_map=clock_map, **BUDGET))
    assert (not any(found)) == same


def test_part_select_chain_keeps_the_fixpoint():
    em = equiv._design(parse(CHAIN.format(body="{x[0], a}"))).top_module
    assert codegen._Design(em, "a", {}, codegen._Source()).fixpoint
    em = equiv._design(parse(CHAIN.format(body="{a, a}"))).top_module
    assert not codegen._Design(em, "a", {}, codegen._Source()).fixpoint


def test_probe_detections_compile_nothing(monkeypatch, corpus_modules):
    built = []
    for module, name in ((codegen, "trial_loop"), (bitblast, "Miter")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real:
                            built.append(real.__name__) or real(*args))
    comb = "module m(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);" \
        " assign y = {body}; endmodule"
    for a, b in ((parse(COUNTER.format(body="d")),
                  parse(COUNTER.format(body="(d | 4'd1)"))),
                 (parse(comb.format(body="a & b")), parse(comb.format(body="a | b")))):
        verdict = equiv.check_equivalence(a, b, EquivConfig())
        assert verdict.status == "inequivalent"
        assert verdict.counterexample.cycle < equiv.PROBE
        assert verdict.counterexample.replay(a, b)
    assert built == []
    # a pair that agrees through the probe is compiled once per check
    counter = corpus_modules["counter"][1]
    assert equiv.check_equivalence(counter, counter, EquivConfig(**BUDGET)).is_equivalent
    gold = parse(comb.format(body="a & b"))
    assert equiv.check_equivalence(gold, parse(comb.format(body="b & a"))).is_equivalent
    assert built == ["trial_loop", "Miter"]


DEEP = """
module deep(input wire clk, input wire [7:0] d, output reg [7:0] q);
    always @(posedge clk) q <= {body};
endmodule
"""


def test_pairs_the_generator_declines_stay_on_the_interpreter(monkeypatch):
    # nesting beyond Python's parser, and a clock-map input narrower than
    # the clock it copies
    deep = parse(DEEP.format(body="d" + " + 8'd1" * 120))
    reg = ("module n(input wire clk, {extra}input wire [3:0] d, output reg [3:0] q);"
           " always @(posedge clk) q <= d; {more}endmodule")
    narrow = parse(reg.format(extra="input wire k, ",
                              more="reg [3:0] u; always @(posedge k) u <= d; "))
    ran = []
    real = equiv._trial_interpreted
    monkeypatch.setattr(equiv, "_trial_interpreted",
                        lambda *args: ran.append(args[-1]) or real(*args))
    for a, b, cfg in ((deep, deep, {}),
                      (parse(reg.format(extra="", more="")), narrow, {"k": "d"})):
        ea, eb = equiv._design(a), equiv._design(b)
        plan, offsets = equiv._trials_plan(ea, eb, EquivConfig(clock_map=cfg, **BUDGET))
        assert codegen.trial_loop(ea, eb, plan, offsets) is None
        ran.clear()
        verdict = equiv.check_seq_random(a, b, EquivConfig(clock_map=cfg, **BUDGET))
        assert verdict.is_equivalent
        assert ran == [equiv.PROBE] + [BUDGET["cycles"]] * BUDGET["trials"]


def test_nonblocking_assign_in_a_combinational_block_fails_as_in_the_interpreter():
    # the interpreter fails when the assign runs, here only on d == 200,
    # which the probe does not draw
    m = parse("module m(input wire clk, input wire [7:0] d, output reg [7:0] q);"
              " always @(*) if (d == 8'd200) q <= d; else q = 8'd0; endmodule")
    ea = equiv._design(m)
    plan, offsets = equiv._trials_plan(ea, ea, EquivConfig(**BUDGET))
    assert codegen.trial_loop(ea, ea, plan, offsets) is None
    assert equiv._trial_interpreted(ea, ea, plan, offsets, equiv._mix(0, "trial", 0),
                                    True, equiv.PROBE) is None
    with pytest.raises(AttributeError):
        equiv.check_seq_random(m, m, EquivConfig(**BUDGET))
