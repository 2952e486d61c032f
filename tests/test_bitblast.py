"""The bit-level lowering and its truth tables against the word-level
semantics: each operator's bit template against its value in `ops`,
lowered expressions against `evalexpr.evaluate`, and the exhaustive
check's truth-table verdict against the interpreter sweep it replaces.
"""

import hashlib
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rtlmorph import bitblast, equiv, morph, nodes as n, ops
from rtlmorph.elaborate import elaborate
from rtlmorph.equiv import NEGATIVE_KINDS, negative_control
from rtlmorph.errors import NoApplicableSite, WidthMismatch
from rtlmorph.evalexpr import annotate, evaluate
from rtlmorph.morph.datapath import check_tautology
from rtlmorph.parser import parse
from rtlmorph.sim import instantiate

from test_codegen import LATCH, CHAIN, corpus_pairs
from test_rewrite_stability import MUTANT_PAIRS
from test_semantics import SIGNALS, _exprs, _module_for

SWEEP_CAP = 1 << 12  # vectors the interpreter reference sweeps per pair
# computed when the lowering was written; identical under PYTHONHASHSEED 0-3
NETLIST_PINNED = "b61725927056b0362020a0448db43ff10dc021c9c3f398c00d6a8043b8248f17"


def _bits(value, w):
    return [(value >> i) & 1 for i in range(w)]


def _word(values):
    return sum(v << i for i, v in enumerate(values))


def _through_netlist(template, *operands):
    """A template's result on variables of a fresh netlist, read back on
    one-vector tables, and on constants, which fold while it is built."""
    net = bitblast.Netlist()
    variables = [[net.input() for _ in range(w)] for _, w in operands]
    out = template(net, *variables)
    tables = {lit >> 1: bit for vs, (value, w) in zip(variables, operands)
              for lit, bit in zip(vs, _bits(value, w))}
    folded = template(bitblast.Netlist(), *(_bits(v, w) for v, w in operands))
    assert all(b in (0, 1) for b in folded)
    return _word(net.evaluate(out, tables, 1)), _word(folded)


@settings(max_examples=500)
@given(op=st.sampled_from(sorted(ops.BINARY)), w=st.integers(1, 10),
       rw=st.integers(1, 6), data=st.data())
def test_binary_templates_match_word_values(op, w, rw, data):
    row = ops.BINARY[op]
    # operand widths as the simulator hands them: the node width for
    # arithmetic and shifted operands, one common width for a comparison
    lw = w
    if row.rule in (ops.ARITH, ops.COMPARE):
        rw = w
    elif row.rule == ops.LOGICAL:
        lw = data.draw(st.integers(1, 10))
    out_w = w if row.rule in (ops.ARITH, ops.SHIFT) else 1
    l = data.draw(st.integers(0, (1 << lw) - 1))
    r = data.draw(st.integers(0, (1 << rw) - 1))
    want = row.fold(l, r, (1 << out_w) - 1, out_w)
    assert _through_netlist(row.bits, (l, lw), (r, rw)) == (want, want)


@settings(max_examples=300)
@given(op=st.sampled_from(sorted(ops.UNARY)), w=st.integers(1, 12), data=st.data())
def test_unary_templates_match_word_values(op, w, data):
    row = ops.UNARY[op]
    x = data.draw(st.integers(0, (1 << w) - 1))
    out_w = w if row.rule == ops.ARITH else 1
    want = row.fold(x, (1 << out_w) - 1, (1 << w) - 1)
    assert _through_netlist(row.bits, (x, w)) == (want, want)


@settings(max_examples=300)
@given(expr=_exprs(3), seed=st.integers(0, 2**32 - 1))
def test_lowered_expressions_match_reference(expr, seed):
    # one truth table per input bit over 64 random input assignments
    try:
        em = elaborate(n.SourceUnit((_module_for(expr),))).top_module
    except WidthMismatch:
        assume(False)
    net = bitblast.Netlist()
    inputs = {s: [net.input() for _ in range(w)] for s, w in SIGNALS.items()}
    y = bitblast.lower_module(net, em, inputs)["y"]
    rng = Random(seed)
    envs = [{s: rng.getrandbits(w) for s, w in SIGNALS.items()} for _ in range(64)]
    tables = {lit >> 1: sum(((env[s] >> i) & 1) << j for j, env in enumerate(envs))
              for s, lits in inputs.items() for i, lit in enumerate(lits)}
    columns = net.evaluate(y, tables, (1 << len(envs)) - 1)
    widths = {}
    annotate(expr, lambda s: SIGNALS.get(s), widths, context=32)
    for j, env in enumerate(envs):
        got = _word((t >> j) & 1 for t in columns)
        assert got == evaluate(expr, env, widths), (expr, env)


def _interpreted(a, b, monkeypatch):
    """check_comb_exhaustive with every lowering declined, so the
    interpreter sweeps every vector; a pair that holds state stays
    marked as such."""
    real = bitblast.Miter

    def decline(*args):
        real(*args)
        raise bitblast.Declined("interpreter reference")

    with monkeypatch.context() as m:
        m.setattr(bitblast, "Miter", decline)
        return equiv.check_comb_exhaustive(a, b)


def _fields(verdict):
    cex = verdict.counterexample
    if cex is None:
        return verdict.status, verdict.evidence
    return (verdict.status, verdict.evidence, cex.stimulus_a.steps,
            cex.stimulus_b.steps, cex.cycle, cex.step_a, cex.step_b,
            cex.signal, cex.expected, cex.actual)


def verdicts_agree(a, b, monkeypatch):
    """The truth-table verdict equals the interpreter's; past SWEEP_CAP
    vectors the interpreter only checks that none diverges earlier."""
    got = equiv.check_comb_exhaustive(a, b)
    ea, eb = equiv._design(a), equiv._design(b)
    ins, outs = equiv._check_ports(ea.top_module, eb.top_module, {})
    if 1 << sum(w for _, w in ins) <= SWEEP_CAP or not got.is_equivalent and \
            got.counterexample.cycle < SWEEP_CAP:
        assert _fields(got) == _fields(_interpreted(a, b, monkeypatch))
    else:
        plan = equiv._Vectors(tuple(ins))
        assert equiv._sweep_interpreted(ea, eb, plan, [o for o, _ in outs],
                                        SWEEP_CAP) is None
        assert got.is_equivalent or got.counterexample.replay(a, b)
    return got


def _exhaustive(module):
    em = equiv._design(module).top_module
    return not any(b.kind == "clocked" for b in em.blocks) and \
        sum(s.width for s in em.inputs) <= 20


def test_corpus_verdicts_match_the_interpreter(corpus_modules, monkeypatch):
    corpus = {d: m for d, (_, m) in corpus_modules.items()}
    statuses = []
    for label, a, b, _ in corpus_pairs(corpus):
        if _exhaustive(a) and _exhaustive(b):
            verdict = verdicts_agree(n.SourceUnit((a,)), n.SourceUnit((b,)), monkeypatch)
            statuses.append((verdict.status, verdict.evidence.get("vectors_tried", 0)
                             > equiv.PROBE))
    # both verdicts, and divergences found on the tables past the probe
    assert len(statuses) == 69
    assert {("equivalent", False), ("inequivalent", False),
            ("inequivalent", True)} <= set(statuses)


def test_no_corpus_design_is_declined(corpus_modules):
    # comb originals, their mutants at seeds 0-3 and every control kind
    corpus = {d: m for d, (_, m) in corpus_modules.items() if _exhaustive(m)}
    modules = [(d, m) for d, m in sorted(corpus.items())]
    for design, strategy in MUTANT_PAIRS:
        if design in corpus:
            modules += [(design, morph.mutate(corpus[design], strategy, seed=seed)[0])
                        for seed in range(4)]
    for design in sorted(corpus):
        for kind in NEGATIVE_KINDS:
            for seed in range(30):
                try:
                    modules.append((design, negative_control(corpus[design], kind, seed)))
                except NoApplicableSite:
                    break
    assert len(modules) > 300
    for design, m in modules:
        em = elaborate(n.SourceUnit((m,))).top_module
        net = bitblast.Netlist()
        bitblast.lower_module(net, em, {s.name: [net.input() for _ in range(s.width)]
                                        for s in em.inputs})


def test_a_structurally_equal_mutant_folds_away(corpus_modules):
    # the datapath mutant's opaque predicate folds to true and its dead arm
    # to nothing, so every output's miter is constant 0
    alu = corpus_modules["alu_small"][1]
    mutant, _ = morph.mutate(alu, "datapath", seed=0)
    ea, eb = equiv._design(alu), equiv._design(mutant)
    miter = bitblast.Miter(ea, eb, [(s.name, s.width) for s in ea.top_module.inputs],
                           ["result"])
    assert miter.diffs == [("result", 0)]


WIDE_LATCH = """
module wl(input wire en, input wire [7:0] d, output wire [7:0] y);
    reg [7:0] l;
    always @(*) if ({cond}) l = d;
    assign y = l;
endmodule
"""


@pytest.mark.parametrize("gold, other, vector", [
    (LATCH.format(cond="en"), LATCH.format(cond="en & d[0]"), 5),
    # d == 200 with en set is vector 401, past the probe
    (WIDE_LATCH.format(cond="en"), WIDE_LATCH.format(cond="en & (d != 8'd200)"), 401),
])
def test_latch_counterexamples_replay_from_vector_zero(gold, other, vector):
    a, b = parse(gold), parse(other)
    ea = equiv._design(a)
    net = bitblast.Netlist()
    with pytest.raises(bitblast.Declined) as declined:
        bitblast.lower_module(net, ea.top_module, {
            s.name: [net.input() for _ in range(s.width)] for s in ea.top_module.inputs})
    assert declined.value.stateful
    verdict = equiv.check_equivalence(a, b)
    cex = verdict.counterexample
    assert verdict.evidence["vectors_tried"] == vector + 1
    assert cex.step_a == cex.step_b == vector
    assert len(cex.stimulus_a) == vector + 1
    assert cex.replay(a, b)


@pytest.mark.parametrize("gold, other, same", [
    (LATCH.format(cond="en"), LATCH.format(cond="en"), True),
    (LATCH.format(cond="en"), LATCH.format(cond="en & d[0]"), False),
])
def test_declined_pairs_sweep_on_the_interpreter(gold, other, same, monkeypatch):
    a, b = parse(gold), parse(other)
    verdict = verdicts_agree(a, b, monkeypatch)
    assert verdict.is_equivalent == same


@pytest.mark.parametrize("other, same", [("{a, a}", True), ("{~a, a}", False)])
def test_a_self_reading_assign_lowers_in_its_passes(other, same, monkeypatch):
    # x = {x[0], a} runs twice from zeros: x[0] takes a, then x[1] takes x[0]
    gold = parse(CHAIN.format(body="{x[0], a}"))
    em = equiv._design(gold).top_module
    net = bitblast.Netlist()
    a = net.input()
    assert bitblast.lower_module(net, em, {"a": [a]})["y"] == [a, a]
    verdict = verdicts_agree(gold, parse(CHAIN.format(body=other)), monkeypatch)
    assert verdict.is_equivalent == same


def test_tautology_by_truth_table():
    width_of = {"a": 4, "b": 3}.get
    taut = n.Binary("||", n.Binary("<=", n.Ref("a"), n.Literal(15, 4)), n.Ref("b"))
    assert check_tautology(taut, ("a", "b"), width_of)
    # one vector (a = 7, b = 5) falsifies it
    almost = n.Binary("||", n.Binary("!=", n.Ref("a"), n.Literal(7, 4)),
                      n.Binary("!=", n.Ref("b"), n.Literal(5, 3)))
    assert not check_tautology(almost, ("a", "b"), width_of)
    # a wider value must read exactly 1
    assert not check_tautology(n.Binary("|", n.Ref("b"), n.Literal(1, 3)),
                               ("b",), width_of)


def netlist_digest(corpus):
    """sha256 over the gates of every corpus comb original's miter against
    each of its controls at seeds 0-4, in node order."""
    h = hashlib.sha256()
    for design in sorted(corpus):
        m = corpus[design]
        if not _exhaustive(m):
            continue
        for kind in NEGATIVE_KINDS:
            for seed in range(5):
                try:
                    broken = negative_control(m, kind, seed)
                except NoApplicableSite:
                    break
                ea, eb = equiv._design(m), equiv._design(broken)
                ins, outs = equiv._check_ports(ea.top_module, eb.top_module, {})
                miter = bitblast.Miter(ea, eb, ins, [o for o, _ in outs])
                h.update(repr((design, kind, seed, miter.net.fanins,
                               miter.diffs)).encode())
    return h.hexdigest()


def test_node_numbering_is_pinned(corpus_modules):
    # the same under every PYTHONHASHSEED: nodes are numbered in build order
    corpus = {d: m for d, (_, m) in corpus_modules.items()}
    assert netlist_digest(corpus) == NETLIST_PINNED


FULL_CASE = """
module fc(input wire [1:0] op, input wire [3:0] a, input wire [3:0] b,
          output reg [3:0] y);
    always @(*)
        case (op)
            2'd0: y = a;
            2'd1: y = ~a;
            2'd2, {last}: y = a + {addend};
        endcase
endmodule
"""


@pytest.mark.parametrize("last, holds_state", [("2'd3", False), ("3'd4", True)])
def test_case_without_default(last, holds_state, monkeypatch):
    # labels naming every subject value leave no path without a write; an
    # out-of-range label matches nothing, so op == 3 keeps the last value
    gold = parse(FULL_CASE.format(last=last, addend="b"))
    em = equiv._design(gold).top_module
    assert bitblast.may_hold_state(em) == holds_state
    net = bitblast.Netlist()
    inputs = {s.name: [net.input() for _ in range(s.width)] for s in em.inputs}
    if holds_state:
        with pytest.raises(bitblast.Declined):
            bitblast.lower_module(net, em, inputs)
    else:
        bitblast.lower_module(net, em, inputs)
    # the second addend differs only at b == 15, past the probe
    for addend in ("b", "(b == 4'd15 ? 4'd0 : b)"):
        other = parse(FULL_CASE.format(last=last, addend=addend))
        assert verdicts_agree(gold, other, monkeypatch).is_equivalent == (addend == "b")


MIXED = """
module mix(input wire [2:0] i, input wire [7:0] d, input wire [1:0] s,
           output reg [7:0] y, output wire [3:0] z, output wire w);
    wire [3:0] t = d[7:4] ^ {s, s};
    assign z = t << i[1:0];
    assign w = d[i] ^ t[s];
    always @(*) begin
        y = d;
        y[i] = ~d[i];
        if (s == 2'd1) y[3:0] = t;
        else if (s[1]) y[7:6] = {w, y[0]};
        case (i)
            3'd0, 3'd1: y[5] = 1'b1;
            3'd7: y = y - {5'd0, i};
        endcase
    end
endmodule
"""


def test_lowered_module_matches_the_interpreter():
    # variable-index reads and writes, slices, an initializer and a case
    # without default after a whole write, on every input vector
    ed = equiv._design(parse(MIXED))
    em = ed.top_module
    # part-select writes: the structural test cannot rule state out, the
    # lowering does
    assert bitblast.may_hold_state(em)
    net = bitblast.Netlist()
    inputs = {s.name: [net.input() for _ in range(s.width)] for s in em.inputs}
    bits = bitblast.lower_module(net, em, inputs)
    variables = [lit for s in em.inputs for lit in inputs[s.name]]
    k = len(variables)
    outs = [s.name for s in em.outputs]
    lits = [lit for name in outs for lit in bits[name]]
    tables = {lit >> 1: bitblast._pattern(i, k) for i, lit in enumerate(variables)}
    columns = dict(zip(lits, net.evaluate(lits, tables, (1 << (1 << k)) - 1)))
    plan = equiv._Vectors(tuple((s.name, s.width) for s in em.inputs))
    inst = instantiate(ed)
    for v in range(1 << k):
        got = {name: _word((columns[lit] >> v) & 1 for lit in bits[name])
               for name in outs}
        assert got == inst.eval(plan.assign(v)), v


def test_part_select_in_a_wider_context_zero_extends():
    # x[3:0] is four bits wide wherever it is read; the 8-bit target
    # zero-extends it rather than reading x's bits above the slice
    ed = equiv._design(parse("""module s(input wire [7:0] x, output wire [7:0] y);
    assign y = x[3:0];
endmodule
"""))
    em = ed.top_module
    net = bitblast.Netlist()
    inputs = {"x": [net.input() for _ in range(8)]}
    y = bitblast.lower_module(net, em, inputs)["y"]
    tables = {lit >> 1: bitblast._pattern(i, 8) for i, lit in enumerate(inputs["x"])}
    columns = net.evaluate(y, tables, (1 << 256) - 1)
    rhs = em.folded.items[0].rhs
    inst = instantiate(ed)
    assert inst.eval({"x": 0xAB})["y"] == 0xB
    for v in range(256):
        assert _word((t >> v) & 1 for t in columns) == v & 0xF, v
        assert evaluate(rhs, {"x": v}, em.widths) == v & 0xF, v
        assert inst.eval({"x": v})["y"] == v & 0xF, v
