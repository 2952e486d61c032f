"""Every oracle verdict, pinned: one sha256 over the status, evidence and
full counterexample of the randomized check on the corpus mutants, on
those mutants with their declared offsets shortened by one, on the
negative controls, and on a combinational pair too wide for the
exhaustive check. A refactor of the oracle must leave each verdict
bit-identical, so the digest must not move.
"""

import hashlib

from rtlmorph import morph, nodes as n
from rtlmorph.equiv import (
    NEGATIVE_KINDS, EquivConfig, check_equivalence, check_seq_random,
    negative_control,
)
from rtlmorph.errors import NoApplicableSite
from rtlmorph.parser import parse

from test_rewrite_stability import MUTANT_PAIRS

MUTANT_SEEDS = range(2)
CONTROL_SEEDS = range(10)
BUDGET = dict(trials=2, cycles=200)

# 24 input bits: above the exhaustive cap, so check_equivalence takes the
# randomized check on a design without a clock.
WIDE_COMB = """
module wide_comb(input wire [7:0] a, input wire [7:0] b, input wire [7:0] c,
                 output wire [7:0] y);
    assign y = {body};
endmodule
"""
WIDE_GOLD = "(a & b) | c"
WIDE_VARIANTS = ("c | (b & a)", "(a & b) ^ c")

# Computed with the randomized oracle as it stood before its trial loop
# drew each cycle lazily.
PINNED = "f16283c6f645d7b7128a86e26e56e20fc886aa8c3897ad0e32d038cb9ee6b8b0"


def _stimulus(stim):
    return [sorted(step.items()) for step in stim.steps]


def oracle_digest(corpus):
    """sha256 over every verdict, in a fixed order, and the set of oracle
    paths the verdicts took. `corpus` maps design id -> ModuleDecl."""
    h = hashlib.sha256()
    paths = set()

    def put(label, verdict):
        ev = verdict.evidence
        paths.add((verdict.status, ev.get("mode"), ev.get("in_reset", False),
                   ev.get("offset", 0) > 0))
        parts = (label, verdict.status, sorted(ev.items()))
        cex = verdict.counterexample
        if cex is not None:
            parts += (_stimulus(cex.stimulus_a), _stimulus(cex.stimulus_b),
                      cex.cycle, cex.step_a, cex.step_b, cex.signal,
                      cex.expected, cex.actual)
        h.update(repr(parts).encode())
        h.update(b"\0")

    def unit(m):
        return n.SourceUnit((m,))

    for design, strategy in MUTANT_PAIRS:
        original = unit(corpus[design])
        for seed in MUTANT_SEEDS:
            mutant, record = morph.mutate(corpus[design], strategy, seed=seed)
            runs = [("mutant", record.output_offsets)]
            if any(record.output_offsets.values()):
                runs.append(("shorter", {o: max(k - 1, 0) for o, k
                                         in record.output_offsets.items()}))
            for label, offsets in runs:
                cfg = EquivConfig(seed=seed, offsets=offsets,
                                  clock_map=record.clock_map, **BUDGET)
                put((label, design, strategy, seed),
                    check_seq_random(original, unit(mutant), cfg))

    for design in sorted(corpus):
        original = unit(corpus[design])
        for kind in NEGATIVE_KINDS:
            for seed in CONTROL_SEEDS:
                try:
                    broken = negative_control(corpus[design], kind, seed=seed)
                except NoApplicableSite:
                    break
                put(("control", design, kind, seed),
                    check_seq_random(original, unit(broken),
                                     EquivConfig(seed=seed, **BUDGET)))

    gold = parse(WIDE_COMB.format(body=WIDE_GOLD))
    for body in WIDE_VARIANTS:
        put(("wide", body),
            check_equivalence(gold, parse(WIDE_COMB.format(body=body)),
                              EquivConfig(seed=3, **BUDGET)))
    return h.hexdigest(), paths


def test_oracle_verdicts_are_pinned(corpus_modules):
    corpus = {d: m for d, (_, m) in corpus_modules.items()}
    assert len(corpus) == 17
    digest, paths = oracle_digest(corpus)
    # equivalent, diverging inside reset, offset-aligned at k = 0 and k > 0
    assert paths >= {("equivalent", "random-bounded", False, False),
                     ("inequivalent", None, True, False),
                     ("inequivalent", None, False, False),
                     ("inequivalent", None, False, True)}
    assert digest == PINNED
