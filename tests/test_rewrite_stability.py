"""Every tree rewrite, pinned: one sha256 over the emitted output of all four
mutation strategies, of parameter folding and of all four negative-control
kinds on the bundled corpus. A refactor of the tree traversal must leave
each of those outputs byte-identical, so the digest must not move.
"""

import hashlib

from rtlmorph import morph, nodes as n
from rtlmorph.elaborate import elaborate
from rtlmorph.emitter import emit
from rtlmorph.equiv import NEGATIVE_KINDS, negative_control
from rtlmorph.errors import NoApplicableSite

# The (design, strategy) pairs of the corpus that a strategy applies to.
MUTANT_PAIRS = (
    ("accum_tail", "clock"), ("accum_tail", "datapath"),
    ("alu_small", "datapath"), ("counter", "datapath"),
    ("frame_tx", "datapath"), ("frame_tx", "fsm"), ("gate_mix", "logic"),
    ("gray_tail", "clock"), ("gray_tail", "datapath"),
    ("logic_pair", "logic"), ("maj3", "logic"), ("mode_toggle", "datapath"),
    ("mux2", "datapath"), ("parity_guard", "logic"), ("pipe_xor", "clock"),
    ("pipe_xor", "datapath"), ("priority_sel", "datapath"),
    ("pulse_seq", "datapath"), ("pulse_seq", "fsm"), ("scale_pipe", "clock"),
    ("scale_pipe", "datapath"), ("shift_en", "datapath"),
    ("traffic_light", "datapath"), ("traffic_light", "fsm"),
)
MUTANT_SEEDS = range(4)
CONTROL_SEEDS = range(30)

# Computed with the statement rebuilders each module carried before they
# were folded into nodes.map_stmt / nodes.map_module.
PINNED = "946d6ef721e341f17d4d9a193e18fdfba4ee97e672ffc86dec80c73dd2172e87"


def rewrite_digest(corpus):
    """sha256 over every rewrite output, in a fixed order. `corpus` maps
    design id -> ModuleDecl."""
    h = hashlib.sha256()

    def put(*parts):
        for p in parts:
            h.update(repr(p).encode())
            h.update(b"\0")

    modules = [(d, corpus[d]) for d in sorted(corpus)]
    for design, strategy in MUTANT_PAIRS:
        for seed in MUTANT_SEEDS:
            mutant, record = morph.mutate(corpus[design], strategy, seed=seed)
            put("mutant", design, strategy, seed,
                emit(n.SourceUnit((mutant,))), record.to_json())
            modules.append((f"{design}.{strategy}.{seed}", mutant))

    for label, m in modules:
        folded = elaborate(n.SourceUnit((m,))).top_module.folded
        put("folded", label, emit(n.SourceUnit((folded,))))
        for kind in NEGATIVE_KINDS:
            for seed in CONTROL_SEEDS:
                try:
                    broken = negative_control(m, kind, seed=seed)
                except NoApplicableSite:
                    put("control", label, kind, seed, "NoApplicableSite")
                    break
                put("control", label, kind, seed, emit(n.SourceUnit((broken,))))
    return h.hexdigest()


def test_rewrite_outputs_are_pinned(corpus_modules):
    corpus = {d: m for d, (_, m) in corpus_modules.items()}
    assert len(corpus) == 17
    assert rewrite_digest(corpus) == PINNED
