#!/usr/bin/env python3
"""Generate every applicable mutant of the bundled corpus plus the four
semantics-breaking negative controls, verify each against its original,
and write everything (with mutation-record sidecars) to a directory.

    python scripts/mutate_corpus.py --out results/mutants --seed 42
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rtlmorph import nodes  # noqa: E402
from rtlmorph import morph  # noqa: E402
from rtlmorph.emitter import emit  # noqa: E402
from rtlmorph.equiv import (  # noqa: E402
    EquivConfig, NEGATIVE_KINDS, check_equivalence, negative_control,
)
from rtlmorph.errors import MutationError, NoApplicableSite  # noqa: E402
from rtlmorph.harness import load_manifest  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/mutants")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trials", type=int, default=8)
    ap.add_argument("--cycles", type=int, default=1000)
    args = ap.parse_args()

    manifest = load_manifest(os.path.join(os.path.dirname(__file__), "..",
                                          "corpus", "manifest.txt"))
    os.makedirs(args.out, exist_ok=True)
    base = EquivConfig(seed=args.seed, trials=args.trials, cycles=args.cycles)
    for entry in manifest.entries:
        module = entry.load().module(entry.top)
        original = nodes.SourceUnit((module,))
        for strategy in morph.STRATEGIES:
            try:
                mutant, record = morph.mutate(module, strategy, seed=args.seed)
            except MutationError as exc:
                print(f"{entry.design_id}/{strategy}: inapplicable ({exc})")
                continue
            cfg = replace(base, offsets=record.output_offsets,
                          clock_map=record.clock_map)
            verdict = check_equivalence(original, nodes.SourceUnit((mutant,)), cfg)
            stem = os.path.join(args.out, f"{entry.design_id}.{strategy}")
            with open(stem + ".v", "w", encoding="utf-8") as f:
                f.write(emit(mutant))
            with open(stem + ".v.json", "w", encoding="utf-8") as f:
                f.write(record.to_json())
            print(f"{entry.design_id}/{strategy}: {verdict.status}")
        for kind in NEGATIVE_KINDS:
            try:
                broken = negative_control(module, kind, seed=args.seed)
            except NoApplicableSite:
                continue
            verdict = check_equivalence(original, nodes.SourceUnit((broken,)), base)
            stem = os.path.join(args.out, f"{entry.design_id}.neg_{kind}")
            with open(stem + ".v", "w", encoding="utf-8") as f:
                f.write(emit(broken))
            print(f"{entry.design_id}/neg_{kind}: {verdict.status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
