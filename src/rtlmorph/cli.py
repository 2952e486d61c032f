"""Command-line surface for batch use.

Exit codes (stable contract):
    0  success / equivalent
    1  usage, parse, or configuration error
    2  strategy inapplicable to the design
    3  inequivalent (counterexample written next to the output)
    4  inconclusive within the given budget

stdout carries human-readable text only; machine-readable results go to
files. All randomness flows from --seed; when omitted, a seed is generated
and printed so the run can be replayed.
"""

import argparse
import os
import secrets
import sys

from . import morph
from .elaborate import elaborate, lint_synthesizable
from .emitter import emit
from .equiv import EquivConfig, check_equivalence
from .errors import MutationError, RtlmorphError
from .harness import (
    EvalConfig, IdentityAdapter, evaluate, load_adapters, load_manifest,
)
from .morph.record import MutationRecord
from .parser import parse_file


def _seed_of(args):
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(32)
    print(f"seed: {seed} (pass --seed {seed} to replay)")
    return seed


def cmd_mutate(args):
    seed = _seed_of(args)
    try:
        unit = parse_file(args.input)
    except RtlmorphError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    module = unit.modules[0] if args.top is None else unit.module(args.top)
    if module is None:
        print(f"no module named {args.top}", file=sys.stderr)
        return 1
    try:
        mutant, record = morph.mutate(module, args.strategy, seed=seed)
    except MutationError as exc:
        print(f"strategy {args.strategy} not applicable: {exc}", file=sys.stderr)
        return 2
    record.seed = seed
    text = emit(mutant)
    out = args.output or f"{os.path.splitext(args.input)[0]}.{args.strategy}.v"
    with open(out, "w", encoding="utf-8") as f:
        f.write(text)
    with open(out + ".json", "w", encoding="utf-8") as f:
        f.write(record.to_json())
    print(f"wrote {out} (+ .json sidecar)")
    print(f"strategy: {args.strategy}, sites:")
    for site in record.sites:
        print(f"  - {site}")
    offsets = {k: v for k, v in record.output_offsets.items() if v}
    if offsets:
        print(f"declared latency offsets: {offsets}")
    return 0


def cmd_verify(args):
    seed = _seed_of(args)
    try:
        unit_a = parse_file(args.a)
        unit_b = parse_file(args.b)
    except RtlmorphError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    offsets, clock_map = {}, {}
    if args.offsets:
        with open(args.offsets, "r", encoding="utf-8") as f:
            record = MutationRecord.from_json(f.read())
        offsets, clock_map = record.output_offsets, record.clock_map
    trials, cycles = args.budget
    cfg = EquivConfig(trials=trials, cycles=cycles, seed=seed,
                      offsets=offsets, clock_map=clock_map)
    try:
        design_a = elaborate(unit_a)
        verdict = check_equivalence(design_a, unit_b, cfg)
    except RtlmorphError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 1
    if verdict.status == "equivalent":
        print(f"EQUIVALENT ({verdict.evidence.get('mode')}: "
              f"{verdict.evidence.get('vectors', verdict.evidence.get('total_cycles'))} "
              "vectors/cycles)")
        return 0
    if verdict.status == "inequivalent":
        ev, cex = verdict.evidence, verdict.counterexample
        where = f"cycle {ev['cycle']}" if "cycle" in ev else f"inputs {ev['inputs']}"
        print(f"INEQUIVALENT: {cex.signal} diverges ({where})")
        widths = {name: s.width for name, s in design_a.top_module.signals.items()}
        paths = cex.export(args.evidence_dir or "counterexample", widths)
        print(f"counterexample: {paths['vcd']}, {paths['csv']}")
        return 3
    print(f"INCONCLUSIVE: {verdict.evidence.get('reason', 'budget exhausted')}")
    return 4


def cmd_run(args):
    seed = _seed_of(args)
    if args.fixture:
        cfg = EvalConfig(out_dir=args.output, seed=seed,
                         fixture_paths=tuple(args.fixture))
        run = evaluate(cfg)
        for category in sorted(run.reports):
            print(f"report: {os.path.join(args.output, f'report_{category}.md')}")
        return 0
    if not args.manifest:
        print("either --manifest or --fixture is required", file=sys.stderr)
        return 1
    try:
        load_manifest(args.manifest)
    except (RtlmorphError, OSError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 1
    adapters = [IdentityAdapter()]
    if args.adapters:
        try:
            adapters = load_adapters(args.adapters)
        except (RtlmorphError, OSError) as exc:
            print(f"adapter config error: {exc}", file=sys.stderr)
            return 1
    cfg = EvalConfig(manifest_path=args.manifest, adapters=adapters,
                     out_dir=args.output, seed=seed, trials=args.trials,
                     cycles=args.cycles, jobs=args.jobs)
    try:
        run = evaluate(cfg)
    except KeyboardInterrupt:
        print("interrupted; partial results flushed", file=sys.stderr)
        return 130
    ok = sum(1 for c in run.cells if c.status == "ok")
    print(f"{ok} cells measured, {len(run.exclusions)} exclusions")
    for category in sorted(run.reports):
        print(f"report: {os.path.join(args.output, f'report_{category}.md')}")
    return 0


def cmd_lint(args):
    try:
        unit = parse_file(args.input)
        design = elaborate(unit, top=args.top)
    except RtlmorphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    diags = lint_synthesizable(design)
    for d in diags:
        print(d.to_json())
    return 0 if not any(d.severity == "error" for d in diags) else 3


def _budget(text):
    try:
        trials, cycles = text.lower().split("x")
        return int(trials), int(cycles)
    except ValueError:
        raise argparse.ArgumentTypeError("budget must look like 16x2000")


def build_parser():
    p = argparse.ArgumentParser(
        prog="rtlmorph",
        description="Generate equivalent-but-more-complex RTL mutants, verify "
                    "equivalence, and evaluate optimizers on both forms.")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("mutate", help="apply one metamorphosis strategy")
    m.add_argument("input")
    m.add_argument("--strategy", required=True,
                   choices=("logic", "datapath", "fsm", "clock"))
    m.add_argument("--seed", type=int, default=None)
    m.add_argument("--top", default=None)
    m.add_argument("-o", "--output", default=None)
    m.set_defaults(func=cmd_mutate)

    v = sub.add_parser("verify", help="equivalence verdict for two designs")
    v.add_argument("a")
    v.add_argument("b")
    v.add_argument("--offsets", default=None,
                   help="mutation record sidecar with declared latencies")
    v.add_argument("--budget", type=_budget, default=(16, 2000),
                   metavar="TRIALSxCYCLES")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--evidence-dir", default=None)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("run", help="batch evaluation over a corpus")
    r.add_argument("--manifest", default=None)
    r.add_argument("--adapters", default=None)
    r.add_argument("--fixture", action="append", default=None,
                   help="recorded raw-metric fixture (repeatable); no tools needed")
    r.add_argument("-o", "--output", default="results")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--trials", type=int, default=16)
    r.add_argument("--cycles", type=int, default=2000)
    r.add_argument("--jobs", type=int, default=1,
                   help="worker threads; they overlap adapter I/O only and do "
                        "not speed up CPU-bound runs such as the identity adapter's")
    r.set_defaults(func=cmd_run)

    l = sub.add_parser("lint", help="synthesizability diagnostics as JSONL")
    l.add_argument("input")
    l.add_argument("--top", default=None)
    l.set_defaults(func=cmd_lint)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
