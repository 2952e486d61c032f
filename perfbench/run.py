#!/usr/bin/env python3
"""Benchmark of rtlmorph's oracle-centred workloads.

    python3 perfbench/run.py                     # every workload, one row each
    python3 perfbench/run.py --trace 1           # plus the per-layer reports
    python3 perfbench/run.py --workload negative-controls --seed 3 \\
        --seconds 10 --trace 0

Workloads: verify-mutants, negative-controls, corpus-eval (see README.md).
Load is one process with no extra threads, as a closed loop: the next op
starts when the previous one ends. The timed phase runs whole passes over
the workload's ops until --seconds have elapsed. Verdicts are checked
against known answers after it.

With --workload, the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run first repeats
the untraced phase, so the difference between the two is the tracing
overhead. Every run also writes a JSON report to perfbench/out/.

The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "rtlmorph", "__init__.py")):
    sys.exit(f"perfbench: no rtlmorph sources under {SRC}")
sys.path.insert(0, SRC)

import simdrive  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rtlmorph import nodes  # noqa: E402
from rtlmorph.elaborate import elaborate  # noqa: E402
from rtlmorph.equiv import EquivConfig  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "parser.ms": "ms", "parser.calls": "count",
    "elaborate.ms": "ms", "elaborate.calls_per_op": "count",
    "sim.us_per_step": "us", "sim.instance_ms": "ms",
    "sim.steps_per_op": "count",
    "equiv.self_ms_per_op": "ms", "equiv.sim_share": "ratio",
    "equiv.full_budget_share": "ratio",
    "trace.overhead": "ratio", "unattributed.share": "ratio",
}
# Per-layer metrics that only some workloads exercise; the report prints
# them, or the reason they are absent.
EXTRA_UNITS = {
    "morph.mutate_ms": "ms", "morph.node_growth": "ratio",
    "equiv.negative_control_ms": "ms", "emitter.ms": "ms", "metrics.ms": "ms",
    "harness.self_s": "s", "harness.gate_share": "ratio",
}


# --- timing ----------------------------------------------------------------


@dataclass
class Phase:
    results: list
    seconds: float
    passes: int


def run_phase(wl, seconds, tracer=None):
    """Whole passes over wl.ops until `seconds` have elapsed."""
    results = []
    passes = 0
    start = perf_counter()
    while True:
        for op in wl.ops:
            span = tracer.begin_op(len(results)) if tracer else None
            t0 = perf_counter()
            try:
                outcome, error = wl.run(op), None
            except Exception as exc:  # an op that raises is a failed op
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer:
                tracer.end_op(span)
            results.append(workloads.Result(op, outcome, error, t1 - t0))
        passes += 1
        if passes >= wl.min_passes and perf_counter() - start >= seconds:
            return Phase(results, perf_counter() - start, passes)


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile); the maximum when there are too few samples."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def setup_seconds(name, seed, probes):
    samples = []
    for _ in range(probes):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed)], capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(wl, phase):
    per_op_ms = [r.seconds * 1e3 / wl.units_per_op for r in phase.results]
    value, pct = tail(per_op_ms)
    return {
        "ops_per_s": len(phase.results) * wl.units_per_op / phase.seconds,
        "op_ms_p50": statistics.median(per_op_ms),
        "op_ms_tail": value,
        "tail_percentile": pct,
        "latency_samples": len(per_op_ms),
        "passes": phase.passes,
        "phase_s": phase.seconds,
    }


# --- per-layer metrics from a traced phase ------------------------------------


def _top(x):
    return x.modules[0] if isinstance(x, nodes.SourceUnit) else x


def _median_ms(spans):
    return statistics.median(s.seconds for s in spans) * 1e3 if spans else None


def _steps(verdict, cfg, per_cycle):
    """simulator steps over both designs, from the verdict's evidence"""
    ev = verdict.evidence
    if ev.get("mode") == "exhaustive":
        return 2 * ev["vectors"]
    if "vectors_tried" in ev:
        return 2 * ev["vectors_tried"]
    if ev.get("mode") == "random-bounded":
        return 2 * per_cycle * ev["total_cycles"]
    if "trial" in ev:
        return 2 * per_cycle * (ev["trial"] * cfg.cycles + ev["cycle"] + 1)
    return 0


def layer_metrics(wl, tracer, first, phase, untraced, size, seed):
    spans = tracer.spans
    in_phase = spans[first:]
    child = tracing.child_seconds(spans, first)
    ops = len(phase.results) * wl.units_per_op
    selfs = tracing.self_times(spans, first)
    calls = {}
    for index, args, kwargs, result in tracer.calls:
        calls.setdefault(spans[index].name, []).append(
            (index, args, kwargs, result))

    def named(name, pool=in_phase):
        return [s for s in pool if s.name == name]

    # designs to drive: originals, mutants and one control per (kind, design)
    label_of = {}  # id(module) -> label
    module_of = {}  # label -> the first module seen under it
    for index, args, kwargs, result in calls.get("check_equivalence", []):
        m = _top(args[0])
        label_of[id(m)] = m.name
        module_of.setdefault(m.name, m)
    for index, args, kwargs, result in calls.get("mutate", []):
        strategy = args[1] if len(args) > 1 else kwargs["strategy"]
        label = f"{args[0].name}+{strategy}"
        label_of[id(result[0])] = label
        module_of.setdefault(label, result[0])
    for index, args, kwargs, result in calls.get("negative_control", []):
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        label = f"{args[0].name}~{kind}"
        if label not in module_of:
            label_of[id(result)] = label
            module_of[label] = result
    per_design = {}
    for label, module in sorted(module_of.items()):
        inst_ms, us = simdrive.drive(module, size.drive_cycles,
                                     workloads.derive(seed, "drive", label))
        per_design[label] = {"us_per_step": us, "instance_ms": inst_ms}

    # oracle checks: steps from evidence, time with and without children
    per_cycle = {}
    check_s = self_s = full_s = steps = sim_s = 0.0
    for index, args, kwargs, verdict in calls.get("check_equivalence", []):
        if index < first:
            continue
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg") or EquivConfig()
        a, b = _top(args[0]), _top(args[1])
        if id(a) not in per_cycle:
            em = elaborate(nodes.SourceUnit((a,))).top_module
            names = {s.name for s in em.inputs}
            per_cycle[id(a)] = 2 if any(c in names for c in em.clocks()) else 1
        n = _steps(verdict, cfg, per_cycle[id(a)])
        seconds = spans[index].seconds
        check_s += seconds
        self_s += seconds - child[index]
        steps += n
        us_a = per_design[label_of[id(a)]]["us_per_step"]
        us_b = per_design.get(label_of.get(id(b)), {}).get("us_per_step", us_a)
        sim_s += n * (us_a + us_b) / 2 * 1e-6
        if verdict.status == "equivalent" and workloads.full_evidence(verdict, cfg):
            full_s += seconds

    parser_setup = named("parse", spans[:first])
    parser_phase = named("parse")
    elab = named("elaborate")
    unattributed = phase.seconds - sum(selfs.values())
    metrics = {
        "parser.ms": _median_ms(parser_setup + parser_phase),
        "parser.calls": len(parser_setup) + len(parser_phase) / phase.passes,
        "elaborate.ms": _median_ms(elab),
        "elaborate.calls_per_op": len(elab) / ops,
        "sim.us_per_step": statistics.median(
            d["us_per_step"] for d in per_design.values()),
        "sim.instance_ms": statistics.median(
            d["instance_ms"] for d in per_design.values()),
        "sim.steps_per_op": steps / ops,
        "equiv.self_ms_per_op": self_s * 1e3 / ops,
        "equiv.sim_share": sim_s / check_s,
        "equiv.full_budget_share": full_s / check_s,
        "trace.overhead": (untraced - ops / phase.seconds) / untraced,
        "unattributed.share": unattributed / phase.seconds,
    }

    extra = {}
    by_strategy = {}
    for index, args, kwargs, result in calls.get("mutate", []):
        if index < first:
            continue
        strategy = args[1] if len(args) > 1 else kwargs["strategy"]
        row = by_strategy.setdefault(strategy, {"ms": [], "growth": []})
        row["ms"].append(spans[index].seconds * 1e3)
        row["growth"].append(nodes.count_nodes(result[0]) /
                             nodes.count_nodes(args[0]))
    if by_strategy:
        extra["morph.mutate_ms"] = {k: statistics.median(v["ms"])
                                    for k, v in sorted(by_strategy.items())}
        extra["morph.node_growth"] = {
            k: [min(v["growth"]), statistics.mean(v["growth"]), max(v["growth"])]
            for k, v in sorted(by_strategy.items())}
    for key, name in (("equiv.negative_control_ms", "negative_control"),
                      ("emitter.ms", "emit")):
        if named(name):
            extra[key] = _median_ms(named(name))
    metric_spans = [s for s in in_phase if s.layer == "metrics"]
    if metric_spans:
        extra["metrics.ms"] = _median_ms(metric_spans)
    evaluations = named("evaluate")
    if evaluations:
        extra["harness.self_s"] = selfs.get("harness", 0.0) / len(evaluations)
        extra["harness.gate_share"] = check_s / sum(s.seconds for s in evaluations)

    layers = {layer: {"self_s": s} for layer, s in sorted(selfs.items())}
    for s in in_phase:
        if s.layer in layers:
            layers[s.layer]["calls"] = layers[s.layer].get("calls", 0) + 1
    detail = {"layers": layers, "unattributed_s": unattributed,
              "traced_wall_s": phase.seconds, "untraced_ops_per_s": untraced,
              "traced_ops_per_s": ops / phase.seconds,
              "sim_per_design": per_design, "steps_total": steps}
    return metrics, extra, detail


ABSENT = {
    "morph.mutate_ms": "no morph.mutate call in this workload",
    "morph.node_growth": "no morph.mutate call in this workload",
    "equiv.negative_control_ms": "no negative_control call in this workload",
    "emitter.ms": "no emit call in this workload",
    "metrics.ms": "the metrics layer runs only under the harness",
    "harness.self_s": "the harness runs only in corpus-eval",
    "harness.gate_share": "the harness runs only in corpus-eval",
}


# --- one workload ----------------------------------------------------------


def measure(name, seed, seconds, trace, size):
    os.makedirs(OUT, exist_ok=True)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace}
    setup_s = None if trace else setup_seconds(name, seed, size.setup_probes)
    corpus = workloads.load_corpus(ROOT)
    wl = workloads.build(name, corpus, seed, size, OUT)
    phase = run_phase(wl, seconds)
    problems, notes = wl.check(phase.results)
    e2e = end_to_end(wl, phase)
    attempted = len(phase.results) * wl.units_per_op
    op_ms = [[list(r.op.key), r.seconds * 1e3] for r in phase.results]
    phase.results.clear()  # the traced phase should not carry them
    if not trace:
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = peak_rss_mb()
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            corpus = workloads.load_corpus(ROOT)
            traced_wl = workloads.build(name, corpus, seed, size, OUT)
            first = len(tracer.spans)
            traced = run_phase(traced_wl, seconds, tracer)
        finally:
            tracer.uninstall()
        traced_problems, notes = traced_wl.check(traced.results)
        problems += traced_problems
        attempted += len(traced.results) * traced_wl.units_per_op
        per_layer, extra, detail = layer_metrics(
            traced_wl, tracer, first, traced, e2e["ops_per_s"], size, seed)
        if len(traced.results) == len(op_ms):
            # the same ops in the same order: a paired, drift-robust view
            detail["op_traced_over_untraced_median"] = statistics.median(
                r.seconds * 1e3 / ms for r, (_, ms) in zip(traced.results, op_ms))
        report.update(per_layer=per_layer, extra=extra, detail=detail,
                      spans=[s.to_json() for s in tracer.spans])
    e2e["ops_failed_ratio"] = min(len(problems), attempted) / attempted
    if "applicable" in notes:
        e2e["neg_escape_ratio"] = notes["escapes"] / notes["applicable"]
    report.update(end_to_end=e2e, notes=notes, attempted=attempted,
                  op_ms=op_ms,
                  failed=min(len(problems), attempted),
                  problems=[[list(k), m] for k, m in problems])
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, default=str)
    return report


# --- printing --------------------------------------------------------------


def e2e_row(report):
    e = report["end_to_end"]
    notes = report["notes"]

    def fmt(key, unit):
        return f"{e[key]:.4g} {unit}" if e.get(key) is not None else "-"

    tail_note = f"(p{e['tail_percentile']:.1f}, n={e['latency_samples']})"
    escape = "n/a"
    if "neg_escape_ratio" in e:
        escape = (f"{notes['escapes']}/{notes['applicable']} = "
                  f"{e['neg_escape_ratio']:.4f}")
    return [report["workload"], fmt("setup_s", "s"), fmt("ops_per_s", "1/s"),
            fmt("op_ms_p50", "ms"), f"{fmt('op_ms_tail', 'ms')} {tail_note}",
            fmt("peak_rss_mb", "MB"),
            f"{report['failed']}/{report['attempted']} = "
            f"{e['ops_failed_ratio']:.4g}", escape]


E2E_HEADER = ["workload", "setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail",
              "peak_rss_mb", "ops_failed_ratio", "neg_escape_ratio"]


def print_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def print_layers(report):
    d = report["detail"]
    print(f"\nper-layer, {report['workload']} (traced wall "
          f"{d['traced_wall_s']:.3f} s):")
    for key, unit in PER_LAYER_UNITS.items():
        print(f"  {key:26s} {report['per_layer'][key]:.6g} {unit}")
    for key, unit in EXTRA_UNITS.items():
        value = report["extra"].get(key)
        if value is None:
            print(f"  {key:26s} absent: {ABSENT[key]}")
        elif isinstance(value, dict):
            parts = ", ".join(
                f"{k} " + ("/".join(f"{x:.4g}" for x in v) if isinstance(v, list)
                           else f"{v:.4g}") for k, v in value.items())
            print(f"  {key:26s} {parts} {unit}")
        else:
            print(f"  {key:26s} {value:.6g} {unit}")
    print("  layer self time:")
    for layer, row in d["layers"].items():
        print(f"    {layer:10s} {row['self_s']:9.3f} s  {row.get('calls', 0)} calls")
    total = sum(row["self_s"] for row in d["layers"].values())
    print(f"    {'unattributed':10s} {d['unattributed_s']:9.3f} s")
    print(f"    self times {total:.3f} s + unattributed "
          f"{d['unattributed_s']:.3f} s = traced wall {d['traced_wall_s']:.3f} s")
    paired = d.get("op_traced_over_untraced_median")
    paired = "n/a" if paired is None else f"{paired:.4g}"
    print(f"  tracing overhead: ops_per_s {d['untraced_ops_per_s']:.4g} untraced, "
          f"{d['traced_ops_per_s']:.4g} traced; median traced/untraced time "
          f"of the same op {paired}")
    sims = ", ".join(f"{k} {v['us_per_step']:.2f}/{v['instance_ms']:.2f}"
                     for k, v in d["sim_per_design"].items())
    print(f"  sim per design (us/step / instance ms): {sims}")


def print_problems(report):
    for key, message in report["problems"][:10]:
        print(f"FAILED {report['workload']} {key}: {message}")


def result_line(report):
    if report["trace"]:
        metrics = {k: {"value": report["per_layer"][k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    return json.dumps({"correct": report["failed"] == 0,
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


# --- entry -----------------------------------------------------------------


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    rows = [E2E_HEADER]
    ok = True
    for name in workloads.WORKLOADS:
        for trace in [0, 1] if args.trace else [0]:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            if proc.returncode not in (0, 1):
                sys.stderr.write(proc.stderr)
                return 2
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
            print_problems(report)
            ok = ok and report["failed"] == 0
            if trace:
                print_layers(report)
            else:
                rows.append(e2e_row(report))
    print()
    print_table(rows)
    return 0 if ok else 1


def main(argv=None, size=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None,
                   help="one of verify-mutants, negative-controls, corpus-eval;"
                        " all three when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    size = size or workloads.FULL
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload}")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     size)
    print_problems(report)
    print_table([E2E_HEADER, e2e_row(report)])
    if args.trace:
        print_layers(report)
    print(result_line(report))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
