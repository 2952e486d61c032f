"""End-to-end evaluation: mutate, verify, optimize, validate, measure,
normalize, aggregate.

No metric is recorded without an attached equivalent verdict: optimizer
outputs that fail parsing, lint, or the equivalence gate become exclusions,
never numbers. Results files are byte-deterministic for fixed seeds and
stub adapters (timestamps go to the run log, not the results).
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .. import morph
from ..elaborate import elaborate, lint_synthesizable
from ..emitter import emit
from ..equiv import EquivConfig, _mix, check_equivalence
from ..errors import MutationError, RtlmorphError, ToolNotFound
from ..metrics import (
    MetricSet, aggregate, normalize, ratios_to_jsonl, render_report,
    structural_stats,
)
from ..parser import parse
from .adapters import (
    ExternalSynthAdapter, IdentityAdapter, LlmEndpointAdapter,
    run_llm_adapter, run_synth_adapter,
)
from .manifest import load_manifest

STRATEGY_FOR_CATEGORY = {
    "logic_op": "logic",
    "data_path": "datapath",
    "timing_control": "fsm",
    "clock_domain": "clock",
}


@dataclass
class EvalConfig:
    manifest_path: str = None
    adapters: list = field(default_factory=lambda: [IdentityAdapter()])
    out_dir: str = "results"
    seed: int = 0
    trials: int = 16
    cycles: int = 2000
    reset_prologue: int = 4
    jobs: int = 1
    strategies: dict = field(default_factory=lambda: dict(STRATEGY_FOR_CATEGORY))
    fixture_paths: tuple = ()
    reference_id: str = "proxy"
    reference_synth: ExternalSynthAdapter = None  # measure with the tool when set


@dataclass
class CellResult:
    design: str
    variant: str  # "org" | "mut"
    adapter: str
    status: str  # "ok" | "excluded"
    reason: str = ""
    verdict: str = ""
    metrics: MetricSet = None

    def method(self):
        return f"{self.adapter}_{self.variant}"

    def to_json(self):
        d = {"design": self.design, "variant": self.variant,
             "adapter": self.adapter, "status": self.status,
             "reason": self.reason, "verdict": self.verdict}
        if self.metrics is not None:
            d["metrics"] = self.metrics.to_dict()
        return json.dumps(d, sort_keys=True)


@dataclass
class EvaluationRun:
    config: EvalConfig
    cells: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)  # category -> CategoryReport
    exclusions: list = field(default_factory=list)
    mutants: dict = field(default_factory=dict)  # design -> (text, record)
    started: float = 0.0
    finished: float = 0.0


# --- recorded-fixture mode -------------------------------------------------------


def _metricset_from_raw(raw: dict) -> MetricSet:
    fields = {k: float(v) for k, v in raw.items() if k in
              ("wires", "cells", "area", "delay", "power")}
    return MetricSet(**fields)


def evaluate_fixtures(fixture_paths, out_dir=None):
    """Report math from raw-metric fixture files: no tools, no endpoints.
    Returns {category: CategoryReport}."""
    reports = {}
    all_ratios = []
    for path in fixture_paths:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
        category = payload["category"]
        ref_method = payload["reference_method"]
        ratios = []
        for design, methods in sorted(payload["designs"].items()):
            if ref_method not in methods:
                raise RtlmorphError(
                    f"fixture {path}: design {design} lacks {ref_method}")
            ref = _metricset_from_raw(methods[ref_method])
            for method, raw in sorted(methods.items()):
                ratios.extend(normalize(_metricset_from_raw(raw), ref,
                                        design=design, method=method))
        report = aggregate(ratios, category)
        reports[category] = report
        all_ratios.extend(ratios)
    if out_dir:
        _write_outputs(out_dir, all_ratios, reports, cells=(), run_seed=None)
    return reports


# --- live mode ---------------------------------------------------------------------


def _reference_metrics(cfg, design_text, workdir):
    if cfg.reference_synth is not None:
        _, metrics = run_synth_adapter(design_text, cfg.reference_synth, workdir)
        return metrics
    return structural_stats(parse(design_text))


def _validate_candidate(candidate_text, base_module, cfg):
    """Parse, lint, and equivalence-gate an optimizer's output against the
    exact design it was asked to optimize."""
    try:
        unit = parse(candidate_text)
        if len(unit.modules) != 1:
            return None, "candidate must contain exactly one module"
        design = elaborate(unit)
        hard = [d for d in lint_synthesizable(design) if d.severity == "error"]
        if hard:
            return None, f"lint: {hard[0].code}"
    except RtlmorphError as exc:
        return None, f"unparsable: {type(exc).__name__}"
    candidate = unit.modules[0]
    if candidate == base_module:
        return candidate, None  # byte-equivalent modulo formatting
    equiv_cfg = EquivConfig(trials=cfg.trials, cycles=cfg.cycles,
                            reset_prologue=cfg.reset_prologue,
                            seed=_mix(cfg.seed, "validate"))
    try:
        verdict = check_equivalence(base_module, candidate, equiv_cfg)
    except RtlmorphError as exc:
        return None, f"equivalence check failed: {type(exc).__name__}"
    if not verdict.is_equivalent:
        return None, "inequivalent optimization"
    return candidate, None


def _eval_design(cfg, entry, adapters, out_dir):
    cells = []
    exclusions = []
    ratios = []
    mutant_info = None
    unit = entry.load()
    module = unit.module(entry.top)
    org_text = emit(module)

    strategy = cfg.strategies.get(entry.category)
    variants = [("org", module, org_text)]
    if strategy:
        try:
            mutant, record = morph.mutate(module, strategy,
                                          seed=_mix(cfg.seed, entry.design_id))
            mut_text = emit(mutant)
            equiv_cfg = EquivConfig(
                trials=cfg.trials, cycles=cfg.cycles,
                reset_prologue=cfg.reset_prologue,
                seed=_mix(cfg.seed, entry.design_id, "gate"),
                offsets=record.output_offsets, clock_map=record.clock_map)
            verdict = check_equivalence(module, mutant, equiv_cfg)
            if verdict.is_equivalent:
                variants.append(("mut", mutant, mut_text))
                mutant_info = (mut_text, record)
            else:
                exclusions.append((entry.design_id, "mut", "*",
                                   "mutant failed the equivalence gate"))
        except MutationError as exc:
            exclusions.append((entry.design_id, "mut", "*",
                               f"strategy inapplicable: {exc}"))

    ref_workdir = os.path.join(out_dir, "work", entry.design_id, "reference")
    ref_metrics = _reference_metrics(cfg, org_text, ref_workdir)
    ratios.extend(normalize(ref_metrics, ref_metrics, design=entry.design_id,
                            method=f"{cfg.reference_id}_org"))
    cells.append(CellResult(entry.design_id, "org", cfg.reference_id, "ok",
                            verdict="equivalent", metrics=ref_metrics))

    for adapter in adapters:
        for variant, base_module, base_text in variants:
            tag = f"{entry.design_id}_{variant}_{adapter.id}"
            workdir = os.path.join(out_dir, "work", entry.design_id,
                                   f"{variant}_{adapter.id}")
            try:
                if isinstance(adapter, IdentityAdapter):
                    candidate_text = base_text
                elif isinstance(adapter, LlmEndpointAdapter):
                    candidate_text = run_llm_adapter(
                        base_text, adapter,
                        archive_dir=os.path.join(out_dir, "transcripts"),
                        archive_tag=tag)
                elif isinstance(adapter, ExternalSynthAdapter):
                    _, metrics = run_synth_adapter(base_text, adapter, workdir)
                    cells.append(CellResult(entry.design_id, variant, adapter.id,
                                            "ok", verdict="assumed-equivalent",
                                            metrics=metrics))
                    ratios.extend(normalize(metrics, ref_metrics,
                                            design=entry.design_id,
                                            method=f"{adapter.id}_{variant}"))
                    continue
                else:
                    raise RtlmorphError(f"unknown adapter kind: {adapter!r}")
            except RtlmorphError as exc:
                reason = f"{type(exc).__name__}: {exc}"
                cells.append(CellResult(entry.design_id, variant, adapter.id,
                                        "excluded", reason=reason))
                exclusions.append((entry.design_id, variant, adapter.id, reason))
                continue

            candidate, problem = _validate_candidate(candidate_text, base_module, cfg)
            if candidate is None:
                cells.append(CellResult(entry.design_id, variant, adapter.id,
                                        "excluded", reason=problem))
                exclusions.append((entry.design_id, variant, adapter.id, problem))
                continue
            try:
                metrics = _reference_metrics(cfg, emit(candidate), workdir)
            except (ToolNotFound, RtlmorphError) as exc:
                reason = f"metrics failed: {type(exc).__name__}"
                cells.append(CellResult(entry.design_id, variant, adapter.id,
                                        "excluded", reason=reason))
                exclusions.append((entry.design_id, variant, adapter.id, reason))
                continue
            cells.append(CellResult(entry.design_id, variant, adapter.id, "ok",
                                    verdict="equivalent", metrics=metrics))
            ratios.extend(normalize(metrics, ref_metrics,
                                    design=entry.design_id,
                                    method=f"{adapter.id}_{variant}"))
    return cells, ratios, exclusions, mutant_info


def _aligned(ratios):
    """Trim to designs covered by every method so means stay comparable."""
    designs_of = {}
    for r in ratios:
        if r.defined:
            designs_of.setdefault(r.method, set()).add(r.design)
    if not designs_of:
        return ratios, set()
    common = set.intersection(*designs_of.values())
    dropped = set.union(*designs_of.values()) - common
    return [r for r in ratios if r.design in common], dropped


def evaluate(cfg: EvalConfig) -> EvaluationRun:
    run = EvaluationRun(config=cfg, started=time.time())
    if cfg.fixture_paths:
        run.reports = evaluate_fixtures(cfg.fixture_paths, out_dir=None)
        for report in run.reports.values():
            run.ratios.extend(report.ratios)
        _write_outputs(cfg.out_dir, run.ratios, run.reports, cells=(),
                       run_seed=cfg.seed)
        run.finished = time.time()
        return run

    manifest = load_manifest(cfg.manifest_path)
    by_category = {}
    results = []
    try:
        if cfg.jobs > 1:
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                futures = [pool.submit(_eval_design, cfg, e, cfg.adapters,
                                       cfg.out_dir)
                           for e in manifest.entries]
                results = [f.result() for f in futures]
        else:
            for e in manifest.entries:
                results.append(_eval_design(cfg, e, cfg.adapters, cfg.out_dir))
    except KeyboardInterrupt:
        # orderly cancellation: aggregate and flush whatever finished
        run.exclusions.append(("*", "*", "*", "interrupted"))

    for entry, (cells, ratios, exclusions, mutant_info) in \
            zip(manifest.entries, results):
        run.cells.extend(cells)
        run.ratios.extend(ratios)
        run.exclusions.extend(exclusions)
        if mutant_info is not None:
            run.mutants[entry.design_id] = mutant_info
        by_category.setdefault(entry.category, []).extend(ratios)

    for category in sorted(by_category):
        aligned, dropped = _aligned(by_category[category])
        if aligned:
            run.reports[category] = aggregate(aligned, category)
        for d in sorted(dropped):
            run.exclusions.append((d, "*", "*", "dropped from means: not "
                                   "covered by every method"))

    _write_outputs(cfg.out_dir, run.ratios, run.reports, run.cells, cfg.seed,
                   mutants=run.mutants, exclusions=run.exclusions)
    run.finished = time.time()
    return run


def _write_outputs(out_dir, ratios, reports, cells, run_seed,
                   mutants=None, exclusions=None):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.jsonl"), "w", encoding="utf-8") as f:
        f.write(ratios_to_jsonl(ratios))
    for category in sorted(reports):
        path = os.path.join(out_dir, f"report_{category}.md")
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_report(reports[category], "markdown"))
        path = os.path.join(out_dir, f"report_{category}.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_report(reports[category], "csv"))
    if cells:
        with open(os.path.join(out_dir, "cells.jsonl"), "w", encoding="utf-8") as f:
            for c in sorted(cells, key=lambda c: (c.design, c.variant, c.adapter)):
                f.write(c.to_json() + "\n")
    if exclusions:
        with open(os.path.join(out_dir, "exclusions.jsonl"), "w", encoding="utf-8") as f:
            for e in sorted(exclusions):
                f.write(json.dumps({"design": e[0], "variant": e[1],
                                    "adapter": e[2], "reason": e[3]},
                                   sort_keys=True) + "\n")
    if mutants:
        mdir = os.path.join(out_dir, "mutants")
        os.makedirs(mdir, exist_ok=True)
        for design_id, (text, record) in sorted(mutants.items()):
            with open(os.path.join(mdir, f"{design_id}.mut.v"), "w",
                      encoding="utf-8") as f:
                f.write(text)
            with open(os.path.join(mdir, f"{design_id}.mut.v.json"), "w",
                      encoding="utf-8") as f:
                f.write(record.to_json())
    if run_seed is not None:
        with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
            json.dump({"seed": run_seed}, f, sort_keys=True)
            f.write("\n")
