"""The benchmark's three workloads: their op lists, how one op runs, and
the known answers its verdicts are checked against.

An op is one unit of user-visible work. Each workload's ops come in a
fixed order (one "pass"); the timed phase runs whole passes so that every
run measures the same mix. Checks run after the timed phase.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Optional

from rtlmorph import cli, equiv, morph, nodes
from rtlmorph.elaborate import elaborate
from rtlmorph.errors import NoApplicableSite
from rtlmorph.harness import load_manifest

# The (design, strategy) pairs of the bundled corpus that a strategy
# applies to. Applicability does not depend on the seed; a pair that stops
# applying is a failed op.
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

# The (kind, design) pairs with at least one site for the control kind.
CONTROL_PAIRS = tuple(
    [("invert_condition", d) for d in (
        "accum_tail", "counter", "frame_tx", "gray_tail", "mode_toggle",
        "mux2", "pipe_xor", "priority_sel", "pulse_seq", "scale_pipe",
        "shift_en", "traffic_light")]
    + [("temporal_off_by_one", d) for d in (
        "counter", "frame_tx", "pulse_seq", "traffic_light")]
    + [("constant_perturb", d) for d in (
        "accum_tail", "alu_small", "counter", "frame_tx", "gray_tail",
        "mode_toggle", "pipe_xor", "priority_sel", "pulse_seq", "scale_pipe",
        "shift_en", "traffic_light")]
    + [("wrong_var_update", d) for d in (
        "accum_tail", "alu_small", "frame_tx", "gate_mix", "gray_tail",
        "logic_pair", "maj3", "mux2", "parity_guard", "pipe_xor",
        "priority_sel", "scale_pipe", "shift_en")]
)

# Exclusion reasons that are part of a correct corpus run.
ALLOWED_EXCLUSIONS = ("strategy inapplicable", "dropped from means")


@dataclass(frozen=True)
class Size:
    """How much work one pass does. FULL is what the benchmark measures;
    the smoke test uses TINY."""
    trials: int = 16
    cycles: int = 2000
    control_seeds: int = 30
    designs: Optional[tuple] = None  # restrict the first two workloads
    drive_cycles: int = 1000
    setup_probes: int = 7


FULL = Size()
TINY = Size(trials=2, cycles=40, control_seeds=1,
            designs=("counter", "logic_pair", "scale_pipe"),
            drive_cycles=50, setup_probes=1)


def derive(seed, *parts):
    """A 32-bit seed derived from the workload seed and a label."""
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:4], "big")


@dataclass
class Corpus:
    manifest_path: str
    modules: dict  # design id -> ModuleDecl


def load_corpus(root):
    """Manifest load and corpus parse: the program's set-up."""
    path = os.path.join(root, "corpus", "manifest.txt")
    manifest = load_manifest(path)
    modules = {e.design_id: e.load().module(e.top) for e in manifest.entries}
    return Corpus(path, modules)


@dataclass
class Op:
    key: tuple
    expect: object  # the known answer: a verdict status, or an exit code


@dataclass
class Result:
    op: Op
    outcome: object
    error: Optional[str]
    seconds: float


def full_evidence(verdict, cfg):
    """An "equivalent" verdict counts only with its whole evidence."""
    ev = verdict.evidence
    mode = ev.get("mode")
    if mode in ("exhaustive", "proved"):
        return True
    return mode == "random-bounded" and \
        ev.get("total_cycles") == cfg.trials * cfg.cycles


class VerifyMutants:
    """Criterion-1 traffic: mutate, then verify at the default budget."""
    name = "verify-mutants"
    units_per_op = 1
    min_passes = 1

    def __init__(self, corpus, seed, size):
        self.modules = corpus.modules
        self.size = size
        self.seed = seed
        self.ops = [Op(pair, "equivalent") for pair in MUTANT_PAIRS
                    if size.designs is None or pair[0] in size.designs]

    def config(self, op, record):
        design, strategy = op.key
        return equiv.EquivConfig(
            trials=self.size.trials, cycles=self.size.cycles,
            seed=derive(self.seed, "oracle", design, strategy),
            offsets=record.output_offsets, clock_map=record.clock_map)

    def run(self, op):
        design, strategy = op.key
        original = self.modules[design]
        mutant, record = morph.mutate(
            original, strategy, seed=derive(self.seed, "mutate", design, strategy))
        verdict = equiv.check_equivalence(
            nodes.SourceUnit((original,)), nodes.SourceUnit((mutant,)),
            self.config(op, record))
        return mutant, record, verdict

    def check(self, results):
        problems = []
        for r in results:
            if r.error is not None:
                problems.append((r.op.key, r.error))
                continue
            _, record, verdict = r.outcome
            if verdict.status != r.op.expect or \
                    not full_evidence(verdict, self.config(r.op, record)):
                problems.append((r.op.key, f"{verdict.status} {verdict.evidence}"))
        return problems, {}


class NegativeControls:
    """Criterion-2 traffic: a semantics-breaking control, then verify.

    The control seeds are the fixed range 0..control_seeds-1, the start
    of criterion 2's range, and only the oracle seeds come from the
    workload seed. Escapes (controls the oracle cannot tell apart, about
    0.5%) run the whole budget and take a large share of the time; a
    seed-derived control range would change their number from run to run
    (1 to 6 in 20-seed windows) and with it the throughput.
    """
    name = "negative-controls"
    units_per_op = 1
    min_passes = 1

    def __init__(self, corpus, seed, size):
        self.modules = corpus.modules
        self.size = size
        self.seed = seed
        self.ops = [Op((kind, design, cs), "inequivalent")
                    for cs in range(size.control_seeds)
                    for kind, design in CONTROL_PAIRS
                    if size.designs is None or design in size.designs]

    def config(self, op):
        return equiv.EquivConfig(trials=self.size.trials,
                                 cycles=self.size.cycles,
                                 seed=derive(self.seed, "oracle", *op.key))

    def run(self, op):
        kind, design, control_seed = op.key
        original = self.modules[design]
        try:
            broken = equiv.negative_control(original, kind, seed=control_seed)
        except NoApplicableSite:
            return None  # a rejected control is neither checked nor failed
        verdict = equiv.check_equivalence(
            nodes.SourceUnit((original,)), nodes.SourceUnit((broken,)),
            self.config(op))
        return broken, verdict

    def check(self, results):
        problems = []
        applicable = escapes = 0
        elaborated = {}
        for r in results:
            if r.error is not None:
                problems.append((r.op.key, r.error))
                continue
            if r.outcome is None:
                continue
            applicable += 1
            broken, verdict = r.outcome
            design = r.op.key[1]
            if verdict.status == r.op.expect:
                if design not in elaborated:
                    elaborated[design] = elaborate(
                        nodes.SourceUnit((self.modules[design],)))
                cex = verdict.counterexample
                if cex is None or not cex.replay(elaborated[design],
                                                 nodes.SourceUnit((broken,))):
                    problems.append((r.op.key, "counterexample does not replay"))
            elif verdict.status == "equivalent" and \
                    full_evidence(verdict, self.config(r.op)):
                escapes += 1
            else:
                problems.append((r.op.key, f"{verdict.status} {verdict.evidence}"))
        return problems, {"applicable": applicable, "escapes": escapes}


class CorpusEval:
    """`rtlmorph run` on the bundled manifest, in-process, CLI defaults.

    One call is one pass; each design in it is one op. At least two calls
    run, so the results files of two same-seed runs can be compared.
    """
    name = "corpus-eval"
    min_passes = 2

    def __init__(self, corpus, seed, size, out_root):
        self.manifest_path = corpus.manifest_path
        self.units_per_op = len(corpus.modules)
        self.out_root = out_root
        self.calls = 0
        self.args = ["--seed", str(derive(seed, "corpus-eval"))]
        if (size.trials, size.cycles) != (FULL.trials, FULL.cycles):
            self.args += ["--trials", str(size.trials),
                          "--cycles", str(size.cycles)]
        self.ops = [Op(("run",), 0)]

    def run(self, op):
        self.calls += 1
        out = os.path.join(self.out_root, f"corpus-eval-{self.calls}")
        shutil.rmtree(out, ignore_errors=True)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["run", "--manifest", self.manifest_path,
                             "-o", out] + self.args)
        return out, code, text.getvalue()

    def check(self, results):
        problems = []
        first = None
        notes = {}
        for r in results:
            if r.error is not None:
                problems.extend([(r.op.key, r.error)] * self.units_per_op)
                continue
            out, code, text = r.outcome
            try:
                if code != r.op.expect:
                    problems.extend([(r.op.key, f"exit {code}")] * self.units_per_op)
                    continue
                notes["summary"] = text.splitlines()[0] if text else ""
                with open(os.path.join(out, "exclusions.jsonl"), encoding="utf-8") as f:
                    for line in f:
                        reason = json.loads(line)["reason"]
                        if not reason.startswith(ALLOWED_EXCLUSIONS):
                            problems.append((r.op.key, f"exclusion: {reason}"))
                files = {}
                for path in sorted(glob.glob(os.path.join(out, "*.jsonl")) +
                                   glob.glob(os.path.join(out, "*.md"))):
                    with open(path, "rb") as f:
                        files[os.path.basename(path)] = f.read()
                if first is None:
                    first = files
                elif files != first:
                    problems.extend([(r.op.key, "results differ between "
                                      "same-seed runs")] * self.units_per_op)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return problems, notes


WORKLOADS = ("verify-mutants", "negative-controls", "corpus-eval")


def build(name, corpus, seed, size, out_root):
    if name == "verify-mutants":
        return VerifyMutants(corpus, seed, size)
    if name == "negative-controls":
        return NegativeControls(corpus, seed, size)
    if name == "corpus-eval":
        return CorpusEval(corpus, seed, size, out_root)
    raise ValueError(f"unknown workload: {name}")
