"""Smoke test of the benchmark itself: each workload at a tiny size with a
fixed seed prints every metric by name with its unit, and a wrong known
answer is counted as a failed op.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def _main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)], size=workloads.TINY)
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(capsys, workload, trace):
    code, out, result = _main(capsys, workload, trace)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    table = out.splitlines()
    for name in run.E2E_HEADER:
        assert name in table[0]
    if not trace:
        for unit in (" s ", " 1/s ", " ms ", " MB "):
            assert unit in table[1]
        return
    for key, unit in run.PER_LAYER_UNITS.items():
        assert any(line.split()[:1] == [key] and line.endswith(f" {unit}")
                   for line in table), key
    for key, unit in run.EXTRA_UNITS.items():
        assert any(line.split()[:1] == [key] and (line.endswith(f" {unit}") or
                                                  " absent: " in line)
                   for line in table), key


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_known_answer_is_a_failure(workload):
    corpus = workloads.load_corpus(run.ROOT)
    wl = workloads.build(workload, corpus, 5, workloads.TINY, run.OUT)
    wrong = {"equivalent": "inequivalent", "inequivalent": "equivalent", 0: 3}
    wl.ops[0].expect = wrong[wl.ops[0].expect]
    phase = run.run_phase(wl, 0)
    problems, _ = wl.check(phase.results)
    assert len(problems) == sum(
        wl.units_per_op for r in phase.results if r.op is wl.ops[0])


def test_failed_check_sets_exit_code_and_result(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "full_evidence", lambda verdict, cfg: False)
    code, out, result = _main(capsys, "verify-mutants", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "FAILED verify-mutants" in out
