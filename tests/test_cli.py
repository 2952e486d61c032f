import json
import os
import re
import subprocess
import sys

from conftest import FIXTURES, MANIFEST, design_path


def cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "rtlmorph.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_mutate_writes_mutant_and_sidecar(tmp_path):
    out = tmp_path / "m.v"
    r = cli("mutate", design_path("counter"), "--strategy", "datapath",
            "--seed", "7", "-o", str(out))
    assert r.returncode == 0, r.stderr
    assert out.exists()
    record = json.loads((tmp_path / "m.v.json").read_text())
    assert record["strategy"] == "datapath" and record["seed"] == 7
    assert "sites:" in r.stdout


def test_mutate_golden_file(tmp_path):
    """Frozen output for counter + datapath at seed 7: dead-branch wrap
    plus one cascaded selection stage."""
    out = tmp_path / "golden.v"
    r = cli("mutate", design_path("counter"), "--strategy", "datapath",
            "--seed", "7", "-o", str(out))
    assert r.returncode == 0, r.stderr
    golden = os.path.join(os.path.dirname(__file__), "fixtures",
                          "counter.datapath.seed7.v")
    assert out.read_text() == open(golden).read()
    assert (tmp_path / "golden.v.json").read_text() == open(golden + ".json").read()


def test_mutate_deterministic(tmp_path):
    outs = []
    for name in ("a.v", "b.v"):
        r = cli("mutate", design_path("traffic_light"), "--strategy", "fsm",
                "--seed", "21", "-o", str(tmp_path / name))
        assert r.returncode == 0, r.stderr
        outs.append(((tmp_path / name).read_bytes(),
                     (tmp_path / (name + ".json")).read_bytes()))
    assert outs[0] == outs[1]


def test_mutate_inapplicable_exits_2():
    r = cli("mutate", design_path("counter"), "--strategy", "fsm", "--seed", "1")
    assert r.returncode == 2
    assert "not applicable" in r.stderr


def test_mutate_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.v"
    bad.write_text("module broken(input wire a;\n")
    r = cli("mutate", str(bad), "--strategy", "logic", "--seed", "1")
    assert r.returncode == 1


def test_mutate_prints_generated_seed(tmp_path):
    r = cli("mutate", design_path("logic_pair"), "--strategy", "logic",
            "-o", str(tmp_path / "m.v"))
    assert r.returncode == 0
    assert "seed:" in r.stdout and "--seed" in r.stdout


def test_verify_equivalent_mutant(tmp_path):
    out = tmp_path / "m.v"
    cli("mutate", design_path("pipe_xor"), "--strategy", "clock",
        "--seed", "3", "-o", str(out))
    r = cli("verify", design_path("pipe_xor"), str(out),
            "--offsets", str(out) + ".json", "--seed", "5", "--budget", "4x300")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "EQUIVALENT" in r.stdout


def test_verify_self():
    r = cli("verify", design_path("counter"), design_path("counter"),
            "--seed", "1", "--budget", "2x100")
    assert r.returncode == 0


def test_verify_inequivalent_with_evidence(tmp_path):
    altered = tmp_path / "broken.v"
    altered.write_text(open(design_path("counter")).read()
                       .replace("4'b1111", "4'b1110"))
    r = cli("verify", design_path("counter"), str(altered), "--seed", "2",
            "--budget", "4x500", "--evidence-dir", str(tmp_path / "cex"))
    assert r.returncode == 3
    assert re.search(r"INEQUIVALENT: count diverges \(cycle \d+\)", r.stdout)
    assert (tmp_path / "cex" / "counterexample.vcd").exists()
    assert "counterexample.vcd" in r.stdout


def test_verify_combinational_counterexample(tmp_path):
    """The exhaustive check's evidence has no signal; the counterexample
    names it, and the VCD declares each input at its elaborated width."""
    altered = tmp_path / "alu_xor.v"
    altered.write_text(open(design_path("alu_small")).read()
                       .replace("a & b", "a ^ b"))
    r = cli("verify", design_path("alu_small"), str(altered), "--seed", "1",
            "--evidence-dir", str(tmp_path / "cex"))
    assert r.returncode == 3
    assert "INEQUIVALENT: result diverges (inputs {'op': " in r.stdout
    assert "cycle" not in r.stdout
    vcd = (tmp_path / "cex" / "counterexample.vcd").read_text()
    assert "$var wire 8" in vcd and "$var wire 2" in vcd


def test_verify_inconclusive_budget():
    r = cli("verify", design_path("counter"), design_path("counter"),
            "--seed", "1", "--budget", "0x0")
    assert r.returncode == 4


def test_run_fixture_mode(tmp_path):
    r = cli("run",
            "--fixture", os.path.join(FIXTURES, "table1_timing_control.json"),
            "--fixture", os.path.join(FIXTURES, "table2_clock_domain.json"),
            "-o", str(tmp_path / "out"), "--seed", "1")
    assert r.returncode == 0, r.stderr
    md = (tmp_path / "out" / "report_timing_control.md").read_text()
    assert "GPT_mut" in md and "0.86" in md and "7.93" in md
    md2 = (tmp_path / "out" / "report_clock_domain.md").read_text()
    assert "RTLRewriter_mut" in md2 and "0.77" in md2


def test_run_bundled_corpus_with_stub_adapters(tmp_path):
    r = cli("run", "--manifest", MANIFEST, "-o", str(tmp_path / "out"),
            "--seed", "2", "--trials", "2", "--cycles", "120", "--jobs", "2")
    assert r.returncode == 0, r.stderr
    reports = sorted(p.name for p in (tmp_path / "out").glob("report_*.md"))
    assert reports == ["report_clock_domain.md", "report_data_path.md",
                       "report_logic_op.md", "report_timing_control.md"]
    assert (tmp_path / "out" / "results.jsonl").exists()


def test_run_missing_manifest_exits_1(tmp_path):
    r = cli("run", "--manifest", str(tmp_path / "nope.txt"),
            "-o", str(tmp_path / "out"), "--seed", "1")
    assert r.returncode == 1


def test_run_requires_manifest_or_fixture(tmp_path):
    r = cli("run", "-o", str(tmp_path / "out"), "--seed", "1")
    assert r.returncode == 1


def test_lint_subcommand(tmp_path):
    r = cli("lint", design_path("counter"))
    assert r.returncode == 0 and r.stdout.strip() == ""
    latchy = tmp_path / "latch.v"
    latchy.write_text("module t(input wire s, input wire a, output reg y);\n"
                      "always @(*) begin\nif (s)\ny = a;\nend\nendmodule\n")
    r = cli("lint", str(latchy))
    assert r.returncode == 3
    assert "inferred-latch" in r.stdout


def test_lint_rejects_a_negative_constant_shift_count(tmp_path):
    for op in ("<<", ">>"):
        src = tmp_path / "neg_shift.v"
        src.write_text("module t(input wire a, output wire [3:0] y);\n"
                       f"localparam K = 4 {op} -1;\n"
                       "assign y = K;\nendmodule\n")
        r = cli("lint", str(src))
        assert r.returncode == 1, (op, r.stderr)
        errors = [l for l in r.stderr.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "-1" in errors[0], (op, r.stderr)
        assert "Traceback" not in r.stderr
