import os
import re
import subprocess
import sys

from conftest import REPO

VERDICT = re.compile(r"^(\w+)/(\w+): (equivalent|inequivalent|inconclusive)$")


def test_mutate_corpus_prints_a_verdict_per_written_design(tmp_path):
    r = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "mutate_corpus.py"),
         "--trials", "1", "--cycles", "40", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    verdicts = {}
    for line in r.stdout.splitlines():
        m = VERDICT.match(line)
        if m:
            verdicts[f"{m[1]}.{m[2]}"] = m[3]
    written = {p[:-2] for p in os.listdir(tmp_path) if p.endswith(".v")}
    assert written and set(verdicts) == written
    controls = {k for k in written if ".neg_" in k}
    assert controls and len(controls) < len(written)
    # a mutant is equivalent by construction, whatever the budget
    assert all(verdicts[k] == "equivalent" for k in written - controls)
