"""Set-up probe for `setup_s`.

A fresh interpreter imports rtlmorph, loads the corpus manifest, parses
the corpus and builds one workload's op list, then prints the monotonic
clock: the moment the first op could start. run.py subtracts the moment
it started this process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

corpus = workloads.load_corpus(ROOT)
workloads.build(sys.argv[1], corpus, int(sys.argv[2]), workloads.FULL,
                os.path.join(HERE, "out"))
print(repr(perf_counter()))
