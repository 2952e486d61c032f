"""Direct drive of the simulator, for `sim.us_per_step` and `sim.instance_ms`.

Each design is elaborated afresh, so the timed `SimInstance(...)` call
includes compiling the module. The stimulus is shaped like the randomized
oracle's: a 4-cycle reset prologue, then seeded random data, two steps per
cycle (clock low with fresh data, then clock high) on clocked designs and
one step per vector on combinational ones. It is built before the clock
starts, so only `eval` is timed.
"""

import statistics
from random import Random
from time import perf_counter

from rtlmorph import nodes
from rtlmorph.elaborate import elaborate
from rtlmorph.sim import SimInstance

PROLOGUE = 4


def stimulus(em, cycles, rng):
    inputs = [(s.name, s.width) for s in em.inputs]
    names = {name for name, _ in inputs}
    clocks = [c for c in em.clocks() if c in names]
    resets = [r for r in em.async_resets() if r in names]
    data = [(name, w) for name, w in inputs
            if name not in clocks and name not in resets]
    steps = []
    for t in range(cycles):
        vals = {name: rng.getrandbits(w) for name, w in data}
        for r in resets:
            vals[r] = 1 if t < PROLOGUE else 0
        if not clocks:
            steps.append(vals)
            continue
        for phase in (0, 1):
            step = dict(vals)
            for c in clocks:
                step[c] = phase
            steps.append(step)
    return steps


def drive(module, cycles, seed, reps=3):
    """(instance_ms, us_per_step) for one ModuleDecl; µs/step is the
    median over `reps` runs of the stimulus on the instance."""
    design = elaborate(nodes.SourceUnit((module,)))
    steps = stimulus(design.top_module, cycles, Random(seed))
    t0 = perf_counter()
    inst = SimInstance(design)
    instance_ms = (perf_counter() - t0) * 1e3
    per_rep = []
    for _ in range(reps):
        t1 = perf_counter()
        for step in steps:
            inst.eval(step)
        per_rep.append((perf_counter() - t1) * 1e6 / len(steps))
    return instance_ms, statistics.median(per_rep)
