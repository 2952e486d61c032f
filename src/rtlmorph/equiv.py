"""Equivalence oracles between two designs, semantics-breaking negative
controls for validating oracle sensitivity, and an exported miter bundle
for an external formal flow.

The in-process simulator is the authoritative oracle: combinational pairs
up to 20 input bits are checked exhaustively, everything else by seeded
randomized trials with a reset prologue and per-output latency alignment
(offsets come from the mutant's MutationRecord). An Inequivalent verdict
always carries a replayable counterexample.

Which loop decides a verdict: the closure interpreter (`sim.SimInstance`)
runs first, as a probe: the first PROBE cycles of trial 0, or the first
PROBE vectors of an exhaustive check. A divergence there is the verdict.
For a pair that agrees through the probe,

- the randomized check gets a generated loop (`codegen`), which runs the
  whole check from its start with the same stimulus and comparison rule
  and decides "equivalent" or the first divergence after the probe;
- the exhaustive check lowers both designs to one hashed gate DAG
  (`bitblast`) and reads its output-XOR miter on truth tables over the
  remaining vectors, in windows that double from PROBE. A miter that
  folds to constant 0 decides "equivalent" without reading any table;
  otherwise the lowest set bit is the first divergence.

A pair the generator or the lowering declines stays on the interpreter.
The counterexample is built from the divergence the deciding loop
reports, and its stimulus is drawn again from the check's input plan
when read, so `replay` and `export` go through the interpreter.
"""

import hashlib
import os
from dataclasses import dataclass, field, replace
from random import Random
from typing import NamedTuple, Optional

from . import nodes as n
from .elaborate import ElaboratedDesign, elaborate
from .emitter import emit
from .errors import (
    NoApplicableSite, PortMismatch, RtlmorphError, TooWide,
)
from .sim import SimInstance, Stimulus, Trace, instantiate


def _mix(seed, *parts):
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


@dataclass(frozen=True, slots=True)
class EquivalenceVerdict:
    status: str  # "equivalent" | "inequivalent" | "inconclusive"
    evidence: dict = field(default_factory=dict)
    counterexample: Optional["Counterexample"] = None

    @property
    def is_equivalent(self):
        return self.status == "equivalent"


class _Trials(NamedTuple):
    """How a randomized check draws its inputs. Each cycle draws the data
    inputs from the trial's `Random(seed)` in port order, drives each
    reset to 1 inside the prologue (and the storm) and to 0 elsewhere,
    and takes one step per clock phase: clock low with the cycle's data,
    then clock high. A counterexample keeps this plan to draw its stimulus
    again, so pairs are stored flat: `data` is name, width, name, width,
    ... and `extras`, the second design's clock-map inputs, is input, the
    first design's input it copies, ..."""
    data: tuple
    resets: tuple
    clocks: tuple
    extras: tuple
    cycles: int
    prologue: int

    def draws(self):
        """(name, width) of each data input, in drawing order."""
        return zip(self.data[::2], self.data[1::2])

    def copies(self):
        """(second design's input, first design's input it copies)."""
        return zip(self.extras[::2], self.extras[1::2])

    def storm(self, storm):
        """The reset storm's cycles as range bounds; empty without one."""
        if storm and self.cycles > 2 * self.prologue + 4:
            return self.cycles // 2, self.cycles // 2 + self.prologue
        return 0, 0

    def in_reset(self, t, storm):
        start, stop = self.storm(storm)
        return t < self.prologue or start <= t < stop

    def trial(self, seed, storm):
        """Yield (steps, in_reset) per cycle, where steps pairs each
        phase's input dict for the first design with the second's."""
        rng = Random(seed)
        phases = (0, 1) if self.clocks else (0,)
        for t in range(self.cycles):
            in_reset = self.in_reset(t, storm)
            vals = {name: rng.getrandbits(w) for name, w in self.draws()}
            for r in self.resets:
                vals[r] = 1 if in_reset else 0
            steps = []
            for phase in phases:
                step_a = dict(vals)
                for c in self.clocks:
                    step_a[c] = phase
                step_b = step_a
                if self.extras:
                    step_b = dict(step_a)
                    for e, src in self.copies():
                        step_b[e] = step_a[src]
                steps.append((step_a, step_b))
            yield steps, in_reset

    def steps(self, seed, storm, cycle, side):
        """One side's steps (0: first design, 1: second) of a trial, up
        to and including `cycle`."""
        out = []
        for t, (steps, _) in enumerate(self.trial(seed, storm)):
            out.extend(step[side] for step in steps)
            if t == cycle:
                break
        return out


class _Vectors(NamedTuple):
    """The exhaustive check's inputs: vector v packs them LSB-first in
    port order. A pair whose logic holds state from one vector to the
    next (`stateful`) replays from vector 0; any other from v alone."""
    ins: tuple  # (name, width)
    stateful: bool = False

    def assign(self, v):
        assign = {}
        off = 0
        for name, w in self.ins:
            assign[name] = (v >> off) & ((1 << w) - 1)
            off += w
        return assign

    def steps(self, seed, storm, cycle, side):
        return [self.assign(v) for v in range(0 if self.stateful else cycle, cycle + 1)]


@dataclass(frozen=True, slots=True)
class Counterexample:
    """Stimulus prefix up to and including the first divergent cycle.
    step_a/step_b differ when the comparison was offset-aligned.

    The stimulus is drawn again from the check's input plan on each
    access: from the trial's seed and storm flag for a randomized check,
    from the vector (`cycle`) for an exhaustive one, or from vectors 0 to
    `cycle` on a pair that holds state from one vector to the next."""
    plan: object  # _Trials | _Vectors
    seed: Optional[int]
    storm: bool
    cycle: int
    step_a: int
    step_b: int
    signal: str
    expected: int
    actual: int

    @property
    def stimulus_a(self) -> Stimulus:
        return Stimulus(self.plan.steps(self.seed, self.storm, self.cycle, 0))

    @property
    def stimulus_b(self) -> Stimulus:
        return Stimulus(self.plan.steps(self.seed, self.storm, self.cycle, 1))

    def replay(self, a, b) -> bool:
        """True when the divergence reproduces in fresh instances."""
        ia, ib = _instance(a), _instance(b)
        ta = ia.run(self.stimulus_a)
        tb = ib.run(self.stimulus_b)
        return ta.steps[self.step_a][self.signal] == self.expected and \
            tb.steps[self.step_b][self.signal] == self.actual

    def export(self, outdir, widths=None):
        from .traceio import stimulus_to_csv, write_vcd
        os.makedirs(outdir, exist_ok=True)
        stimulus = self.stimulus_a
        csv_path = os.path.join(outdir, "counterexample_stimulus.csv")
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(stimulus_to_csv(stimulus))
        vcd_path = os.path.join(outdir, "counterexample.vcd")
        write_vcd(vcd_path, stimulus, Trace(()), widths or {})
        note = os.path.join(outdir, "counterexample.txt")
        with open(note, "w", encoding="utf-8") as f:
            f.write(f"cycle {self.cycle} step {self.step_b} signal {self.signal}: "
                    f"expected {self.expected}, got {self.actual}\n")
        return {"csv": csv_path, "vcd": vcd_path, "note": note}


@dataclass(frozen=True)
class EquivConfig:
    trials: int = 16
    cycles: int = 2000
    seed: int = 0
    reset_prologue: int = 4
    offsets: dict = field(default_factory=dict)
    clock_map: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.reset_prologue < 1:
            raise ValueError("reset prologue must be >= 1")
        if any(v < 0 for v in self.offsets.values()):
            raise ValueError("offsets must be nonnegative")


def _design(x) -> ElaboratedDesign:
    if isinstance(x, ElaboratedDesign):
        return x
    if isinstance(x, str):
        from .parser import parse
        x = parse(x)
    return elaborate(x)


def _instance(x) -> SimInstance:
    return instantiate(_design(x))


def _io_signature(em):
    ins = [(s.name, s.width) for s in em.inputs]
    outs = sorted((s.name, s.width) for s in em.outputs)
    return ins, outs


def _check_ports(ea, eb, clock_map):
    ins_a, outs_a = _io_signature(ea)
    ins_b, outs_b = _io_signature(eb)
    if outs_a != outs_b:
        raise PortMismatch(f"outputs differ: {outs_a} vs {outs_b}")
    da, db = dict(ins_a), dict(ins_b)
    for name, w in ins_a:
        if name not in db:
            raise PortMismatch(f"input {name} missing from mutant")
        if db[name] != w:
            raise PortMismatch(f"input {name} width {db[name]} != {w}")
    for name, w in ins_b:
        if name in da:
            continue
        src = clock_map.get(name)
        if src is None or src not in da:
            raise PortMismatch(f"extra input {name} has no clock mapping")
    return ins_a, outs_a


# --- exhaustive combinational check -------------------------------------------

# Both checks first run the interpreter over this many vectors (or cycles of
# trial 0) and build anything else only for a pair that agrees on all of
# them: most broken pairs diverge this early, and building costs more than
# interpreting them. A power of two, so the exhaustive check's truth-table
# windows double from it.
PROBE = 32


def _sweep_interpreted(ea, eb, plan, out_names, stop):
    """The exhaustive sweep on the interpreter: vectors 0..stop-1."""
    ia, ib = SimInstance(ea), SimInstance(eb)
    for v in range(stop):
        assign = plan.assign(v)
        oa = ia.eval(assign)
        ob = ib.eval(assign)
        for name in out_names:
            if oa[name] != ob[name]:
                return v, name, oa[name], ob[name]
    return None


def check_comb_exhaustive(a, b) -> EquivalenceVerdict:
    """All 2^w input assignments; inputs packed LSB-first in port order.
    After the probe, truth tables on `bitblast.Miter` decide, or the
    interpreter sweeping from vector 0 for a pair the lowering declines.
    A pair declined for latch-style state keeps vectors 0..v as its
    counterexample's stimulus, since its outputs depend on earlier
    vectors."""
    ea, eb = _design(a), _design(b)
    ma, mb = ea.top_module, eb.top_module
    for em, which in ((ma, "first"), (mb, "second")):
        if any(blk.kind == "clocked" for blk in em.blocks):
            raise PortMismatch(f"{which} design is not purely combinational")
    ins, outs = _check_ports(ma, mb, {})
    total = sum(w for _, w in ins)
    if total > 20:
        raise TooWide(f"{total} input bits exceeds the exhaustive cap of 20")
    plan = _Vectors(tuple(ins))
    out_names = [name for name, _ in outs]
    vectors = 1 << total
    found = _sweep_interpreted(ea, eb, plan, out_names, min(PROBE, vectors))
    rest = found is None and vectors > PROBE
    from . import bitblast  # imported on first use, like codegen
    miter = None
    # lowered: a pair that survives its probe, and one that diverges in it
    # but may hold state, so its counterexample replays
    if rest or found is not None and (bitblast.may_hold_state(ma) or
                                      bitblast.may_hold_state(mb)):
        try:
            miter = bitblast.Miter(ea, eb, plan.ins, out_names)
        except bitblast.Declined as declined:
            plan = plan._replace(stateful=declined.stateful)
    if rest:
        found = miter.first_divergence(PROBE, vectors) if miter is not None else \
            _sweep_interpreted(ea, eb, plan, out_names, vectors)
    if found is None:
        return EquivalenceVerdict("equivalent", {"vectors": vectors, "mode": "exhaustive"})
    v, sig, expected, actual = found
    step = v if plan.stateful else 0
    cex = Counterexample(plan, None, False, cycle=v, step_a=step, step_b=step,
                         signal=sig, expected=expected, actual=actual)
    return EquivalenceVerdict("inequivalent",
                              {"vectors_tried": v + 1, "inputs": plan.assign(v)},
                              cex)


# --- randomized sequential check ----------------------------------------------


def _clocks_and_resets(em):
    input_names = {s.name for s in em.inputs}
    return [c for c in em.clocks() if c in input_names], \
        [r for r in em.async_resets() if r in input_names]


def _trials_plan(ea, eb, cfg):
    """The input plan of a randomized check, and its (output, offset)
    pairs in comparison order."""
    ma, mb = ea.top_module, eb.top_module
    ins, outs = _check_ports(ma, mb, cfg.clock_map)
    clocks, resets = _clocks_and_resets(ma)
    names_a = {name for name, _ in ins}
    extras = tuple(x for s in mb.inputs if s.name not in names_a
                   for x in (s.name, cfg.clock_map[s.name]))
    data = tuple(x for name, w in ins if name not in clocks and name not in resets
                 for x in (name, w))
    plan = _Trials(data, tuple(resets), tuple(clocks), extras, cfg.cycles,
                   cfg.reset_prologue)
    return plan, tuple((name, cfg.offsets.get(name, 0)) for name, _ in outs)


def _trial_interpreted(ea, eb, plan, offsets, seed, storm, stop):
    """Cycles 0..stop-1 of one trial on the interpreter, compared by the
    oracle's rule. The first divergence as (cycle, output, offset,
    expected, actual), or None."""
    ia, ib = SimInstance(ea), SimInstance(eb)
    hist_a = []
    last_reset = -1
    for t, (steps, in_reset) in enumerate(plan.trial(seed, storm)):
        if t == stop:
            break
        for step_a, step_b in steps:
            oa = ia.eval(step_a)
            ob = ib.eval(step_b)
        hist_a.append(oa)
        for name, k in offsets:
            # both sides are clamped by the asynchronous reset, so
            # inside it outputs must agree directly (offset 0)
            if in_reset:
                k = 0
            if t - k <= last_reset or ob[name] == hist_a[t - k][name]:
                continue
            return t, name, k, hist_a[t - k][name], ob[name]
        if in_reset:
            last_reset = t
    return None


def check_seq_random(a, b, cfg: EquivConfig = None) -> EquivalenceVerdict:
    """Seeded random trials with a reset prologue. Each cycle is drawn as
    the trial runs and takes two steps on a clocked design (clock low with
    fresh data, then clock high) or one step otherwise. Outputs are
    compared at the cycle's last step, aligned by the declared per-output
    offsets outside reset and directly inside it. Trial 0 also carries a
    reset storm: a second reset burst mid-run.

    The interpreter runs the first PROBE cycles of trial 0. A pair that
    agrees on them gets a generated loop (`codegen.trial_loop`) that runs
    every trial from its start, trial 0 included; a pair the generator
    declines stays on the interpreter. Either way the verdict and its
    counterexample come from the first divergence found."""
    cfg = cfg or EquivConfig()
    ea, eb = _design(a), _design(b)
    plan, offsets = _trials_plan(ea, eb, cfg)
    if cfg.trials < 1 or cfg.cycles < 1:
        return EquivalenceVerdict("inconclusive", {"reason": "empty budget"})

    seeds = [_mix(cfg.seed, "trial", trial) for trial in range(cfg.trials)]
    # one storm per check tests recovery from a mid-run reset; the other
    # trials keep every cycle after the prologue for data
    trial = 0
    found = _trial_interpreted(ea, eb, plan, offsets, seeds[0], True, PROBE)
    if found is None:
        from . import codegen
        rest = list(enumerate(seeds))[0 if cfg.cycles > PROBE else 1:]
        run = codegen.trial_loop(ea, eb, plan, offsets) if rest else None
        for trial, seed in rest:
            if run is not None:
                found = run(Random(seed).getrandbits, *plan.storm(trial == 0))
            else:
                found = _trial_interpreted(ea, eb, plan, offsets, seed,
                                           trial == 0, cfg.cycles)
            if found is not None:
                break
    if found is None:
        return EquivalenceVerdict("equivalent", {
            "mode": "random-bounded", "trials": cfg.trials,
            "cycles_per_trial": cfg.cycles, "total_cycles": cfg.trials * cfg.cycles,
            "seeds": seeds, "note": "bounded evidence, not a proof",
        })
    t, name, k, expected, actual = found
    seed, storm = seeds[trial], trial == 0
    evidence = {"trial": trial, "cycle": t, "signal": name, "offset": k,
                "seed": seed}
    if plan.in_reset(t, storm):
        evidence["in_reset"] = True
    per_cycle = 2 if plan.clocks else 1
    cex = Counterexample(plan, seed, storm, cycle=t,
                         step_a=(t - k + 1) * per_cycle - 1,
                         step_b=(t + 1) * per_cycle - 1, signal=name,
                         expected=expected, actual=actual)
    return EquivalenceVerdict("inequivalent", evidence, cex)


def check_equivalence(a, b, cfg: EquivConfig = None) -> EquivalenceVerdict:
    """Exhaustive for small pure-comb pairs, randomized otherwise."""
    cfg = cfg or EquivConfig()
    ea, eb = _design(a), _design(b)
    ma, mb = ea.top_module, eb.top_module
    comb = not any(blk.kind == "clocked" for blk in ma.blocks) and \
        not any(blk.kind == "clocked" for blk in mb.blocks)
    total = sum(s.width for s in ma.inputs)
    if comb and total <= 20:
        return check_comb_exhaustive(ea, eb)
    return check_seq_random(ea, eb, cfg)


def find_offset(a, b, cfg: EquivConfig = None, max_offset: int = 8):
    """Smallest uniform offset that aligns every output, or None.
    Used to measure the latency a structural transform actually added."""
    base = cfg or EquivConfig(trials=2, cycles=400)
    ea, eb = _design(a), _design(b)
    out_names = [s.name for s in ea.top_module.outputs]
    for k in range(max_offset + 1):
        trial_cfg = replace(base, offsets={o: k for o in out_names})
        if check_seq_random(ea, eb, trial_cfg).is_equivalent:
            return k
    return None


# --- negative controls ---------------------------------------------------------

NEGATIVE_KINDS = ("invert_condition", "temporal_off_by_one",
                  "constant_perturb", "wrong_var_update")

_KIND_ALIASES = {
    "InvertCondition": "invert_condition",
    "TemporalOffByOne": "temporal_off_by_one",
    "ConstantPerturb": "constant_perturb",
    "WrongVarUpdate": "wrong_var_update",
}


def negative_control(module: n.ModuleDecl, kind: str, seed: int = 0) -> n.ModuleDecl:
    """A deliberately semantics-BREAKING mutant used to validate that the
    oracles actually catch divergences."""
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in NEGATIVE_KINDS:
        raise ValueError(f"unknown negative-control kind: {kind}")
    rng = Random(seed)
    if kind == "invert_condition":
        return _invert_condition(module, rng)
    if kind == "temporal_off_by_one":
        return _perturb_literal(module, rng, in_clocked_condition=True)
    if kind == "constant_perturb":
        return _perturb_literal(module, rng, in_clocked_condition=False)
    return _wrong_var_update(module, rng)


def _invert_condition(module, rng):
    # sites are if-statements and ternaries, numbered in n.map_module's
    # visit order (composite expressions are rebuilt bottom-up, so object
    # identity cannot anchor the rewrite; an occurrence index can)
    def passes(pick):
        k = [0]

        def rw_stmt(s):
            if isinstance(s, n.If):
                mine = k[0]
                k[0] += 1
                if mine == pick:
                    return replace(s, cond=n.Unary("!", s.cond))
            return s

        def rw_expr(e):
            if isinstance(e, n.Ternary):
                mine = k[0]
                k[0] += 1
                if mine == pick:
                    return n.Ternary(n.Unary("!", e.cond), e.then_expr, e.else_expr)
            return e

        rebuilt = n.map_module(module, rw_stmt, rw_expr)
        return rebuilt, k[0]

    _, total = passes(-1)
    if total == 0:
        raise NoApplicableSite("no condition to invert")
    rebuilt, _ = passes(rng.randrange(total))
    return rebuilt


def _perturb_literal(module, rng, in_clocked_condition):
    sites = []

    def collect_expr(e, in_cond, in_select=False):
        if isinstance(e, n.Literal) and not in_select and \
                in_cond == in_clocked_condition:
            sites.append(e)
        for i, child in enumerate(n.expr_children(e)):
            child_in_select = isinstance(e, (n.Index, n.Slice)) and i > 0
            collect_expr(child, in_cond, in_select or child_in_select)

    def collect_stmt(s, clocked, in_default):
        if s is None:
            return
        if isinstance(s, n.Block):
            for c in s.stmts:
                collect_stmt(c, clocked, in_default)
        elif isinstance(s, n.If):
            collect_expr(s.cond, in_cond=clocked)
            collect_stmt(s.then_stmt, clocked, in_default)
            collect_stmt(s.else_stmt, clocked, in_default)
        elif isinstance(s, n.Case):
            for arm in s.arms:
                for l in arm.labels:
                    collect_expr(l, in_cond=clocked)
                collect_stmt(arm.body, clocked, in_default)
            # default arms are often unreachable safety nets: perturbing
            # them would not be a semantics-BREAKING mutation
            collect_stmt(s.default, clocked, True)
        elif isinstance(s, (n.NonblockingAssign, n.BlockingAssign)):
            if not in_default:
                collect_expr(s.rhs, in_cond=False)

    for item in module.items:
        if isinstance(item, n.ContinuousAssign):
            collect_expr(item.rhs, in_cond=False)
        elif isinstance(item, n.ProcBlock):
            clocked = isinstance(item.sensitivity, n.EdgeSensitivity)
            collect_stmt(item.body, clocked, False)
    for d in module.nets:
        if d.init is not None:
            collect_expr(d.init, in_cond=False)
    if not sites:
        raise NoApplicableSite(
            "no literal in a clocked condition" if in_clocked_condition
            else "no literal to perturb")
    target = sites[rng.randrange(len(sites))]
    w = target.width or max(target.value.bit_length(), 1)
    new_value = (target.value + 1) & ((1 << w) - 1)

    def rw_expr(e):
        if e is target:
            return n.Literal(new_value, target.width, target.signed, base=target.base)
        return e

    return n.map_module(module, expr_fn=rw_expr)


def _wrong_var_update(module, rng):
    from .morph.logic import _width_map
    width_of = _width_map(module)
    edgeish = set()
    for item in module.items:
        if isinstance(item, n.ProcBlock) and isinstance(item.sensitivity, n.EdgeSensitivity):
            edgeish |= {sig for _, sig in item.sensitivity.edges}
    decls = [d.name for d in list(module.ports) + list(module.nets)
             if d.name not in edgeish]

    assigns = []
    for item in module.items:
        if isinstance(item, n.ContinuousAssign):
            assigns.append((item.lhs, item.rhs))
        elif isinstance(item, n.ProcBlock):
            for s in n.walk_stmts(item.body):
                if isinstance(s, (n.NonblockingAssign, n.BlockingAssign)):
                    assigns.append((s.lhs, s.rhs))
    for d in module.nets:
        if d.init is not None:
            assigns.append((n.Ref(d.name), d.init))

    candidates = []
    for lhs, rhs in assigns:
        base = n.lvalue_base(lhs)
        for node in n.walk_expr(rhs):
            if isinstance(node, n.Ref):
                for repl in decls:
                    if repl != node.name and repl != base and \
                            width_of(repl) == width_of(node.name):
                        candidates.append((node, repl))
    if not candidates:
        raise NoApplicableSite("no same-width substitution available")
    order = list(range(len(candidates)))
    rng.shuffle(order)
    for i in order:
        target, repl = candidates[i]

        def rw_expr(e):
            if e is target:
                return n.Ref(repl)
            return e

        mutant = n.map_module(module, expr_fn=rw_expr)
        try:
            elaborate(mutant)
        except RtlmorphError:
            continue  # substitution formed a loop or broke widths
        return mutant
    raise NoApplicableSite("every substitution broke elaboration")


# --- external formal flow --------------------------------------------------------


_COMB_SCRIPT = """# combinational equivalence via the external synthesis tool
read_verilog {input}
hierarchy -check -top miter
proc; opt
sat -verify -prove trigger 0 -show-inputs miter
"""

_SEQ_SCRIPT = """# bounded sequential equivalence via the external synthesis tool
read_verilog {input}
hierarchy -check -top miter
proc; opt
sat -seq {depth} -set-init-zero -verify -prove trigger 0 -show-inputs miter
"""


def emit_formal_miter(a, b, offsets=None, outdir=".", clock_map=None,
                      seq_depth=64):
    """Write miter.v plus comb/seq driver scripts for the external flow.

    The miter XORs each output pair; gold outputs pass through
    offset-many shift registers first, and the trigger is gated by a
    warm-up counter so initialization cycles cannot fire it.
    """
    offsets = offsets or {}
    clock_map = clock_map or {}
    ea, eb = _design(a), _design(b)
    ma, mb = ea.top_module, eb.top_module
    ins, outs = _check_ports(ma, mb, clock_map)
    clocks, resets = _clocks_and_resets(ma)
    clock = clocks[0] if clocks else None
    max_off = max(offsets.values(), default=0)
    warmup = max_off + 4

    gold = replace(ma.decl, name=f"{ma.decl.name}_gold")
    gate = replace(mb.decl, name=f"{mb.decl.name}_gate")

    lines = ["module miter("]
    port_decls = []
    for name, w in ins:
        rng = f"[{w-1}:0] " if w > 1 else ""
        port_decls.append(f"    input wire {rng}{name}")
    port_decls.append("    output wire trigger")
    lines.append(",\n".join(port_decls))
    lines.append(");")
    conns_a = ", ".join(f".{name}({name})" for name, _ in ins)
    for name, w in outs:
        rng = f"[{w-1}:0] " if w > 1 else ""
        lines.append(f"    wire {rng}{name}_gold;")
        lines.append(f"    wire {rng}{name}_gate;")
    gold_conns = conns_a + ", " + ", ".join(f".{o}({o}_gold)" for o, _ in outs)
    extra = {s.name: clock_map[s.name] for s in mb.inputs if s.name in clock_map}
    gate_in = conns_a + "".join(f", .{k}({v})" for k, v in extra.items())
    gate_conns = gate_in + ", " + ", ".join(f".{o}({o}_gate)" for o, _ in outs)
    lines.append(f"    {gold.name} u_gold({gold_conns});")
    lines.append(f"    {gate.name} u_gate({gate_conns});")

    diff_terms = []
    for name, w in outs:
        k = offsets.get(name, 0)
        ref = f"{name}_gold"
        if k > 0 and clock is not None:
            rng = f"[{w-1}:0] " if w > 1 else ""
            for i in range(1, k + 1):
                lines.append(f"    reg {rng}{name}_dly{i};")
            lines.append(f"    always @(posedge {clock}) begin")
            lines.append(f"        {name}_dly1 <= {name}_gold;")
            for i in range(2, k + 1):
                lines.append(f"        {name}_dly{i} <= {name}_dly{i-1};")
            lines.append("    end")
            ref = f"{name}_dly{k}"
        diff_terms.append(f"({name}_gate != {ref})")

    if clock is not None:
        lines.append("    reg [15:0] warm;")
        lines.append(f"    always @(posedge {clock}) begin")
        lines.append("        if (warm < 16'd65535)")
        lines.append("            warm <= warm + 1'b1;")
        lines.append("    end")
        lines.append(f"    wire ready = warm >= 16'd{warmup};")
        lines.append(f"    assign trigger = ready & ({' | '.join(diff_terms)});")
    else:
        lines.append(f"    assign trigger = {' | '.join(diff_terms)};")
    lines.append("endmodule")

    os.makedirs(outdir, exist_ok=True)
    miter_path = os.path.join(outdir, "miter.v")
    with open(miter_path, "w", encoding="utf-8") as f:
        f.write(emit(gold) + "\n" + emit(gate) + "\n" + "\n".join(lines) + "\n")
    comb_path = os.path.join(outdir, "equiv_comb.ys")
    with open(comb_path, "w", encoding="utf-8") as f:
        f.write(_COMB_SCRIPT.replace("{input}", "miter.v"))
    seq_path = os.path.join(outdir, "equiv_seq.ys")
    with open(seq_path, "w", encoding="utf-8") as f:
        f.write(_SEQ_SCRIPT.replace("{input}", "miter.v")
                .replace("{depth}", str(seq_depth)))
    return {"miter": miter_path, "comb_script": comb_path, "seq_script": seq_path}


def run_formal_miter(bundle, mode="seq", tool="yosys", timeout=120) \
        -> EquivalenceVerdict:
    """Drive the external tool on an emitted bundle. Tool absence is
    reported, never fatal: the in-process oracle stays authoritative."""
    import shutil
    import subprocess
    if shutil.which(tool) is None:
        return EquivalenceVerdict("inconclusive", {"reason": f"{tool} not found"})
    script = bundle["seq_script" if mode == "seq" else "comb_script"]
    proc = subprocess.run(
        [tool, "-q", "-s", os.path.basename(script)],
        cwd=os.path.dirname(os.path.abspath(script)) or ".",
        capture_output=True, text=True, timeout=timeout)
    if proc.returncode == 0:
        return EquivalenceVerdict("equivalent", {"mode": f"formal-{mode}"})
    return EquivalenceVerdict(
        "inequivalent",
        {"mode": f"formal-{mode}", "log": proc.stdout[-2000:] + proc.stderr[-500:]})
