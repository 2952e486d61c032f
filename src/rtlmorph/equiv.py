"""Equivalence oracles between two designs, semantics-breaking negative
controls for validating oracle sensitivity, and an exported miter bundle
for an external formal flow.

The in-process simulator is the authoritative oracle: combinational pairs
up to 20 input bits are checked exhaustively, everything else by seeded
randomized trials with a reset prologue and per-output latency alignment
(offsets come from the mutant's MutationRecord). An Inequivalent verdict
always carries a replayable counterexample.
"""

import hashlib
import os
from dataclasses import dataclass, field, replace
from random import Random
from typing import Optional

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


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str  # "equivalent" | "inequivalent" | "inconclusive"
    evidence: dict = field(default_factory=dict)
    counterexample: Optional["Counterexample"] = None

    @property
    def is_equivalent(self):
        return self.status == "equivalent"


@dataclass(frozen=True)
class Counterexample:
    """Stimulus prefix up to and including the first divergent cycle.
    step_a/step_b differ when the comparison was offset-aligned."""
    stimulus_a: Stimulus
    stimulus_b: Stimulus
    cycle: int
    step_a: int
    step_b: int
    signal: str
    expected: int
    actual: int

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
        csv_path = os.path.join(outdir, "counterexample_stimulus.csv")
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(stimulus_to_csv(self.stimulus_a))
        vcd_path = os.path.join(outdir, "counterexample.vcd")
        write_vcd(vcd_path, self.stimulus_a, Trace(()), widths or {})
        note = os.path.join(outdir, "counterexample.txt")
        with open(note, "w", encoding="utf-8") as f:
            f.write(f"cycle {self.cycle} step {self.step_b} signal {self.signal}: "
                    f"expected {self.expected}, got {self.actual}\n")
        return {"csv": csv_path, "vcd": vcd_path, "note": note}


@dataclass(frozen=True)
class EquivConfig:
    mode: str = "auto"  # "auto" | "exhaustive" | "random"
    trials: int = 16
    cycles: int = 2000
    seed: int = 0
    reset_prologue: int = 4
    offsets: dict = field(default_factory=dict)
    clock_map: dict = field(default_factory=dict)
    reset_storm_trials: int = 1

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


def check_comb_exhaustive(a, b) -> EquivalenceVerdict:
    """All 2^w input assignments; inputs packed LSB-first in port order."""
    ea, eb = _design(a), _design(b)
    ma, mb = ea.top_module, eb.top_module
    for em, which in ((ma, "first"), (mb, "second")):
        if any(blk.kind == "clocked" for blk in em.blocks):
            raise PortMismatch(f"{which} design is not purely combinational")
    ins, outs = _check_ports(ma, mb, {})
    total = sum(w for _, w in ins)
    if total > 20:
        raise TooWide(f"{total} input bits exceeds the exhaustive cap of 20")
    ia, ib = SimInstance(ea), SimInstance(eb)
    for v in range(1 << total):
        assign = {}
        off = 0
        for name, w in ins:
            assign[name] = (v >> off) & ((1 << w) - 1)
            off += w
        oa = ia.eval(assign)
        ob = ib.eval(assign)
        if oa != ob:
            sig = sorted(k for k in oa if oa[k] != ob[k])[0]
            # combinational: a one-step stimulus replays the divergence
            stim = Stimulus((assign,))
            cex = Counterexample(stim, stim, cycle=v, step_a=0, step_b=0,
                                 signal=sig, expected=oa[sig], actual=ob[sig])
            return EquivalenceVerdict("inequivalent",
                                      {"vectors_tried": v + 1, "inputs": assign},
                                      cex)
    return EquivalenceVerdict("equivalent", {"vectors": 1 << total, "mode": "exhaustive"})


# --- randomized sequential check ----------------------------------------------


def _clocks_and_resets(em, clocks=None, resets=None):
    if clocks is None:
        clocks = em.clocks()
    if resets is None:
        resets = em.async_resets()
    input_names = {s.name for s in em.inputs}
    return [c for c in clocks if c in input_names], \
        [r for r in resets if r in input_names]


def _build_cycles(ins, clocks, resets, cycles, prologue, rng, storm):
    """Per-cycle data/reset values; clocks are toggled by the runner."""
    data_names = [name for name, _ in ins
                  if name not in clocks and name not in resets]
    widths = dict(ins)
    storm_at = cycles // 2 if storm and cycles > 2 * prologue + 4 else None
    out = []
    for t in range(cycles):
        in_reset = t < prologue or (storm_at is not None and
                                    storm_at <= t < storm_at + prologue)
        vals = {name: rng.getrandbits(widths[name]) for name in data_names}
        for r in resets:
            vals[r] = 1 if in_reset else 0
        out.append((vals, in_reset))
    return out


def _steps_for(cycle_vals, clocks, clock_map, extra_inputs):
    """Two steps per cycle: clock low with fresh data, then clock high."""
    steps = []
    for vals, _ in cycle_vals:
        for phase in (0, 1):
            step = dict(vals)
            for c in clocks:
                step[c] = phase
            for extra in extra_inputs:
                step[extra] = step[clock_map[extra]]
            steps.append(step)
    return steps


def check_seq_random(a, b, cfg: EquivConfig = None, clocks=None, resets=None) \
        -> EquivalenceVerdict:
    """Seeded random trials with reset prologue; per-cycle comparison at
    posedge samples, aligned by the declared per-output offsets."""
    cfg = cfg or EquivConfig()
    ea, eb = _design(a), _design(b)
    ma, mb = ea.top_module, eb.top_module
    ins, outs = _check_ports(ma, mb, cfg.clock_map)
    clocks, resets = _clocks_and_resets(ma, clocks, resets)
    extra_inputs = [s.name for s in mb.inputs if s.name not in {x for x, _ in ins}]
    if cfg.trials < 1 or cfg.cycles < 1:
        return EquivalenceVerdict("inconclusive", {"reason": "empty budget"})

    out_names = [name for name, _ in outs]
    offsets = {name: cfg.offsets.get(name, 0) for name in out_names}
    seeds = []
    total_cycles = 0
    for trial in range(cfg.trials):
        seed = _mix(cfg.seed, "trial", trial)
        seeds.append(seed)
        rng = Random(seed)
        storm = trial < cfg.reset_storm_trials
        cycle_vals = _build_cycles(ins, clocks, resets, cfg.cycles,
                                   cfg.reset_prologue, rng, storm)
        steps_a = _steps_for(cycle_vals, clocks, {}, [])
        steps_b = _steps_for(cycle_vals, clocks, cfg.clock_map, extra_inputs)
        ia, ib = SimInstance(ea), SimInstance(eb)
        hist_a = []
        hist_b = []
        last_reset = -1
        per_cycle = 2 if clocks else 1
        if not clocks:
            steps_a = [vals for vals, _ in cycle_vals]
            steps_b = [dict(vals, **{e: vals[cfg.clock_map[e]] for e in extra_inputs})
                       for vals, _ in cycle_vals]
        for t, (vals, in_reset) in enumerate(cycle_vals):
            for p in range(per_cycle):
                oa = ia.eval(steps_a[t * per_cycle + p])
                ob = ib.eval(steps_b[t * per_cycle + p])
            hist_a.append(oa)
            hist_b.append(ob)
            if in_reset:
                # both sides are clamped by the asynchronous reset, so
                # outputs must agree directly (offset 0) even here
                last_reset = t
                for name in out_names:
                    if ob[name] != oa[name]:
                        stim_a = Stimulus(tuple(steps_a[:(t + 1) * per_cycle]))
                        stim_b = Stimulus(tuple(steps_b[:(t + 1) * per_cycle]))
                        cex = Counterexample(
                            stim_a, stim_b, cycle=t,
                            step_a=(t + 1) * per_cycle - 1,
                            step_b=(t + 1) * per_cycle - 1, signal=name,
                            expected=oa[name], actual=ob[name])
                        return EquivalenceVerdict(
                            "inequivalent",
                            {"trial": trial, "cycle": t, "signal": name,
                             "offset": 0, "seed": seed, "in_reset": True},
                            cex)
                continue
            for name in out_names:
                k = offsets[name]
                if t - k <= last_reset:
                    continue
                if hist_b[t][name] != hist_a[t - k][name]:
                    stim_a = Stimulus(tuple(steps_a[:(t + 1) * per_cycle]))
                    stim_b = Stimulus(tuple(steps_b[:(t + 1) * per_cycle]))
                    cex = Counterexample(
                        stim_a, stim_b, cycle=t,
                        step_a=(t - k + 1) * per_cycle - 1,
                        step_b=(t + 1) * per_cycle - 1, signal=name,
                        expected=hist_a[t - k][name], actual=hist_b[t][name])
                    return EquivalenceVerdict(
                        "inequivalent",
                        {"trial": trial, "cycle": t, "signal": name,
                         "offset": k, "seed": seed},
                        cex)
        total_cycles += cfg.cycles
    return EquivalenceVerdict("equivalent", {
        "mode": "random-bounded", "trials": cfg.trials,
        "cycles_per_trial": cfg.cycles, "total_cycles": total_cycles,
        "seeds": seeds, "note": "bounded evidence, not a proof",
    })


def check_equivalence(a, b, cfg: EquivConfig = None) -> EquivalenceVerdict:
    """Exhaustive for small pure-comb pairs, randomized otherwise."""
    cfg = cfg or EquivConfig()
    ea, eb = _design(a), _design(b)
    ma, mb = ea.top_module, eb.top_module
    comb = not any(blk.kind == "clocked" for blk in ma.blocks) and \
        not any(blk.kind == "clocked" for blk in mb.blocks)
    total = sum(s.width for s in ma.inputs)
    if cfg.mode == "exhaustive" or (cfg.mode == "auto" and comb and total <= 20):
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
