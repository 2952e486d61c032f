"""Trace and stimulus export: CSV, VCD, and an Icarus Verilog
cosimulation bundle (self-checking testbench plus run script)."""

import os

from . import nodes as n
from .emitter import emit


def stimulus_to_csv(stim) -> str:
    if len(stim) == 0:
        return "\n"
    names = sorted(stim.steps[0])
    lines = [",".join(names)]
    for step in stim.steps:
        lines.append(",".join(str(step[name]) for name in names))
    return "\n".join(lines) + "\n"


def _vcd_id(i):
    chars = "".join(chr(c) for c in range(33, 127))
    out = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, len(chars))
        out = chars[rem] + out
    return out


def write_vcd(path, stim, trace, widths, timescale="1ns"):
    """Dump inputs (from the stimulus) and outputs (from the trace) as a
    VCD waveform, one timestep per eval step."""
    in_names = sorted(stim.steps[0]) if len(stim) else []
    out_names = sorted(trace.steps[0]) if len(trace) else []
    names = in_names + [o for o in out_names if o not in in_names]
    ids = {name: _vcd_id(i) for i, name in enumerate(names)}
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"$timescale {timescale} $end\n$scope module dut $end\n")
        for name in names:
            w = widths.get(name, 1)
            f.write(f"$var wire {w} {ids[name]} {name} $end\n")
        f.write("$upscope $end\n$enddefinitions $end\n")
        last = {}
        for t in range(max(len(stim), len(trace))):
            f.write(f"#{t}\n")
            values = {}
            if t < len(stim):
                values.update(stim.steps[t])
            if t < len(trace):
                values.update(trace.steps[t])
            for name, v in values.items():
                if last.get(name) == v:
                    continue
                last[name] = v
                w = widths.get(name, 1)
                if w == 1:
                    f.write(f"{v}{ids[name]}\n")
                else:
                    f.write(f"b{v:b} {ids[name]}\n")
        f.write(f"#{max(len(stim), len(trace))}\n")


_TB_TEMPLATE = """`timescale 1ns/1ps
module tb;
{decls}
    {module} dut({conns});
    integer step;
    initial begin
{init}
        for (step = 0; step < {nsteps}; step = step + 1) begin
{drive}
            #1;
            $display("%0d{fmt}", step{args});
            #1;
        end
        $finish;
    end
endmodule
"""


def emit_cosim_bundle(design, stim, outdir, top=None):
    """Write dut.v, tb.v, and run.sh for an external Icarus Verilog run.

    The testbench replays the stimulus table and prints one line per step:
    step number followed by each output in decimal. parse_cosim_output()
    turns that back into rows comparable with an in-process Trace.
    """
    em = design.modules[top or design.top]
    os.makedirs(outdir, exist_ok=True)
    dut_path = os.path.join(outdir, "dut.v")
    with open(dut_path, "w", encoding="utf-8") as f:
        f.write(emit(design.unit))

    in_sigs = [(s.name, s.width) for s in em.inputs]
    out_sigs = [(s.name, s.width) for s in em.outputs]
    decls = []
    for name, w in in_sigs:
        rng = f"[{w-1}:0] " if w > 1 else ""
        decls.append(f"    reg {rng}{name};")
    for name, w in out_sigs:
        rng = f"[{w-1}:0] " if w > 1 else ""
        decls.append(f"    wire {rng}{name};")
    conns = ", ".join(f".{name}({name})" for name, _ in in_sigs + out_sigs)

    init = "\n".join(f"        {name} = 0;" for name, _ in in_sigs)
    # stimulus as $readmemh memories, one per input
    mem_decls, mem_loads, drive = [], [], []
    for name, w in in_sigs:
        mem = f"stim_{name}"
        mem_decls.append(f"    reg [{max(w,1)-1}:0] {mem} [0:{max(len(stim)-1,0)}];")
        mem_path = os.path.join(outdir, f"{mem}.hex")
        with open(mem_path, "w", encoding="utf-8") as f:
            f.write("\n".join(format(step[name], "x") for step in stim.steps) + "\n")
        mem_loads.append(f'        $readmemh("{mem}.hex", {mem});')
        drive.append(f"            {name} = {mem}[step];")

    fmt = "".join(" %0d" for _ in out_sigs)
    args = "".join(f", {name}" for name, _ in out_sigs)
    tb = _TB_TEMPLATE.format(
        decls="\n".join(decls + mem_decls),
        module=em.decl.name,
        conns=conns,
        init=init + ("\n" if mem_loads else "") + "\n".join(mem_loads),
        nsteps=len(stim),
        drive="\n".join(drive),
        fmt=fmt,
        args=args,
    )
    tb_path = os.path.join(outdir, "tb.v")
    with open(tb_path, "w", encoding="utf-8") as f:
        f.write(tb)
    run_path = os.path.join(outdir, "run.sh")
    with open(run_path, "w", encoding="utf-8") as f:
        f.write("#!/bin/sh\nset -e\ncd \"$(dirname \"$0\")\"\n"
                "iverilog -g2001 -o sim.vvp dut.v tb.v\n"
                "vvp sim.vvp\n")
    os.chmod(run_path, 0o755)
    return {"dut": dut_path, "tb": tb_path, "run": run_path,
            "outputs": [name for name, _ in out_sigs]}


def parse_cosim_output(text, outputs):
    """Rows of {output: value} from the testbench's $display lines."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != len(outputs) + 1 or not parts[0].isdigit():
            continue
        rows.append({name: int(v) for name, v in zip(outputs, parts[1:])})
    return rows
