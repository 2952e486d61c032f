import shutil
import threading
from dataclasses import replace

import pytest

from rtlmorph import nodes as n
from rtlmorph import parse, elaborate, instantiate, Stimulus
from rtlmorph.errors import SettleDivergence, UnsupportedConstruct
from rtlmorph.traceio import (
    emit_cosim_bundle, parse_cosim_output, stimulus_to_csv, trace_to_csv,
    write_vcd,
)

from conftest import design_text


def clocked_stimulus(cycles, reset_cycles=1, extra=None):
    steps = []
    for cyc in range(cycles):
        r = 1 if cyc < reset_cycles else 0
        base = {"clk": 0, "reset": r}
        if extra:
            base.update(extra(cyc))
        steps.append(dict(base))
        steps.append(dict(base, clk=1))
    return Stimulus(steps)


@pytest.fixture(scope="module")
def counter_design():
    return elaborate(parse(design_text("counter")))


def test_zero_init(counter_design):
    inst = instantiate(counter_design)
    assert inst.state["count"] == 0


def test_dual_clock_chain_registers_zero_init():
    text = """module chain(input wire clk1, input wire clk2,
    input wire [7:0] din, output wire [7:0] dout);
    reg [7:0] regA;
    reg [7:0] sync_reg1;
    reg [7:0] sync_reg2;
    reg [7:0] regB;
    always @(posedge clk1) begin
        regA <= din;
        sync_reg1 <= regA;
    end
    always @(posedge clk2) begin
        sync_reg2 <= sync_reg1;
        regB <= sync_reg2;
    end
    assign dout = regB;
endmodule
"""
    inst = instantiate(elaborate(parse(text)))
    for reg in ("regA", "sync_reg1", "sync_reg2", "regB"):
        assert inst.state[reg] == 0


def test_wraparound_at_15(counter_design):
    inst = instantiate(counter_design)
    # drive to 15 then one more posedge
    inst.eval({"clk": 0, "reset": 1})
    inst.eval({"clk": 1, "reset": 1})
    inst.eval({"clk": 0, "reset": 0})
    for _ in range(15):
        inst.eval({"clk": 1, "reset": 0})
        inst.eval({"clk": 0, "reset": 0})
    assert inst.state["count"] == 15
    out = inst.eval({"clk": 1, "reset": 0})
    assert out["count"] == 0


def test_async_reset_overrides(counter_design):
    inst = instantiate(counter_design)
    inst.eval({"clk": 0, "reset": 0})
    for _ in range(5):
        inst.eval({"clk": 1, "reset": 0})
        inst.eval({"clk": 0, "reset": 0})
    assert inst.state["count"] == 5
    out = inst.eval({"clk": 0, "reset": 1})  # posedge reset alone
    assert out["count"] == 0


def test_no_edge_no_register_change(counter_design):
    inst = instantiate(counter_design)
    inst.eval({"clk": 0, "reset": 1})
    inst.eval({"clk": 1, "reset": 1})
    inst.eval({"clk": 0, "reset": 0})
    inst.eval({"clk": 1, "reset": 0})
    before = inst.state["count"]
    out = inst.eval({"clk": 1, "reset": 0})  # clk held high: no edge
    assert out["count"] == before


def test_counter_34_step_run(counter_design):
    inst = instantiate(counter_design)
    stim = clocked_stimulus(17)
    trace = inst.run(stim)
    assert len(trace) == 34
    samples = [trace.steps[2 * i + 1]["count"] for i in range(17)]
    assert samples == list(range(16)) + [0]


def test_empty_stimulus(counter_design):
    inst = instantiate(counter_design)
    assert len(inst.run(Stimulus(()))) == 0


def test_missing_input_rejected(counter_design):
    inst = instantiate(counter_design)
    with pytest.raises(Exception):
        inst.eval({"clk": 1})


def test_nonblocking_order_is_irrelevant():
    """Swapping textual order of NBAs to distinct targets never changes a
    trace (checked on every corpus clocked block by reversing them)."""

    def reverse_nbas(stmt):
        if isinstance(stmt, n.Block):
            kids = [reverse_nbas(s) for s in stmt.stmts]
            nba_idx = [i for i, s in enumerate(kids)
                       if isinstance(s, n.NonblockingAssign)]
            targets = [n.lvalue_base(kids[i].lhs) for i in nba_idx]
            if len(set(targets)) == len(targets):
                reordered = list(kids)
                for pos, take in zip(nba_idx, reversed(nba_idx)):
                    reordered[pos] = kids[take]
                return replace(stmt, stmts=tuple(reordered))
            return replace(stmt, stmts=tuple(kids))
        if isinstance(stmt, n.If):
            return replace(stmt, then_stmt=reverse_nbas(stmt.then_stmt),
                           else_stmt=reverse_nbas(stmt.else_stmt)
                           if stmt.else_stmt else None)
        if isinstance(stmt, n.Case):
            return replace(stmt, arms=tuple(
                n.CaseArm(a.labels, reverse_nbas(a.body)) for a in stmt.arms),
                default=reverse_nbas(stmt.default) if stmt.default else None)
        return stmt

    for name in ("traffic_light", "frame_tx", "pipe_xor", "accum_tail"):
        unit = parse(design_text(name))
        module = unit.modules[0]
        items = tuple(
            replace(item, body=reverse_nbas(item.body))
            if isinstance(item, n.ProcBlock) else item
            for item in module.items)
        permuted = replace(module, items=items)
        stim = clocked_stimulus(200, extra=lambda cyc: (
            {"din": (cyc * 37) & 0xFF} if name in ("pipe_xor",) else
            {"inc": (cyc * 5) & 0xF} if name == "accum_tail" else
            {"start": cyc % 7 == 0, "data": (cyc * 11) & 0xFF} if name == "frame_tx"
            else {}))
        t1 = instantiate(elaborate(unit)).run(stim)
        t2 = instantiate(elaborate(n.SourceUnit((permuted,)))).run(stim)
        assert t1.steps == t2.steps, name


def test_determinism_across_threads():
    unit = parse(design_text("traffic_light"))
    stim = clocked_stimulus(300)
    results = []

    def worker():
        d = elaborate(parse(design_text("traffic_light")))
        results.append(instantiate(d).run(stim))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = instantiate(elaborate(unit)).run(stim)
    for r in results:
        assert r.steps == baseline.steps


def test_part_select_writes():
    text = """module t(input wire clk, input wire a, output reg [3:0] y);
    always @(posedge clk) begin
        y[0] <= a;
        y[3:2] <= {a, a};
    end
endmodule
"""
    inst = instantiate(elaborate(parse(text)))
    inst.eval({"clk": 0, "a": 1})
    out = inst.eval({"clk": 1, "a": 1})
    assert out["y"] == 0b1101



def test_bit_chain_within_one_signal_needs_the_settle_fixpoint():
    # elaboration drops the base signal from a part-select assign's reads,
    # so x[1] <- x[0] is not ordered and one pass of the comb units is short
    text = """module t(input wire a, output wire [1:0] y);
    wire [1:0] x;
    assign x[1:0] = {x[0], a};
    assign y = x;
endmodule
"""
    inst = instantiate(elaborate(parse(text)))
    state = dict.fromkeys(inst.cm.signal_names, 0)
    state["a"] = 1
    for f in inst.cm.comb_fns:
        f(state, inst.hooks)
    assert state["y"] == 1
    assert inst.eval({"a": 1})["y"] == 3


def test_bit_loop_within_one_signal_diverges():
    text = """module t(input wire a, output wire y);
    wire [1:0] x;
    assign x[0] = ~x[0];
    assign y = x[0];
endmodule
"""
    with pytest.raises(SettleDivergence):
        instantiate(elaborate(parse(text)))

def test_instances_not_simulatable():
    text = """module leaf(input wire a, output wire y);
    assign y = a;
endmodule
module top(input wire a, output wire y);
    leaf u1(.a(a), .y(y));
endmodule
"""
    with pytest.raises(UnsupportedConstruct):
        instantiate(elaborate(parse(text), top="top"))


def test_trace_csv_and_vcd(tmp_path, counter_design):
    inst = instantiate(counter_design)
    stim = clocked_stimulus(4)
    trace = inst.run(stim)
    csv = trace_to_csv(trace)
    assert csv.splitlines()[0] == "count"
    assert len(csv.splitlines()) == 9
    assert stimulus_to_csv(stim).splitlines()[0] == "clk,reset"
    vcd = tmp_path / "t.vcd"
    write_vcd(str(vcd), stim, trace, {"clk": 1, "reset": 1, "count": 4})
    body = vcd.read_text()
    assert "$var wire 4" in body and "$enddefinitions" in body


def test_traffic_light_hand_timed_sequence():
    """Hand-derived schedule: highway green 6 cycles, yellow 2, then 8
    cycles of highway red while the farm side runs green 6 and yellow 2 -
    a 16-cycle period starting at the reset cycle itself (the async reset
    lands in the green state immediately). Light codes: 0 green, 1 yellow,
    2 red."""
    inst = instantiate(elaborate(parse(design_text("traffic_light"))))
    stim = clocked_stimulus(32)  # two full periods
    trace = inst.run(stim)
    hwy = [trace.steps[2 * i + 1]["hwy_light"] for i in range(32)]
    farm = [trace.steps[2 * i + 1]["farm_light"] for i in range(32)]
    period_hwy = [0] * 6 + [1] * 2 + [2] * 8
    period_farm = [2] * 8 + [0] * 6 + [1] * 2
    assert hwy == period_hwy * 2
    assert farm == period_farm * 2


def test_frame_tx_hand_computed_bits():
    """One byte framed: the start-cycle edge latches the data and enters
    the send state, so its own sample already shows bit 0; bits stream
    LSB-first for 8 cycles while busy, then a 2-cycle gap."""
    inst = instantiate(elaborate(parse(design_text("frame_tx"))))
    data = 0b10110010
    samples = []

    def cycle(start, data_v):
        inst.eval({"clk": 0, "reset": 0, "start": start, "data": data_v})
        samples.append(inst.eval({"clk": 1, "reset": 0, "start": start,
                                  "data": data_v}))

    inst.eval({"clk": 0, "reset": 1, "start": 0, "data": 0})
    inst.eval({"clk": 1, "reset": 1, "start": 0, "data": 0})
    cycle(1, data)
    for _ in range(12):
        cycle(0, 0)
    bits = [s["out_bit"] for s in samples]
    busy = [s["busy"] for s in samples]
    expected_bits = [(data >> i) & 1 for i in range(8)]
    assert bits[:8] == expected_bits
    assert busy[:10] == [1] * 10  # 8 send + 2 gap cycles
    assert busy[10] == 0


def test_cosim_bundle_structure(tmp_path, counter_design):
    stim = clocked_stimulus(5)
    bundle = emit_cosim_bundle(counter_design, stim, str(tmp_path))
    assert bundle["outputs"] == ["count"]
    tb = open(bundle["tb"]).read()
    assert "counter dut(" in tb and "$readmemh" in tb and "$display" in tb
    assert (tmp_path / "stim_clk.hex").read_text().splitlines() == \
        ["0", "1"] * 5
    run = open(bundle["run"]).read()
    assert "iverilog" in run and "vvp" in run
    # output parser ignores tool noise around the table
    rows = parse_cosim_output("noise\n0 3\n1 4\nbye\n", ["count"])
    assert rows == [{"count": 3}, {"count": 4}]


@pytest.mark.skipif(shutil.which("iverilog") is None or shutil.which("vvp") is None,
                    reason="external simulator not installed")
def test_cosim_against_icarus(tmp_path, counter_design):
    import subprocess
    inst = instantiate(counter_design)
    stim = clocked_stimulus(20)
    trace = inst.run(stim)
    bundle = emit_cosim_bundle(counter_design, stim, str(tmp_path))
    proc = subprocess.run(["sh", bundle["run"]], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = parse_cosim_output(proc.stdout, bundle["outputs"])
    assert len(rows) == len(trace)
    # compare once X-state has been flushed by the reset prologue
    for i in range(2, len(rows)):
        assert rows[i] == trace.steps[i], i
