import json

import pytest
from hypothesis import given, strategies as st

from rtlmorph import parse
from rtlmorph.errors import MisalignedDesignSets, UnparsableReport
from rtlmorph.metrics import (
    METRIC_NAMES, CategoryReport, MetricSet, NormalizedRatio, aggregate,
    normalize, parse_tool_stat, parse_tool_stat_json, ratios_to_jsonl,
    render_report, structural_stats,
)

from conftest import design_text


def scaled(m, k):
    return MetricSet(m.wires * k, m.cells * k, m.area * k, m.delay * k,
                     m.power * k, dict(m.provenance))


def parse_report_csv(text):
    """A report rendered as CSV, read back."""
    lines = [l for l in text.strip().split("\n") if l]
    assert lines[0] == "category,method,metric,mean,arrow"
    category = None
    methods = []
    means, arrows = {}, {}
    for line in lines[1:]:
        cat, method, metric, mean_s, arrow = line.split(",")
        category = cat
        if method not in methods:
            methods.append(method)
        means[(method, metric)] = None if mean_s == "" else float(mean_s)
        arrows[(method, metric)] = arrow
    return CategoryReport(category, tuple(methods), means, arrows)


def test_tool_stat_text():
    report = """
=== counter ===

   Number of wires:                 42
   Number of wire bits:             57
   Number of public wires:          12
   Number of cells:                 17
     $add                            1
     $dff                            4

"""
    m = parse_tool_stat(report)
    assert m.wires == 42 and m.cells == 17
    assert m.provenance["wires"] == "ToolReported"
    assert m.provenance["delay"] == "ProxyComputed"


def test_tool_stat_json():
    payload = {"modules": {"counter": {"num_wires": 42, "num_cells": 17,
                                       "area": 120.5}}}
    m = parse_tool_stat_json(payload)
    assert m.wires == 42 and m.cells == 17 and m.area == 120.5
    m2 = parse_tool_stat_json(json.dumps({"design": {"num_wires": 3, "num_cells": 2}}))
    assert m2.wires == 3 and m2.area == 2  # cells fallback


def test_unparsable_report():
    with pytest.raises(UnparsableReport):
        parse_tool_stat("nothing useful here")


def test_empty_netlist_all_zeros():
    m = structural_stats(parse("module m;\nendmodule"))
    assert (m.wires, m.cells, m.area, m.delay, m.power) == (0, 0, 0.0, 0.0, 0.0)


def test_and_chain_delay_three_levels():
    text = """module chain3(
    input wire a,
    input wire b,
    input wire c,
    input wire d,
    output wire y
);
    wire w1;
    wire w2;
    assign w1 = a & b;
    assign w2 = w1 & c;
    assign y = w2 & d;
endmodule
"""
    m = structural_stats(parse(text))
    assert m.delay == 3
    assert m.provenance["delay"] == "ProxyComputed"


def test_structural_stats_counts():
    m = structural_stats(parse(design_text("counter")))
    # 3 ports, no nets; 4 flop bits plus the expression operators
    assert m.wires == 3
    assert m.cells >= 4
    assert m.power == m.cells  # unit-activity proxy


def test_normalize_table_cells():
    ref = MetricSet(delay=100, area=100, power=100)
    m = MetricSet(delay=86, area=793, power=300)
    ratios = {r.metric: r.value for r in normalize(m, ref, "d", "GPT_mut")}
    assert ratios["delay"] == pytest.approx(0.86)
    assert ratios["area"] == pytest.approx(7.93)
    assert ratios["power"] == pytest.approx(3.00)
    claude = MetricSet(area=55)
    r = {x.metric: x.value for x in normalize(claude, MetricSet(area=100), "d", "c")}
    assert r["area"] == pytest.approx(0.55)


def test_normalize_self_is_one():
    m = MetricSet(wires=10, cells=20, area=20, delay=3, power=20)
    for r in normalize(m, m):
        assert r.value == pytest.approx(1.0)


def test_normalize_zero_reference_undefined():
    m = MetricSet(wires=10)
    ratios = normalize(m, MetricSet(wires=5))
    by = {r.metric: r for r in ratios}
    assert by["wires"].value == 2.0
    assert by["cells"].value is None and not by["cells"].defined


@given(k=st.floats(min_value=0.001, max_value=1000, allow_nan=False),
       vals=st.tuples(*[st.floats(min_value=0.01, max_value=100) for _ in range(5)]))
def test_scale_invariance(k, vals):
    m = MetricSet(*vals)
    ref = MetricSet(5, 4, 3, 2, 1)
    a = [(r.metric, r.value) for r in normalize(m, ref)]
    b = [(r.metric, r.value) for r in normalize(scaled(m, k), scaled(ref, k))]
    for (ma, va), (mb, vb) in zip(a, b):
        assert ma == mb
        assert va == pytest.approx(vb, rel=1e-9)


def test_aggregate_mean_and_arrow():
    ratios = [NormalizedRatio("d1", "m", "wires", 0.89),
              NormalizedRatio("d2", "m", "wires", 0.94)]
    report = aggregate(ratios, "x")
    mean, arrow = report.cell("m", "wires")
    assert mean == pytest.approx(0.915)
    assert arrow == "down"


def test_aggregate_single_flat():
    report = aggregate([NormalizedRatio("d", "m", "area", 1.00)], "x")
    assert report.cell("m", "area") == (1.00, "flat")


def test_aggregate_epsilon_boundary():
    up = aggregate([NormalizedRatio("d", "m", "area", 1.006)], "x")
    assert up.cell("m", "area")[1] == "up"
    flat = aggregate([NormalizedRatio("d", "m", "area", 1.004)], "x")
    assert flat.cell("m", "area")[1] == "flat"


def test_aggregate_misaligned():
    ratios = [NormalizedRatio("d1", "m1", "area", 1.0),
              NormalizedRatio("d2", "m2", "area", 1.0)]
    with pytest.raises(MisalignedDesignSets):
        aggregate(ratios, "x")


def test_render_markdown_reference_row():
    ratios = []
    for metric in ("delay", "area", "power"):
        ratios.append(NormalizedRatio("d1", "Yosys_org", metric, 1.0))
    report = aggregate(ratios, "timing_control")
    md = render_report(report, "markdown")
    assert "| Yosys_org | 1.00 -- | 1.00 -- | 1.00 -- |" in md


def test_render_empty_report():
    report = aggregate([], "empty")
    md = render_report(report, "markdown")
    assert md.startswith("### empty")
    assert "| Method |" in md


def test_csv_roundtrip():
    ratios = [NormalizedRatio("d1", "A", "area", 1.5),
              NormalizedRatio("d1", "A", "delay", 0.75),
              NormalizedRatio("d1", "B", "area", 1.0)]
    report = aggregate(ratios, "cat")
    text = render_report(report, "csv")
    back = parse_report_csv(text)
    assert back == report


@given(values=st.lists(
    st.tuples(st.sampled_from(["m1", "m2"]), st.sampled_from(METRIC_NAMES),
              st.floats(min_value=0.01, max_value=50)),
    min_size=1, max_size=20))
def test_csv_roundtrip_property(values):
    ratios = [NormalizedRatio("d", method, metric, v)
              for method, metric, v in values]
    report = aggregate(ratios, "cat")
    assert parse_report_csv(render_report(report, "csv")) == report


def test_ratios_jsonl_sorted_and_stable():
    ratios = [NormalizedRatio("b", "m", "area", 2.0),
              NormalizedRatio("a", "m", "area", 1.0)]
    text = ratios_to_jsonl(ratios)
    lines = text.strip().split("\n")
    assert json.loads(lines[0])["design"] == "a"
    assert ratios_to_jsonl(list(reversed(ratios))) == text


def test_metric_set_rejects_negative():
    with pytest.raises(ValueError):
        MetricSet(wires=-1)
