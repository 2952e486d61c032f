"""Synthesis metrics: extraction from netlists or external tool reports,
normalized ratios against a reference method, and per-category aggregation
with direction arrows.

When no external tool report is available, metrics are structural proxies
computed directly on the design (unit cell weights, topological depth for
delay, unit-activity power) and tagged ProxyComputed; ratios of proxies
remain comparable across methods because both sides use the same model.
"""

import json
import re
from dataclasses import dataclass, field

from . import nodes as n
from .elaborate import ElaboratedDesign, elaborate
from .errors import MisalignedDesignSets, UnparsableReport

TOOL_REPORTED = "ToolReported"
PROXY_COMPUTED = "ProxyComputed"

METRIC_NAMES = ("wires", "cells", "area", "delay", "power")

ARROW_EPSILON = 0.005


@dataclass(frozen=True)
class MetricSet:
    wires: float = 0.0
    cells: float = 0.0
    area: float = 0.0
    delay: float = 0.0
    power: float = 0.0
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name in METRIC_NAMES:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def value(self, name):
        return getattr(self, name)

    def to_dict(self):
        d = {name: self.value(name) for name in METRIC_NAMES}
        d["provenance"] = dict(self.provenance)
        return d


@dataclass(frozen=True)
class NormalizedRatio:
    design: str
    method: str
    metric: str
    value: float = None  # None when the reference value was zero

    @property
    def defined(self):
        return self.value is not None


@dataclass(frozen=True)
class CategoryReport:
    category: str
    methods: tuple  # method ids, row order
    means: dict  # (method, metric) -> mean ratio or None
    arrows: dict  # (method, metric) -> "up" | "down" | "flat"
    ratios: tuple = field(default=(), compare=False)  # per-design records

    def cell(self, method, metric):
        return self.means.get((method, metric)), self.arrows.get((method, metric))

    def metrics_present(self):
        out = [m for m in METRIC_NAMES
               if any(self.means.get((method, m)) is not None
                      for method in self.methods)]
        return out or list(METRIC_NAMES)


# --- structural proxy metrics ---------------------------------------------------


def _operator_cells(m: n.ModuleDecl):
    count = 0
    for e in n.module_exprs(m):
        for node in n.walk_expr(e):
            if isinstance(node, (n.Unary, n.Binary, n.Ternary)):
                count += 1
    return count


def _dff_bits(em):
    bits = 0
    seen = set()
    for b in em.blocks:
        if b.kind != "clocked":
            continue
        for w in b.writes:
            if w not in seen:
                seen.add(w)
                bits += em.signals[w].width
    return bits


def _comb_depth(em):
    """Longest operator path through continuous logic (unit delay model)."""
    m = em.folded

    def expr_depth(e, depth_of):
        if isinstance(e, n.Ref):
            return depth_of.get(e.name, 0)
        kids = [expr_depth(c, depth_of) for c in n.expr_children(e)]
        own = 1 if isinstance(e, (n.Unary, n.Binary, n.Ternary)) else 0
        return own + max(kids, default=0)

    depth_of = {}
    units = list(em.comb_order)
    for u in units:
        if u.kind == "init":
            depth_of[u.node.name] = expr_depth(u.node.init, depth_of)
        elif u.kind == "assign":
            depth_of[n.lvalue_base(u.node.lhs)] = expr_depth(u.node.rhs, depth_of)
        else:
            reads_depth = 0
            ops = 0
            for s in n.walk_stmts(u.node.body):
                for e in n.stmt_exprs(s):
                    reads_depth = max(reads_depth, expr_depth(e, depth_of))
                    for node in n.walk_expr(e):
                        if isinstance(node, (n.Unary, n.Binary, n.Ternary)):
                            ops = max(ops, 1)
            for w in u.writes:
                depth_of[w] = reads_depth + ops  # conservative block estimate

    inst_depth = 0
    for item in m.items:
        if isinstance(item, n.InstanceDecl):
            ins = [expr_depth(e, depth_of) for _, e in item.connections]
            inst_depth = max(inst_depth, 1 + max(ins, default=0))
            # structural netlists chain through instance outputs
            for pname, e in item.connections:
                if isinstance(e, n.Ref) and e.name not in depth_of:
                    depth_of[e.name] = inst_depth
    return max(list(depth_of.values()) + [inst_depth], default=0)


def structural_stats(design) -> MetricSet:
    """Proxy MetricSet from the design itself (no external tool):
    wires = ports + nets, cells = operator nodes + flop bits + instances,
    area = unit-weight cells, delay = operator levels, power = unit-activity
    cells."""
    if not isinstance(design, ElaboratedDesign):
        design = elaborate(design)
    em = design.top_module
    m = em.folded
    wires = len(m.ports) + len(m.nets)
    instances = sum(1 for item in m.items if isinstance(item, n.InstanceDecl))
    cells = _operator_cells(m) + _dff_bits(em) + instances
    delay = _comb_depth(em)
    prov = {name: PROXY_COMPUTED for name in METRIC_NAMES}
    return MetricSet(wires=wires, cells=cells, area=float(cells),
                     delay=float(delay), power=float(cells), provenance=prov)


# --- external tool reports -------------------------------------------------------


_STAT_PATTERNS = {
    "wires": re.compile(r"Number of wires:\s+(\d+)"),
    "cells": re.compile(r"Number of cells:\s+(\d+)"),
    "area": re.compile(r"Chip area for (?:top )?module '[^']*':\s+([0-9.]+)"),
}


def parse_tool_stat(text: str) -> MetricSet:
    """Human-readable statistics report from the external synthesis tool."""
    found = {}
    for name, pat in _STAT_PATTERNS.items():
        matches = pat.findall(text)
        if matches:
            found[name] = float(matches[-1])
    if "wires" not in found or "cells" not in found:
        raise UnparsableReport("no wire/cell counts in report")
    prov = {name: TOOL_REPORTED for name in found}
    for name in METRIC_NAMES:
        prov.setdefault(name, PROXY_COMPUTED)
    area = found.get("area", found["cells"])
    return MetricSet(wires=found["wires"], cells=found["cells"], area=area,
                     delay=0.0, power=0.0, provenance=prov)


def parse_tool_stat_json(payload) -> MetricSet:
    """JSON-stat form: {"design": {...}} or {"modules": {name: {...}}}."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    section = payload.get("design")
    if section is None:
        modules = payload.get("modules") or {}
        if not modules:
            raise UnparsableReport("no design/module sections in JSON stat")
        section = next(iter(modules.values()))
    try:
        wires = float(section["num_wires"])
        cells = float(section["num_cells"])
    except KeyError as exc:
        raise UnparsableReport(f"missing {exc} in JSON stat") from exc
    area = float(section.get("area", cells))
    prov = {name: TOOL_REPORTED for name in ("wires", "cells")}
    prov["area"] = TOOL_REPORTED if "area" in section else PROXY_COMPUTED
    prov["delay"] = prov["power"] = PROXY_COMPUTED
    return MetricSet(wires=wires, cells=cells, area=area, provenance=prov)


# --- normalization ----------------------------------------------------------------


def normalize(m: MetricSet, ref: MetricSet, design: str = "", method: str = ""):
    """Fieldwise m/ref; zero-reference fields come back undefined (value
    None) and are excluded from means downstream."""
    out = []
    for name in METRIC_NAMES:
        rv = ref.value(name)
        value = (m.value(name) / rv) if rv > 0 else None
        out.append(NormalizedRatio(design, method, name, value))
    return out


def aggregate(ratios, category: str) -> CategoryReport:
    """Arithmetic mean of per-design ratios per (method, metric); the
    design sets must line up across methods."""
    methods = []
    designs_of = {}
    by_cell = {}
    for r in ratios:
        if r.method not in methods:
            methods.append(r.method)
        designs_of.setdefault(r.method, set())
        if r.defined:
            designs_of[r.method].add(r.design)
            by_cell.setdefault((r.method, r.metric), []).append(r.value)

    covered = [frozenset(d) for d in designs_of.values() if d]
    if covered and len(set(covered)) > 1:
        raise MisalignedDesignSets(
            f"methods cover different design sets: "
            f"{sorted(tuple(sorted(c)) for c in set(covered))}")

    means, arrows = {}, {}
    for method in methods:
        for metric in METRIC_NAMES:
            vals = by_cell.get((method, metric))
            if not vals:
                means[(method, metric)] = None
                arrows[(method, metric)] = "flat"
                continue
            mean = sum(vals) / len(vals)
            means[(method, metric)] = mean
            if mean > 1 + ARROW_EPSILON:
                arrows[(method, metric)] = "up"
            elif mean < 1 - ARROW_EPSILON:
                arrows[(method, metric)] = "down"
            else:
                arrows[(method, metric)] = "flat"
    return CategoryReport(category, tuple(methods), means, arrows, tuple(ratios))


_ARROW_TEXT = {"up": "↑", "down": "↓", "flat": "--"}


def render_report(report: CategoryReport, fmt: str = "markdown") -> str:
    """Tables shaped like the evaluation write-up: method rows, metric
    columns, each cell `value arrow`."""
    if fmt == "markdown":
        cols = report.metrics_present()
        header = "| Method | " + " | ".join(m.capitalize() for m in cols) + " |"
        sep = "|---" * (len(cols) + 1) + "|"
        lines = [f"### {report.category}", "", header, sep]
        for method in report.methods:
            cells = []
            for metric in cols:
                mean, arrow = report.cell(method, metric)
                cells.append("n/a" if mean is None
                             else f"{mean:.2f} {_ARROW_TEXT[arrow]}")
            lines.append(f"| {method} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["category,method,metric,mean,arrow"]
        for method in report.methods:
            for metric in METRIC_NAMES:
                mean, arrow = report.cell(method, metric)
                mean_s = "" if mean is None else repr(mean)
                lines.append(f"{report.category},{method},{metric},{mean_s},{arrow}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt}")


def ratios_to_jsonl(ratios) -> str:
    """Machine-readable results: one record per NormalizedRatio."""
    lines = []
    for r in sorted(ratios, key=lambda r: (r.design, r.method, r.metric)):
        lines.append(json.dumps({
            "design": r.design, "method": r.method,
            "metric": r.metric, "value": r.value,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
