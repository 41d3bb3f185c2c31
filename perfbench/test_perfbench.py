"""Tests of the benchmark's own arithmetic and metadata.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import re
import types
from pathlib import Path

import pytest

import instrument
import run
from tracing import Span, Tracer, covered_length, descendants, self_times
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def make_spans(*rows):
    """Spans from (name, start, end, parent) rows; ids follow row order."""
    spans = []
    for i, (name, start, end, parent) in enumerate(rows):
        s = Span(i, name, start, parent, "test")
        s.end = end
        spans.append(s)
    return spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered_length([(1.0, 4.0), (2.0, 6.0), (5.0, 7.0)], 0.0, 10.0) == 6.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([(3.0, 3.0)], 0.0, 10.0) == 0.0


def test_self_times_subtract_children_and_add_up_to_root():
    spans = make_spans(
        ("run", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    )
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = make_spans(("run", 0.0, 10.0, None), ("t1", 1.0, 6.0, 0), ("t2", 4.0, 8.0, 0))
    assert self_times(spans)[0] == 3.0


def test_descendants_follow_the_tree():
    spans = make_spans(
        ("r1", 0.0, 4.0, None), ("x", 1.0, 2.0, 0), ("y", 1.2, 1.8, 1),
        ("r2", 5.0, 9.0, None), ("z", 6.0, 7.0, 3),
    )
    assert [s.name for s in descendants(spans, 0)] == ["x", "y"]
    assert [s.name for s in descendants(spans, 3)] == ["z"]


def test_wrap_records_nested_spans_and_unwrap_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    seen = []
    tracer = Tracer("run-1", clock=FakeClock())
    tracer.wrap(mod, "inner", "layer.inner", lambda t, a, k, r: seen.append((a, r)))
    tracer.wrap(mod, "outer", lambda a, k: f"layer.outer{a[0]}")
    with tracer.span("iteration"):
        assert mod.outer(3) == 8
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("iteration", None, "run-1"), ("layer.outer3", 0, "run-1"), ("layer.inner", 1, "run-1"),
    ]
    assert seen == [((3,), 4)]
    tracer.unwrap_all()
    assert (mod.inner, mod.outer) == original


def test_root_metrics_account_for_the_whole_iteration():
    tracer = Tracer("run-1")
    tracer.spans = make_spans(
        ("iteration", 0.0, 10.0, None),
        ("cli.main", 0.5, 9.5, 0),
        ("cli.cmd_measure", 1.0, 9.0, 1),
        ("centrality.measure_all", 1.5, 8.5, 2),
        ("model.build_graph", 1.5, 2.0, 3),
        ("centrality.hc", 2.0, 7.0, 3),
        ("bon.kmeans", 8.5, 8.75, 2),
    )
    tracer.counts = [(0, "centrality.networks", 1), (0, "centrality.networks", 1)]
    (m,) = instrument.root_metrics(tracer, [0])
    assert m["centrality.hc_s"] == 5.0
    assert m["cli.measure_s"] == 8.0
    assert m["model.build_graph_s"] == 0.5
    assert m["bon.kmeans_s"] == 0.25
    assert m["centrality.self_s"] == 6.5  # measure_all's 1.5 s of glue plus hc
    assert m["cli.self_s"] == 1.75  # main's own 1 s plus the command's 0.75 s
    assert m["centrality.networks"] == 2
    assert m["trace.unattributed_s"] == 1.0
    assert m["trace.wall_s"] == 10.0
    assert instrument.accounting_error(m) == 0.0


def test_metric_names_are_well_formed_and_unique():
    names = list(run.END_TO_END_UNITS) + instrument.per_layer_names()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_what_the_benchmark_reports():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in BENCHMARK["per_layer"]] == instrument.per_layer_names()
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    for m in BENCHMARK["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for w in BENCHMARK["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_derived_seeds_repeat_and_differ_across_seeds(seed):
    assert run.derive_seeds(seed) == run.derive_seeds(seed)
    assert run.derive_seeds(seed) != run.derive_seeds(seed + 1)
