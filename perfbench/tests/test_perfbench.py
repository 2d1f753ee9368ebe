"""Tests of the benchmark itself: metric names, span arithmetic, wrapping,
golden gating, and the exact repeat of counts and outputs under tracing.

    python3 -m pytest perfbench/tests

The last test runs every workload traced, about two minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from girthlab import canonical, search  # noqa: E402
from layers import Tracer  # noqa: E402


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    traced = list(Tracer().layer_metrics(0.0)) + ["trace.overhead_s",
                                                  "failed_frac"]
    assert [m["name"] for m in bench["per_layer"]] == traced
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_self_time_subtracts_child_spans():
    t = Tracer()
    t.spans.extend([
        ("search.turan_number", 0.0, 10.0, -1),
        ("canonical.canonical_labeling", 1.0, 4.0, 0),
        ("canonical.last_edge_under", 2.0, 3.0, 1),
        ("graph.contains_cycle", 5.0, 6.0, 0),
        ("formats.graph6_encode", 11.0, 11.5, -1),
    ])
    t.search_nodes = {0: 7}
    m = t.layer_metrics(12.0)
    assert m["search.self_s"] == 6.0
    assert m["canonical.self_s"] == 3.0
    assert m["canonical.busy_s"] == 3.0  # the nested span is not counted twice
    assert m["graph.self_s"] == 1.0
    assert m["graph.contains_cycle.calls"] == 1
    assert m["search.nodes"] == 7
    assert m["search.nodes_per_s"] == 0.7
    assert m["trace.unattributed_s"] == 1.5


def test_wrappers_reach_every_binding_and_are_removed():
    original = canonical.canonical_labeling
    t = Tracer({"canonical": ("canonical_labeling", "no_such_function"),
                "search": ("turan_number",)})
    t.install()
    try:
        assert search.canonical_labeling is canonical.canonical_labeling
        assert canonical.canonical_labeling is not original
        result = search.turan_number(4, search.FamilySpec.of(3))
    finally:
        t.uninstall()
    assert canonical.canonical_labeling is original
    assert search.canonical_labeling is original
    assert t.missing == ["canonical.no_such_function"]
    m = t.layer_metrics(0.0)
    assert m["search.nodes"] == result.nodes
    assert m["canonical.calls"] == len(t.canon_keys) > 0
    assert all(parent >= 0 for name, _, _, parent in t.spans
               if name.startswith("canonical."))


def test_a_failed_or_raising_operation_is_counted():
    p = workloads.Pass()
    p.check("good", lambda: 1, lambda out: out == 1)
    p.check("wrong", lambda: 2, lambda out: out == 1)
    p.check("raises", lambda: search.turan_number(-1, search.FamilySpec.of(3)),
            lambda out: True)
    assert p.attempted == 3
    assert [f.split(":")[0] for f in p.failures] == ["wrong", "raises"]


def test_a_calibrated_pass_times_the_reference_around_its_operations():
    workloads.Pass.calibrate = True
    try:
        p = workloads.Pass()
        p.check("first", lambda: 1, lambda out: True)
        p.check("raises", lambda: 1 / 0, lambda out: True)
        p.check("second", lambda: 2, lambda out: True)
    finally:
        workloads.Pass.calibrate = False
    assert set(p.times) == {"first", "second"}
    assert len(p.references) == 3
    assert workloads.slowdown(p.references) > 0
    assert workloads.Pass().references == []


def test_fails_without_the_girthlab_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extremal-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.slow
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_runs_repeat_counts_and_keep_outputs(workload):
    """Two traced runs of one seed give the same counts, and no check fails,
    including the one that traced and untraced outputs are equal."""
    runs = []
    for _ in range(2):
        tally = workloads.Pass()
        runs.append(run.run_traced(workload, workloads.DEFAULT_SEED, 0, tally))
        assert tally.failures == []
    counts = [k for k in runs[0] if run.unit_of(k) in ("count", "ratio")]
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}
    m = runs[0]
    assert m["trace.missing_fns"] == 0
    total = sum(v for k, v in m.items()
                if k.endswith(".self_s")) + m["trace.unattributed_s"]
    if workload == "extremal-search":
        assert m["canonical.self_s"] + m["search.self_s"] >= 0.9 * total
    elif workload == "inequality-checks":
        assert m["walks.self_s"] + m["spectral.self_s"] >= 0.85 * total
        assert m["search.nodes"] == m["canonical.calls"] == 0
    else:
        assert m["canonical.self_s"] >= 0.9 * total
