"""Tests of the benchmark's own parts: the AUC oracle, the scene generator,
span accounting and the metric lists in BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_scene, read_scores, write_cube  # noqa: E402


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(20))
def test_auc_matches_pairwise_count_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    scores = rng.integers(0, 5, n).astype(float)  # few values: many ties
    labels = np.zeros(n, dtype=np.uint8)
    labels[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 1
    assert oracle.auc(scores, labels) == pytest.approx(
        brute_force_auc(scores, labels), abs=1e-12)


def test_auc_extremes():
    labels = np.array([0, 0, 1, 1])
    assert oracle.auc([0.0, 1.0, 2.0, 3.0], labels) == 1.0
    assert oracle.auc([3.0, 2.0, 1.0, 0.0], labels) == 0.0
    assert oracle.auc([1.0, 1.0, 1.0, 1.0], labels) == 0.5
    with pytest.raises(ValueError):
        oracle.auc([1.0, 2.0], [1, 1])


def test_max_relative_deviation():
    ref = np.array([1.0, 4.0, 2.0])
    assert oracle.max_relative_deviation(ref, ref) == 0.0
    assert oracle.max_relative_deviation(ref + [0.0, 0.0, 0.4], ref) \
        == pytest.approx(0.1)


# the sensor scene runs the same generator code at 72 MB, so it is left out
@pytest.mark.parametrize("name", ["default64", "drift3"])
def test_scene_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    a_views, a_labels = make_scene(w, 3)
    b_views, b_labels = make_scene(w, 3)
    c_views, _ = make_scene(w, 4)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(a_views, b_views))
    assert np.array_equal(a_labels, b_labels)
    assert a_views[0].tobytes() != c_views[0].tobytes()
    assert len(a_views) == w.views
    assert a_views[0].shape == (w.bands, w.n_pixels)
    assert int(a_labels.sum()) == w.n_anomalies


def test_drift3_keeps_auc_headroom(tmp_path):
    """At the default seed SMSL must score below 1 on drift3, or the
    workload can no longer show a quality regression."""
    sys.path.insert(0, run.SRC)
    from smsl import cli

    w = WORKLOADS["drift3"]
    views, labels = make_scene(w, run.DEFAULT_SEED)
    cubes = []
    for s, x in enumerate(views, start=1):
        cubes.append(str(tmp_path / f"view_{s}.hdr"))
        write_cube(cubes[-1], x, w.height, w.width)
    out = str(tmp_path / "scores.hdr")
    assert cli.main(w.detect_argv(cubes, out)) == 0
    scores, _ = read_scores(out, w.height, w.width)
    assert 0.5 < oracle.auc(scores, labels) < 1.0


def test_layer_totals_self_time():
    spans = [
        {"id": 2, "parent": 1, "name": "b", "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "name": "b", "start": 4.0, "end": 5.0},
        {"id": 1, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
    ]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"s": 10.0, "self_s": 7.0, "calls": 1}
    assert totals["b"] == {"s": 3.0, "self_s": 3.0, "calls": 2}


def test_tracer_records_parent_ids():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {sp["name"]: sp for sp in tracer.spans}
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["start"] <= by_name["inner"]["start"] \
        <= by_name["inner"]["end"] <= by_name["outer"]["end"]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
