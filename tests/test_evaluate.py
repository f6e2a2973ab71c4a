import re
from pathlib import Path

import numpy as np
import pytest

from smsl.baselines import rx_difference
from smsl.cube import DetectionMap, GroundTruthMask
from smsl.detector import DetectorConfig, detect
from smsl.evaluate import (SWEEP_PARAMS, RocCurve, SynthSpec, apply_params,
                           roc, sweep, synth_scene, write_roc_csv,
                           write_sweep_csv)
from smsl.sketch import SketchConfig
from smsl.solver import SolverConfig


def make_inputs(scores, labels, shape):
    return (DetectionMap(shape[0], shape[1], np.asarray(scores, float)),
            GroundTruthMask(shape[0], shape[1], np.asarray(labels)))


def mann_whitney(scores, labels):
    """Pairwise brute force with ties counted 1/2."""
    scores = np.asarray(scores, float).reshape(-1)
    labels = np.asarray(labels).reshape(-1).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRoc:
    def test_perfect_separation(self):
        m, gt = make_inputs([4, 3, 1, 0], [1, 1, 0, 0], (2, 2))
        assert roc(m, gt).auc == 1.0

    def test_all_tied_scores(self):
        m, gt = make_inputs([2, 2, 2, 2], [1, 0, 1, 0], (2, 2))
        assert roc(m, gt).auc == 0.5

    def test_four_pixel_fixture(self):
        m, gt = make_inputs([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0], (2, 2))
        assert roc(m, gt).auc == 0.75

    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(10, 200))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            m, gt = make_inputs(scores, labels, (1, n))
            assert abs(roc(m, gt).auc - mann_whitney(scores, labels)) <= 1e-12

    def test_curve_is_monotone_staircase(self):
        rng = np.random.default_rng(1)
        scores = rng.random(64)
        labels = rng.integers(0, 2, size=64)
        labels[0], labels[1] = 0, 1
        m, gt = make_inputs(scores, labels, (8, 8))
        curve = roc(m, gt)
        assert curve.fpr[0] == 0 and curve.tpr[0] == 0
        assert curve.fpr[-1] == 1 and curve.tpr[-1] == 1
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(2)
        scores = rng.choice([0.0, 1.0, 2.0, 3.0], size=50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        m, gt = make_inputs(scores, labels, (5, 10))
        flipped = DetectionMap(5, 10, scores.max() - scores.reshape(5, 10))
        assert abs(roc(m, gt).auc + roc(flipped, gt).auc - 1.0) <= 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.random(36)
        labels = rng.integers(0, 2, size=36)
        labels[:2] = [0, 1]
        m1, gt = make_inputs(scores, labels, (6, 6))
        m2, _ = make_inputs(np.exp(3 * scores), labels, (6, 6))
        assert roc(m1, gt).auc == roc(m2, gt).auc

    def test_degenerate_masks_rejected(self):
        m, gt = make_inputs([1, 2], [1, 1], (1, 2))
        with pytest.raises(ValueError):
            roc(m, gt)

    def test_dimension_mismatch_rejected(self):
        m = DetectionMap(2, 2, np.ones((2, 2)))
        gt = GroundTruthMask(2, 3, np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            roc(m, gt)


class TestSynthScene:
    def test_no_anomalies_empty_mask(self):
        _, mask = synth_scene(SynthSpec(height=6, width=6, n_anomalies=0))
        assert mask.labels.sum() == 0

    def test_positive_count_matches_spec(self):
        _, mask = synth_scene(SynthSpec(height=10, width=10, n_anomalies=17))
        assert mask.labels.sum() == 17

    def test_deterministic(self):
        spec = SynthSpec(height=6, width=7, n_anomalies=4, seed=11)
        va, ma = synth_scene(spec)
        vb, mb = synth_scene(spec)
        assert np.array_equal(va.views[0].data, vb.views[0].data)
        assert np.array_equal(ma.labels, mb.labels)

    def test_clean_gain_only_views_give_flat_rx(self):
        views, _ = synth_scene(SynthSpec(
            height=12, width=12, n_anomalies=0, anomaly_magnitude=0.0,
            noise_sigma=0.0, seed=4))
        x1, x2 = views.matrices()
        # views differ only by a scalar gain
        ratio = x2 / x1
        assert np.allclose(ratio, ratio[0, 0])
        scores = rx_difference(views).scores
        assert scores.std() <= 5.0 * max(scores.mean(), 1e-30)

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(height=2, width=2, n_anomalies=4)
        with pytest.raises(ValueError):
            SynthSpec(views=1)

    @pytest.mark.parametrize("name", ["anomaly_magnitude", "noise_sigma"])
    def test_nan_scale_rejected(self, name):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="nonnegative"):
                SynthSpec(**{name: value})


def tiny_cfg():
    return DetectorConfig(sketch=SketchConfig(n_h=10, seed=0, repeats=1),
                          solver=SolverConfig())


class TestSweep:
    def test_single_point_matches_direct_run(self):
        views, mask = synth_scene(SynthSpec(height=8, width=8, bands=6,
                                            n_anomalies=3, seed=5))
        rows = sweep(views, mask, tiny_cfg(), {"lambda2": [10.0]})
        direct = roc(detect(views, tiny_cfg()), mask).auc
        assert len(rows) == 1
        assert rows[0]["auc"] == direct

    def test_grid_enumeration_order(self):
        views, mask = synth_scene(SynthSpec(height=8, width=8, bands=6,
                                            n_anomalies=3, seed=6))
        rows = sweep(views, mask, tiny_cfg(),
                     {"lambda2": [1.0, 10.0], "lambda3": [1.0, 10.0]})
        combos = [(r["lambda2"], r["lambda3"]) for r in rows]
        assert combos == [(1.0, 1.0), (1.0, 10.0), (10.0, 1.0), (10.0, 10.0)]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            apply_params(tiny_cfg(), {"bogus": 1.0})

    def test_apply_params_routes_to_subconfigs(self):
        cfg = apply_params(tiny_cfg(), {"lambda2": 3.0, "sketch_size": 42})
        assert cfg.solver.lambda2 == 3.0
        assert cfg.sketch.n_h == 42

    def test_readme_lists_the_sweep_parameters(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"Sweepable parameters: `([^`]*)`", readme)
        names = listed.group(1).split()
        assert sorted(names) == sorted(SWEEP_PARAMS)


class TestCsvWriters:
    def test_roc_csv(self, tmp_path):
        curve = RocCurve(fpr=np.array([0.0, 1.0]), tpr=np.array([0.0, 1.0]),
                         auc=0.5)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 3

    def test_sweep_csv(self, tmp_path):
        rows = [{"lambda2": 1.0, "auc": 0.75}, {"lambda2": 10.0, "auc": 1.0}]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda2,auc"
        assert lines[1] == "1.0,0.750000"
