import tracemalloc
import weakref

import numpy as np
import pytest

from smsl import detector as detector_mod
from smsl import sketch as sketch_mod
from smsl import solver as solver_mod
from smsl.cube import HyperCube, ViewSet, load_cube, save_cube
from smsl.detector import (DetectorConfig, detect, detect_with_result,
                           score_multiview)
from smsl.evaluate import SynthSpec, synth_scene
from smsl.sketch import SketchConfig
from smsl.solver import SolverConfig


def small_cfg(**sketch_kw):
    sketch = dict(n_h=20, seed=0, repeats=1)
    sketch.update(sketch_kw)
    return DetectorConfig(sketch=SketchConfig(**sketch), solver=SolverConfig())


def pair_score(h, d1, d2, e1, e2, height, width):
    """The score of one view pair: score_multiview over two views."""
    return score_multiview(h, [d1, d2], [e1, e2], height, width)


class TestScorePair:
    def test_identical_residuals_score_zero(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 3))
        d = rng.standard_normal((3, 6))
        e = rng.standard_normal((4, 6))
        m = pair_score(h, d, d, e, e, 2, 3)
        assert np.array_equal(m.scores, np.zeros((2, 3)))

    def test_hand_single_pixel(self):
        h = np.eye(2)
        d1 = np.array([[1.0], [0.0]])
        d2 = np.array([[0.0], [1.0]])
        e = np.zeros((2, 1))
        m = pair_score(h, d1, d2, e, e, 1, 1)
        assert np.allclose(m.scores, np.sqrt(2.0))

    def test_symmetric_in_view_order(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 3))
        d1, d2 = rng.standard_normal((2, 3, 6))
        e1, e2 = rng.standard_normal((2, 4, 6))
        a = pair_score(h, d1, d2, e1, e2, 2, 3)
        b = pair_score(h, d2, d1, e2, e1, 2, 3)
        assert np.array_equal(a.scores, b.scores)


class TestScoreMultiview:
    def test_two_views_reduce_to_pair(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 3))
        d = [rng.standard_normal((3, 6)) for _ in range(2)]
        e = [rng.standard_normal((4, 6)) for _ in range(2)]
        pair = (np.linalg.norm(h @ (d[1] - d[0]), axis=0)
                + np.linalg.norm(e[1] - e[0], axis=0))
        assert np.array_equal(score_multiview(h, d, e, 2, 3).scores,
                              pair.reshape(2, 3))

    def test_hand_column(self):
        # H(D^2 - D^1) = [3, 6]' for the one pixel, and no noise change
        h = np.array([[1.0], [2.0]])
        d = [np.array([[0.0]]), np.array([[3.0]])]
        e = [np.zeros((2, 1))] * 2
        m = score_multiview(h, d, e, 1, 1)
        assert np.allclose(m.scores, np.sqrt(45.0))

    def test_duplicated_third_view_adds_nothing(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((4, 3))
        d = [rng.standard_normal((3, 6)) for _ in range(2)]
        e = [rng.standard_normal((4, 6)) for _ in range(2)]
        three = score_multiview(h, d + [d[1]], e + [e[1]], 2, 3)
        two = score_multiview(h, d, e, 2, 3)
        assert np.allclose(three.scores, two.scores)

    def test_matches_pairwise_sum(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 3))
        d = [rng.standard_normal((3, 6)) for _ in range(3)]
        e = [rng.standard_normal((4, 6)) for _ in range(3)]
        total = np.zeros(6)
        for s in range(2):
            total += pair_score(h, d[s], d[s + 1], e[s], e[s + 1],
                                1, 6).scores.reshape(-1)
        assert np.allclose(score_multiview(h, d, e, 1, 6).scores.reshape(-1),
                           total)

    def test_needs_two_views(self):
        with pytest.raises(ValueError):
            score_multiview(np.ones((2, 2)), [np.ones((2, 2))],
                            [np.ones((2, 2))], 1, 2)

    def test_shape_mismatch(self):
        # a dictionary of width 2 against coefficients with 3 rows, and
        # coefficients with 5 columns for 2 x 2 pixels
        with pytest.raises(ValueError, match="dictionary width"):
            score_multiview(np.ones((3, 2)), [np.ones((3, 4))] * 2,
                            [np.ones((3, 4))] * 2, 2, 2)
        with pytest.raises(ValueError, match="dictionary width"):
            score_multiview(np.ones((3, 2)), [np.ones((2, 5))] * 2,
                            [np.ones((3, 5))] * 2, 2, 2)

    def test_column_blocks_match_whole_arrays(self):
        # 1100 pixels: two full blocks of 512 and a ragged one of 76
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 9))
        d = [np.abs(rng.standard_normal((9, 1100))) for _ in range(3)]
        e = [rng.standard_normal((5, 1100)) for _ in range(3)]
        total = np.zeros(1100)
        for s in range(2):
            total += (np.linalg.norm(h @ (d[s + 1] - d[s]), axis=0)
                      + np.linalg.norm(e[s + 1] - e[s], axis=0))
        assert np.array_equal(score_multiview(h, d, e, 20, 55).scores,
                              total.reshape(20, 55))

    def test_peak_memory_below_a_quarter_of_one_coefficient_array(self):
        # the n_h x N coefficient difference is formed one column block
        # at a time
        rng = np.random.default_rng(7)
        n_h, n_pixels = 500, 4096
        h = rng.standard_normal((16, n_h))
        d = [np.abs(rng.standard_normal((n_h, n_pixels))) for _ in range(2)]
        e = [rng.standard_normal((16, n_pixels)) for _ in range(2)]
        tracemalloc.start()
        try:
            score_multiview(h, d, e, 64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_h * n_pixels * 8 / 4

    def test_noise_shape_mismatch(self):
        with pytest.raises(ValueError, match="noise matrices"):
            score_multiview(np.ones((3, 2)), [np.ones((2, 4))] * 2,
                            [np.ones((3, 4)), np.ones((3, 5))], 2, 2)


class TestDetect:
    def test_identical_flat_views_score_small(self):
        # flat scene, identical noise-free views: only asymmetry between the
        # specific blocks can contribute, and it stays tiny
        spectrum = np.linspace(1.0, 2.0, 8)
        data = np.tile(spectrum[:, None], (1, 36)).reshape(-1)
        v = HyperCube(8, 6, 6, data)
        views = ViewSet((v, v))
        m = detect(views, small_cfg())
        col_scale = np.linalg.norm(spectrum)
        assert m.scores.max() <= 1e-3 * col_scale

    def test_planted_anomalies_rank_on_top(self):
        views, mask = synth_scene(SynthSpec(
            height=20, width=20, bands=12, n_anomalies=20,
            anomaly_magnitude=1.0, noise_sigma=0.005, seed=5))
        m = detect(views, small_cfg(n_h=40))
        top = np.argsort(-m.scores.reshape(-1))[:20]
        planted = set(np.flatnonzero(mask.labels.reshape(-1)))
        assert len(planted & set(top)) >= 18

    def test_deterministic(self):
        views, _ = synth_scene(SynthSpec(height=8, width=8, bands=6,
                                         n_anomalies=3, seed=6))
        cfg = small_cfg(n_h=10, repeats=2)
        a = detect(views, cfg)
        b = detect(views, cfg)
        assert np.array_equal(a.scores, b.scores)

    def test_score_averaging_two_passes(self):
        views, _ = synth_scene(SynthSpec(height=8, width=8, bands=6,
                                         n_anomalies=3, seed=7))
        per_pass = []
        for j in range(2):
            from smsl.sketch import repeat_seed
            cfg = small_cfg(n_h=10, seed=repeat_seed(3, j), repeats=1,
                            average_mode="scores")
            per_pass.append(detect(views, cfg).scores)
        cfg = small_cfg(n_h=10, seed=3, repeats=2, average_mode="scores")
        avg = detect(views, cfg)
        assert np.allclose(avg.scores, (per_pass[0] + per_pass[1]) / 2)

    def test_scores_shape_and_range(self):
        views, _ = synth_scene(SynthSpec(height=7, width=9, bands=6,
                                         n_anomalies=2, seed=8))
        m = detect(views, small_cfg(n_h=12))
        assert m.scores.shape == (7, 9)
        assert np.isfinite(m.scores).all() and m.scores.min() >= 0

    def test_detect_with_result_reports_convergence_fields(self):
        views, _ = synth_scene(SynthSpec(height=6, width=6, bands=6,
                                         n_anomalies=2, seed=9))
        m, record = detect_with_result(views, small_cfg(n_h=10))
        convergence = record["convergence"]
        assert convergence["solves"] == 1
        assert convergence["iterations_run"] >= 1
        assert len(record["trace"]) == convergence["iterations_run"]
        assert convergence["final_max_residual"] == \
            max(record["trace"][-1][1:5])

    def test_no_solve_state_outlives_its_scoring(self, monkeypatch):
        # under score averaging each solve starts after the state of the
        # one before it is freed, so a detect holds one state at a time
        states = []

        def recorded(*args):
            assert all(ref() is None for ref in states)
            result = solver_mod.solve(*args)
            states.append(weakref.ref(result.state))
            return result

        monkeypatch.setattr(detector_mod, "solve", recorded)
        views, _ = synth_scene(SynthSpec(height=6, width=6, bands=6,
                                         n_anomalies=2, seed=9))
        record = detect_with_result(views, small_cfg(
            n_h=10, repeats=3, average_mode="scores"))[1]
        assert len(states) == record["convergence"]["solves"] == 3
        assert states[-1]() is None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_views,average_mode,n_h", [
    (2, "dictionary", 40),  # n_h > L + 1: the solver's r-row coordinates
    (3, "scores", 10),      # n_h < L + 1: r = n_h, dense Gram
])
def test_storage_precision_does_not_change_the_map(
        tmp_path, monkeypatch, workers, n_views, average_mode, n_h):
    # float32 views loaded from cube files give the bits of float64 cubes
    # with the same values: every product widens them exactly
    monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 64)
    monkeypatch.setattr(solver_mod, "_block_workers",
                        lambda n, size: workers)
    traces = []

    def recorded(*args):
        result = solver_mod.solve(*args)
        traces.append(result.trace)
        return result

    monkeypatch.setattr(detector_mod, "solve", recorded)
    scene, _ = synth_scene(SynthSpec(height=16, width=20, bands=12,
                                     views=n_views, n_anomalies=6, seed=4))
    paths = [str(tmp_path / f"view_{s}.hdr") for s in range(n_views)]
    for v, p in zip(scene.views, paths):
        save_cube(v, p)
    loaded = ViewSet(tuple(load_cube(p) for p in paths))
    wide = ViewSet(tuple(HyperCube(v.bands, v.height, v.width,
                                   v.data.astype(np.float64))
                         for v in loaded.views))
    cfg = DetectorConfig(
        sketch=SketchConfig(n_h=n_h, seed=2, repeats=3,
                            average_mode=average_mode),
        solver=SolverConfig(max_iter=8))
    got = detect_with_result(loaded, cfg)[0]
    want = detect_with_result(wide, cfg)[0]
    assert loaded.stacked.dtype == np.float32
    assert np.array_equal(got.scores, want.scores)
    solves = 3 if average_mode == "scores" else 1
    assert len(traces) == 2 * solves
    assert traces[:solves] == traces[solves:]


@pytest.mark.parametrize("n_views,average_mode,n_h", [
    (2, "dictionary", 40), (3, "scores", 10),
])
def test_map_does_not_depend_on_the_blas_handle(monkeypatch, n_views,
                                                average_mode, n_h):
    # blocks widened to 128 columns (128, 128 and 64) on both CPUs with
    # numpy's BLAS held at one thread, or with the handle gone, blocks of 64
    # on the calling thread; the 3 repeats are drawn on both CPUs either way
    monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 64)
    monkeypatch.setattr(solver_mod, "_SMALL_BLOCK_BYTES", 0)
    monkeypatch.setattr(solver_mod, "_available_cpus", lambda: 2)
    monkeypatch.setattr(sketch_mod, "_available_cpus", lambda: 2)
    views, _ = synth_scene(SynthSpec(height=16, width=20, bands=12,
                                     views=n_views, n_anomalies=6, seed=5))
    cfg = DetectorConfig(
        sketch=SketchConfig(n_h=n_h, seed=3, repeats=3,
                            average_mode=average_mode),
        solver=SolverConfig(max_iter=8))
    handles = (solver_mod._blas_threads(), None)
    runs = []
    for handle in handles:
        monkeypatch.setattr(solver_mod, "_blas_threads", lambda: handle)
        runs.append(detect_with_result(views, cfg))
    (got, got_record), (want, want_record) = runs
    assert np.array_equal(got.scores, want.scores)
    assert got_record["trace"] == want_record["trace"]
    assert got_record["threads"]["block_columns"] == \
        (128 if handles[0] else 64)
    assert want_record["threads"] == {"block_threads": 1,
                                      "block_columns": 64,
                                      "draw_threads": 2}
