import numpy as np
import pytest

from smsl.baselines import (chronochrome, covariance_equalization, fit_cov,
                            run_baseline, rx_difference)
from smsl.cube import HyperCube, ViewSet, load_cube, save_cube


def as_views(x1, x2, height, width):
    bands = x1.shape[0]
    return ViewSet((
        HyperCube(bands, height, width, x1.reshape(-1)),
        HyperCube(bands, height, width, x2.reshape(-1)),
    ))


def random_views(rng, bands=4, height=10, width=10):
    x1 = rng.standard_normal((bands, height * width))
    x2 = rng.standard_normal((bands, height * width))
    return as_views(x1, x2, height, width)


class TestRxDifference:
    def test_identical_views_zero_scores(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 25))
        views = as_views(x, x, 5, 5)
        m = rx_difference(views, ridge=0.5)
        assert np.allclose(m.scores, 0.0, atol=1e-20)

    def test_chi_square_mean(self):
        rng = np.random.default_rng(1)
        n = 100_000
        x1 = np.zeros((2, n))
        x2 = rng.standard_normal((2, n))  # difference is iid N(0, I)
        m = rx_difference(as_views(x1, x2, 200, 500), ridge=0.0)
        assert abs(m.scores.mean() - 2.0) <= 0.05 * 2.0

    def test_large_offset_pixel_attains_max(self):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal((3, 400))
        x2 = x1 + 0.1 * rng.standard_normal((3, 400))
        x2[:, 123] += 10.0 * 0.1
        m = rx_difference(as_views(x1, x2, 20, 20))
        assert np.argmax(m.scores.reshape(-1)) == 123

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        views = random_views(rng)
        base = rx_difference(views, ridge=0.0).scores
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        mats = views.matrices()
        recolored = as_views(a @ mats[0], a @ mats[1], 10, 10)
        assert np.allclose(rx_difference(recolored, ridge=0.0).scores, base,
                           atol=1e-8)

    def test_pixel_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        mats = random_views(rng).matrices()
        perm = rng.permutation(100)
        direct = rx_difference(as_views(mats[0], mats[1], 10, 10)).scores
        permuted = rx_difference(
            as_views(mats[0][:, perm], mats[1][:, perm], 10, 10)).scores
        assert np.allclose(permuted.reshape(-1), direct.reshape(-1)[perm])


class TestChronochrome:
    def test_exact_affine_pair_scores_vanish(self):
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal((4, 300))
        a = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        x2 = a @ x1 + rng.standard_normal((4, 1))
        m = chronochrome(as_views(x1, x2, 15, 20), ridge=0.0)
        assert m.scores.max() <= 1e-10

    def test_identical_views_near_zero(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 300))
        m = chronochrome(as_views(x, x, 15, 20), ridge=0.0)
        assert m.scores.max() <= 1e-10

    def test_planted_change_on_affine_background(self):
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((4, 400))
        a = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        x2 = a @ x1
        x2[:, 57] += 8.0
        m = chronochrome(as_views(x1, x2, 20, 20))
        assert np.argmax(m.scores.reshape(-1)) == 57


class TestCovarianceEqualization:
    def test_identical_views_near_zero(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 300))
        m = covariance_equalization(as_views(x, x, 15, 20), ridge=0.0)
        assert m.scores.max() <= 1e-10

    def test_pure_scaling_scores_vanish(self):
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal((4, 300))
        x2 = 2.5 * x1 + 1.0
        m = covariance_equalization(as_views(x1, x2, 15, 20), ridge=0.0)
        assert m.scores.max() <= 1e-8

    def test_planted_anomaly_top_ranked(self):
        rng = np.random.default_rng(10)
        x1 = rng.standard_normal((4, 400))
        x2 = 1.5 * x1
        x2[:, 201] += 9.0
        m = covariance_equalization(as_views(x1, x2, 20, 20))
        assert np.argmax(m.scores.reshape(-1)) == 201


class TestCommon:
    def test_scores_nonnegative_finite(self):
        rng = np.random.default_rng(11)
        views = random_views(rng)
        for method in ("rx", "cc", "ce"):
            m = run_baseline(method, views)
            assert np.isfinite(m.scores).all() and m.scores.min() >= 0

    def test_unknown_method(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="kernel"):
            run_baseline("kernel", random_views(rng))

    def test_requires_two_views(self):
        c = HyperCube(2, 2, 2, np.zeros(8))
        with pytest.raises(ValueError):
            rx_difference(ViewSet((c, c, c)))

    @pytest.mark.parametrize("ridge", [-1.0, float("nan")])
    def test_fit_cov_rejects_a_ridge_below_zero_or_nan(self, ridge):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="ridge"):
            fit_cov(rng.standard_normal((3, 50)), ridge)

    def test_fit_cov_auto_ridge_positive(self):
        rng = np.random.default_rng(13)
        model = fit_cov(rng.standard_normal((3, 50)))
        assert model.ridge > 0
        vals = np.linalg.eigvalsh(model.regularized)
        assert vals.min() > 0


@pytest.mark.parametrize("method", ["rx", "cc", "ce"])
def test_loaded_views_score_as_float64_cubes(tmp_path, method):
    # loaded views are float32; the detectors widen them and so give the
    # bits of float64 cubes with the same values
    rng = np.random.default_rng(9)
    paths = []
    for s in range(2):
        paths.append(str(tmp_path / f"view_{s}.hdr"))
        save_cube(HyperCube(6, 12, 10, rng.random(720) + s), paths[-1])
    loaded = ViewSet(tuple(load_cube(p) for p in paths))
    wide = ViewSet(tuple(HyperCube(v.bands, v.height, v.width,
                                   v.data.astype(np.float64))
                         for v in loaded.views))
    assert loaded.stacked.dtype == np.float32
    assert np.array_equal(run_baseline(method, loaded).scores,
                          run_baseline(method, wide).scores)
