import numpy as np
import pytest

from smsl.prox import (exclusivity, exclusivity_grad, l21_shrink,
                       soft_threshold, svt)


def nuclear_objective(j, m, tau):
    return tau * np.linalg.svd(j, compute_uv=False).sum() \
        + 0.5 * np.linalg.norm(j - m) ** 2


def l21_objective(w, q, thr):
    return thr * np.linalg.norm(w, axis=0).sum() \
        + 0.5 * np.linalg.norm(w - q) ** 2


class TestSoftThreshold:
    def test_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-5.0, 2.0) == -3.0

    def test_odd_and_dead_zone(self):
        xs = np.linspace(-3, 3, 41)
        assert np.allclose(soft_threshold(-xs, 0.7), -soft_threshold(xs, 0.7))
        assert np.all(soft_threshold(xs[np.abs(xs) <= 0.7], 0.7) == 0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestSvt:
    def test_tau_zero_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 3))
        assert np.allclose(svt(m, 0.0), m, atol=1e-12)

    def test_diagonal_hand_case(self):
        m = np.diag([3.0, 1.0])
        assert np.allclose(svt(m, 2.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_singular_values_are_soft_thresholded(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 4))
        tau = 0.5
        s_in = np.linalg.svd(m, compute_uv=False)
        s_out = np.linalg.svd(svt(m, tau), compute_uv=False)
        assert np.allclose(np.sort(s_out), np.sort(soft_threshold(s_in, tau)),
                           atol=1e-10)

    def test_variational_minimizer(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 4))
        tau = 0.7
        out = svt(m, tau)
        base = nuclear_objective(out, m, tau)
        for _ in range(1000):
            pert = out + 1e-2 * rng.standard_normal(out.shape)
            assert nuclear_objective(pert, m, tau) >= base - 1e-12

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((5, 4))
            tau = rng.random()
            assert np.linalg.norm(svt(a, tau) - svt(b, tau)) \
                <= np.linalg.norm(a - b) + 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            svt(np.array([[np.inf]]), 1.0)

    @pytest.mark.parametrize("rank_one", [False, True], ids=["random", "rank1"])
    def test_zero_when_frobenius_norm_at_most_tau(self, rank_one):
        rng = np.random.default_rng(4)
        if rank_one:
            m = np.outer(rng.standard_normal(7), rng.standard_normal(5))
        else:
            m = rng.standard_normal((7, 5))
        tau = 2.0
        m *= tau * (1 - 1e-12) / np.linalg.norm(m)
        assert np.linalg.norm(m) <= tau
        out = svt(m, tau)
        assert out.shape == m.shape and out.dtype == np.float64
        assert np.array_equal(out, np.zeros_like(m))

    def test_rank_one_just_above_tau_matches_dense_shrinkage(self):
        rng = np.random.default_rng(5)
        m = np.outer(rng.standard_normal(7), rng.standard_normal(5))
        tau = 2.0
        m *= tau * (1 + 1e-3) / np.linalg.norm(m)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        expected = (u * np.maximum(s - tau, 0.0)) @ vt
        out = svt(m, tau)
        assert np.abs(out).max() > 0
        assert np.allclose(out, expected, rtol=0, atol=1e-12)


class TestL21Shrink:
    def test_hand_case(self):
        q = np.array([[3.0], [4.0]])
        assert np.allclose(l21_shrink(q, 1.0), [[2.4], [3.2]], atol=1e-12)

    def test_below_threshold_zeroed(self):
        q = np.array([[0.3], [0.4]])  # norm 0.5
        assert np.array_equal(l21_shrink(q, 1.0), np.zeros((2, 1)))

    def test_variational_minimizer(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((8, 5))
        thr = 0.6
        out = l21_shrink(q, thr)
        base = l21_objective(out, q, thr)
        for _ in range(1000):
            pert = out + 1e-2 * rng.standard_normal(out.shape)
            assert l21_objective(pert, q, thr) >= base - 1e-12

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal((6, 3))
            assert np.linalg.norm(l21_shrink(a, 0.5) - l21_shrink(b, 0.5)) \
                <= np.linalg.norm(a - b) + 1e-12

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            l21_shrink(np.ones((2, 2)), 0.0)


class TestExclusivity:
    def test_hand_case(self):
        assert exclusivity([[1, -2]], [[3, -4]]) == 11.0

    def test_disjoint_supports(self):
        assert exclusivity([[1, 0]], [[0, 5]]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 4))
        assert exclusivity(u, v) == exclusivity(v, u)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            exclusivity(np.ones((2, 2)), np.ones((2, 3)))


class TestExclusivityGrad:
    def test_hand_case(self):
        g = exclusivity_grad([[1, -2]], [[3, -4]])
        assert np.array_equal(g, [[1, -2]])

    def test_sign_zero_convention(self):
        g = exclusivity_grad(np.ones((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.standard_normal((4, 3))
            v = rng.standard_normal((4, 3))
            v += np.sign(v) * 0.1  # keep entries away from the kink
            g = exclusivity_grad(u, v)
            step = 1e-6
            for k in range(v.size):
                e = np.zeros(v.size)
                e[k] = step
                e = e.reshape(v.shape)
                fd = (exclusivity(u, v + e) - exclusivity(u, v - e)) / (2 * step)
                assert abs(fd - g.reshape(-1)[k]) <= 1e-5 * max(1.0, abs(fd))
