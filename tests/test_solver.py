import copy
import dataclasses
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import smsl.solver as solver_mod
from smsl import sketch
from smsl.cli import _THREAD_VARS
from smsl.solver import (SolverConfig, SolverError, init_state, solve,
                         update_c, update_d, update_e)
from smsl.detector import score_multiview
from smsl.prox import l21_shrink, svt


class FakeBlas:
    """A BLAS thread count that solve() may read and set."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


def random_instance(rng, n_views=2, n_bands=4, n_pixels=6, n_h=3, mu=0.37,
                    scale=1.0):
    xs = [rng.standard_normal((n_bands, n_pixels)) * scale
          for _ in range(n_views)]
    h = rng.standard_normal((n_bands, n_h))
    state = init_state(n_views, n_bands, n_pixels, n_h, mu)
    state.c = rng.standard_normal((n_h, n_pixels))
    state.j = rng.standard_normal((n_h, n_pixels))
    # explicit W^s (every column listed) and Y3^s
    state.w_cols = [np.arange(n_pixels)] * n_views
    state.y3 = [None] * n_views
    for s in range(n_views):
        state.d[s] = np.abs(rng.standard_normal((n_h, n_pixels)))
        state.e[s] = rng.standard_normal((n_bands, n_pixels))
        state.w[s] = rng.standard_normal((n_bands, n_pixels))
        state.y1[s] = rng.standard_normal((n_bands, n_pixels))
        state.y2[s] = rng.standard_normal(n_pixels)
        state.y3[s] = rng.standard_normal((n_bands, n_pixels))
    state.y4 = rng.standard_normal((n_h, n_pixels))
    return xs, h, state


def dense_c_oracle(state, xs, h):
    """Assemble the normal equations from scratch and solve densely."""
    n_views = len(xs)
    n_h = h.shape[1]
    mu = state.mu
    ones = np.ones((n_h, 1))
    a = n_views * h.T @ h + n_views * (ones @ ones.T) + np.eye(n_h)
    b = state.j - state.y4 / mu
    for s in range(n_views):
        b = b + h.T @ (xs[s] - h @ state.d[s] - state.e[s] + state.y1[s] / mu)
        b = b - ones @ (ones.T @ state.d[s] - 1.0
                        + state.y2[s][None, :] / mu)
    return a, b, np.linalg.solve(a, b)


class TestConfig:
    def test_defaults_match_algorithm_constants(self):
        cfg = SolverConfig()
        assert (cfg.mu0, cfg.mu_max, cfg.rho) == (1e-5, 1e5, 1.1)
        assert (cfg.max_iter, cfg.epsilon) == (60, 1e-5)
        assert (cfg.lambda2, cfg.lambda3) == (10.0, 10.0)
        assert 1 <= cfg.lambda1 <= 10

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(mu0=0.0)
        with pytest.raises(ValueError):
            SolverConfig(mu0=1.0, mu_max=0.5)
        with pytest.raises(ValueError):
            SolverConfig(rho=0.9)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lambda1=-1.0)

    @pytest.mark.parametrize("name", [
        "lambda1", "lambda2", "lambda3", "mu0", "mu_max", "rho", "epsilon"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError):
            SolverConfig(**{name: float("nan")})

    def test_meaningful_inf_accepted(self):
        # lambda1 = inf keeps J at zero; mu_max = inf puts no cap on mu
        SolverConfig(lambda1=float("inf"), mu_max=float("inf"))

    def test_inf_lambda3_rejected(self):
        # the D step would weigh the zero start of D by inf, which gives
        # NaN; lambda2 = inf, which forces D to zero, stays accepted
        SolverConfig(lambda2=float("inf"))
        with pytest.raises(ValueError, match="lambda3 must be finite"):
            SolverConfig(lambda3=float("inf"))


class TestUpdateC:
    def test_scalar_hand_case(self):
        # L=N=N_H=1, S=1, H=[2], X=[4], everything else zero
        state = init_state(1, 1, 1, 1, mu0=0.5)
        c = update_c(state, [np.array([[4.0]])], np.array([[2.0]]))
        assert np.allclose(c, 1.5, atol=1e-12)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(10)
        # n_h = 3 <= L+1 (full-rank system) and n_h = 10 > L+1 (rank L+1)
        for n_bands, n_h in [(4, 3)] * 5 + [(4, 10)] * 3:
            xs, h, state = random_instance(rng, n_bands=n_bands, n_h=n_h)
            a, b, expected = dense_c_oracle(state, xs, h)
            got = update_c(state, xs, h)
            assert np.allclose(got, expected, atol=1e-10)

    def test_defining_equation_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            xs, h, state = random_instance(rng)
            a, b, _ = dense_c_oracle(state, xs, h)
            c = update_c(state, xs, h)
            assert np.abs(a @ c - b).max() <= 1e-8 * (1 + np.abs(b).max())


class TestUpdateD:
    def test_scalar_hand_case(self):
        # S=2, H=[1], X1=[2], other D=[1], lambda2=lambda3=mu=1
        state = init_state(2, 1, 1, 1, mu0=1.0)
        state.d[1] = np.array([[1.0]])
        cfg = SolverConfig(lambda2=1.0, lambda3=1.0, mu0=1.0)
        xs = [np.array([[2.0]]), np.array([[0.0]])]
        d = update_d(state, xs, np.array([[1.0]]), 0, cfg)
        assert np.allclose(d, 2.0 / 3.0, atol=1e-12)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(14)
        xs, h, state = random_instance(rng)
        d = update_d(state, xs, h, 0, SolverConfig())
        assert d.min() >= 0.0

    def test_matches_ridge_oracle_pre_projection(self):
        rng = np.random.default_rng(15)
        cfg = SolverConfig(lambda2=2.0, lambda3=0.0)
        # n_h = 10 > L+1 (rank-deficient H'H + 11') and n_h = 6 <= L+1
        for n_bands, n_h in [(8, 10)] * 5 + [(8, 6)] * 3:
            xs, h, state = random_instance(rng, n_bands=n_bands,
                                           n_pixels=40, n_h=n_h)
            n_h = h.shape[1]
            mu = state.mu
            ones = np.ones((n_h, 1))
            m = cfg.lambda2 * np.eye(n_h) + mu * (h.T @ h + ones @ ones.T)
            rhs = mu * h.T @ (xs[0] - h @ state.c - state.e[0]
                              + state.y1[0] / mu) \
                - ones @ (mu * (ones.T @ state.c - 1.0)
                          + state.y2[0][None, :])
            expected = np.maximum(np.linalg.solve(m, rhs), 0.0)
            got = update_d(state, xs, h, 0, cfg)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(got - expected).max() <= 1e-8 * scale

    def test_reads_the_other_views_as_absolute_values(self):
        # a caller's state may hold a negative D^t: the penalty takes |D^t|,
        # as solve() does on its own D^t, which its clip keeps nonnegative
        rng = np.random.default_rng(42)
        for n_bands, n_h in [(4, 10), (8, 6)]:
            xs, h, state = random_instance(rng, n_views=3, n_bands=n_bands,
                                           n_h=n_h)
            signed = copy.deepcopy(state)
            for d in signed.d:
                d *= rng.choice([-1.0, 1.0], size=d.shape)
            for s in range(3):
                assert np.array_equal(update_d(signed, xs, h, s,
                                               SolverConfig()),
                                      update_d(state, xs, h, s,
                                               SolverConfig()))

    def test_zero_ridge(self):
        # without the ridge the system is mu (H'H + 11'), singular when
        # n_h > L+1 and positive definite otherwise
        rng = np.random.default_rng(26)
        cfg = SolverConfig(lambda2=0.0)
        xs, h, state = random_instance(rng, n_bands=4, n_h=8)
        with pytest.raises(np.linalg.LinAlgError):
            update_d(state, xs, h, 0, cfg)
        with pytest.raises(np.linalg.LinAlgError):
            solve(xs, h, cfg)
        xs, h, state = random_instance(rng, n_bands=8, n_h=6)
        d = update_d(state, xs, h, 0, cfg)
        assert np.isfinite(d).all() and d.min() >= 0.0


class TestUpdateE:
    def test_average_of_equal_terms(self):
        rng = np.random.default_rng(16)
        xs, h, state = random_instance(rng)
        common = xs[0] - h @ (state.c + state.d[0])
        state.w[0] = common
        state.y1[0] = np.zeros_like(state.y1[0])
        state.y3[0] = np.zeros_like(state.y3[0])
        assert np.allclose(update_e(state, xs, h, 0), common, atol=1e-12)

    def test_zero_case(self):
        state = init_state(2, 3, 4, 2, mu0=1.0)
        state.y3 = [np.zeros((3, 4)), np.zeros((3, 4))]
        xs = [np.zeros((3, 4)), np.zeros((3, 4))]
        h = np.zeros((3, 2))
        assert np.array_equal(update_e(state, xs, h, 0), np.zeros((3, 4)))

    def test_zeroes_subproblem_gradient(self):
        rng = np.random.default_rng(17)
        xs, h, state = random_instance(rng)
        e = update_e(state, xs, h, 0)
        mu = state.mu
        grad = -mu * (xs[0] - h @ (state.c + state.d[0]) - e
                      + state.y1[0] / mu) \
            + mu * (e - state.w[0] + state.y3[0] / mu)
        assert np.abs(grad).max() <= 1e-10 * max(1.0, np.abs(e).max()) * mu


def dense_w(state, s):
    """W^s of a state as an L x N matrix."""
    w = np.zeros(state.e[s].shape)
    w[:, state.w_cols[s]] = state.w[s]
    return w


class TestUpdateW:
    def test_is_column_shrinkage_at_inverse_mu(self):
        # the next W^s is the l2,1 shrinkage at 1/mu of W + Y1/mu, taken
        # from and returned as its nonzero columns
        rng = np.random.default_rng(18)
        mu, cols = 2.0, np.array([1, 4, 5, 9])
        w = rng.standard_normal((4, cols.size))
        y1 = rng.standard_normal((4, 12))
        y1[:, ::3] *= 0.1
        dense = np.zeros((4, 12))
        dense[:, cols] = w
        expected = l21_shrink(dense + y1 / mu, 1.0 / mu)
        idx, values = solver_mod._w_block(y1, (cols, w), mu)
        assert np.array_equal(idx, np.flatnonzero(expected.any(axis=0)))
        assert 0 < idx.size < 12
        assert np.array_equal(values, expected[:, idx])


def gap_step(state, xs, h):
    """solve()'s gap-and-ascent kernel over all columns: the max-abs gaps
    (data fit, E-W, column sums, C-J), the ascent on Y1, Y2 and Y4 in
    place, and the next W^s from the state's W^s and Y1^s; mu is left
    alone."""
    cols = slice(None)
    r = np.zeros(3)
    ws = []
    for s, x in enumerate(xs):
        cd = state.c + state.d[s]
        w, gaps = solver_mod._gap_block(state, s, cd.sum(axis=0),
                                        x - h @ cd,
                                        (state.w_cols[s], state.w[s]), cols)
        ws.append(w)
        r = np.maximum(r, gaps)
    state.w_cols, state.w = map(list, zip(*ws))
    return (*map(float, r), solver_mod._cj_block(state, cols))


def gaps_then_ascent(st, xs, h):
    """The four max-abs feasibility gaps, each formed out of place, then the
    dual ascent on every multiplier as a separate pass (mu unchanged)."""
    fit = [x - h @ (st.c + d) - e for x, d, e in zip(xs, st.d, st.e)]
    ew = [e - w for e, w in zip(st.e, st.w)]
    col = [(st.c + d).sum(axis=0) - 1.0 for d in st.d]
    cj = st.c - st.j
    r = [max(float(np.abs(g).max()) for g in gaps) for gaps in (fit, ew, col)]
    mu = st.mu
    st.y1 = [y + mu * g for y, g in zip(st.y1, fit)]
    st.y3 = [y + mu * g for y, g in zip(st.y3, ew)]
    st.y2 = [y + mu * g for y, g in zip(st.y2, col)]
    st.y4 = st.y4 + mu * cj
    return (*r, float(np.abs(cj).max()))


class TestMultipliers:
    def test_mu_growth_and_cap(self):
        # the mu column of the trace: mu0, then min(rho mu, mu_max)
        rng = np.random.default_rng(19)
        xs = [rng.standard_normal((4, 30)) for _ in range(2)]
        h = rng.standard_normal((4, 9))
        capped = SolverConfig(mu0=0.5, mu_max=4.0, rho=1.5, max_iter=10)
        for cfg in (SolverConfig(max_iter=20), capped):
            mus = [row[5] for row in solve(xs, h, cfg).trace]
            assert len(mus) == cfg.max_iter
            assert mus[0] == cfg.mu0
            assert mus[1:] == [min(cfg.rho * mu, cfg.mu_max)
                               for mu in mus[:-1]]
        assert mus.count(capped.mu_max) > 1

    def test_feasible_state_leaves_multipliers_unchanged(self):
        rng = np.random.default_rng(20)
        n_h, n, n_bands = 3, 5, 4
        h = rng.standard_normal((n_bands, n_h))
        state = init_state(2, n_bands, n, n_h, mu0=0.7)
        state.c = rng.standard_normal((n_h, n))
        state.c -= (state.c.sum(axis=0) - 1.0) / n_h  # column sums = 1
        state.j = state.c.copy()
        xs = []
        state.w_cols = [np.arange(n)] * 2
        for s in range(2):
            state.e[s] = rng.standard_normal((n_bands, n))
            state.w[s] = state.e[s].copy()
            xs.append(h @ (state.c + state.d[s]) + state.e[s])
        before = [m.copy() for m in state.y1] + [state.y4.copy()]
        gap_step(state, xs, h)
        assert np.allclose(state.y1[0], before[0], atol=1e-12)
        assert np.allclose(state.y4, before[-1], atol=1e-12)
        assert np.abs(state.y2[0]).max() < 1e-12


class TestResiduals:
    def test_all_zero_state(self):
        state = init_state(2, 3, 4, 2, mu0=1.0)
        xs = [np.zeros((3, 4)), np.zeros((3, 4))]
        h = np.zeros((3, 2))
        assert gap_step(state, xs, h) == (0.0, 0.0, 1.0, 0.0)

    # which gaps see a NaN in each block: solve() reads the finiteness of
    # the state from them
    @pytest.mark.parametrize("block,nan_gaps", [
        ("c", (0, 2, 3)), ("d", (0, 2)), ("e", (0, 1)),
    ])
    def test_nan_state_gives_nan_residual(self, block, nan_gaps):
        rng = np.random.default_rng(22)
        xs, h, state = random_instance(rng)
        target = state.c if block == "c" else getattr(state, block)[1]
        target[0, 0] = np.nan
        r = gap_step(state, xs, h)
        assert [i for i in range(4) if np.isnan(r[i])] == list(nan_gaps)

    def test_c_perturbation_moves_cj_residual(self):
        rng = np.random.default_rng(21)
        xs, h, state = random_instance(rng)
        state.j = state.c.copy()
        delta = rng.standard_normal(state.c.shape)
        state.c = state.c + delta
        r = gap_step(state, xs, h)
        assert np.isclose(r[3], np.abs(delta).max())


def ascent_then_w(st, xs, h):
    """The data-fit, column-sum and C-J gaps, each formed out of place, the
    dual ascent on Y1, Y2 and Y4 as a separate pass, then the next W^s as
    the dense l2,1 shrinkage of W^s + Y1^s/mu at 1/mu and the E-W gap to
    it (mu unchanged)."""
    fit = [x - h @ (st.c + d) - e for x, d, e in zip(xs, st.d, st.e)]
    col = [(st.c + d).sum(axis=0) - 1.0 for d in st.d]
    cj = st.c - st.j
    mu = st.mu
    st.y1 = [y + mu * g for y, g in zip(st.y1, fit)]
    st.y2 = [y + mu * g for y, g in zip(st.y2, col)]
    st.y4 = st.y4 + mu * cj
    st.w = [l21_shrink(dense_w(st, s) + st.y1[s] / mu, 1.0 / mu)
            for s in range(len(xs))]
    ew = [e - w for e, w in zip(st.e, st.w)]
    r = [max(float(np.abs(g).max()) for g in gaps) for gaps in (fit, ew, col)]
    return (*r, float(np.abs(cj).max()))


class TestFeasibilityStep:
    @pytest.mark.parametrize("n_views", [2, 3])
    def test_matches_separate_residuals_and_ascent_bitwise(self, n_views):
        rng = np.random.default_rng(28 + n_views)
        xs, h, state = random_instance(rng, n_views=n_views, n_bands=5,
                                       n_pixels=40, n_h=7)
        # W^s nonzero on every third column, and the ascent on Y1^s
        # cancelling on every second one: the next W^s is sparse too
        state.w_cols = [np.arange(0, 40, 3)] * n_views
        for s, x in enumerate(xs):
            state.w[s] = state.w[s][:, ::3].copy()
            fit = x - h @ (state.c + state.d[s]) - state.e[s]
            state.y1[s][:, ::2] = -state.mu * fit[:, ::2]
        fused, ref = copy.deepcopy(state), copy.deepcopy(state)
        r_fused = gap_step(fused, xs, h)
        r_ref = ascent_then_w(ref, xs, h)
        assert min(r_ref) > 0  # nonfeasible in every constraint
        assert r_fused == r_ref
        assert fused.mu == ref.mu
        for name in ("y1", "y2"):
            for a, b in zip(getattr(fused, name), getattr(ref, name)):
                assert np.array_equal(a, b)
        assert np.array_equal(fused.y4, ref.y4)
        for s in range(n_views):
            assert 0 < fused.w_cols[s].size < 40
            assert np.array_equal(dense_w(fused, s), ref.w[s])


def dense_reference_solve(xs, h, cfg):
    """solve() written from the update equations as a loop of dense block
    updates in its Gauss-Seidel order: C and each D^s by np.linalg.solve
    with G = H'H + 11', J by the SVT of the full n_h x N matrix, E^s in
    closed form, W^s by l2,1 shrinkage, then the gaps, the dual ascent and
    the mu step. Y3^s and W^s are explicit and dense; residuals records
    (r1, r2, r3, r4) and w_support the nonzero W^s columns of each view per
    iteration. Shares only svt and l21_shrink with the solver."""
    n_views, n_h, n_pixels = len(xs), h.shape[1], xs[0].shape[1]
    g = h.T @ h + np.ones((n_h, n_h))
    eye = np.eye(n_h)
    st = SimpleNamespace(
        c=np.zeros((n_h, n_pixels)), j=np.zeros((n_h, n_pixels)),
        d=[np.zeros((n_h, n_pixels)) for _ in xs],
        e=[np.zeros_like(x) for x in xs], w=[np.zeros_like(x) for x in xs],
        y1=[np.zeros_like(x) for x in xs], y2=[np.zeros(n_pixels) for _ in xs],
        y3=[np.zeros_like(x) for x in xs], y4=np.zeros((n_h, n_pixels)),
        mu=cfg.mu0, residuals=[], w_support=[])
    for _ in range(cfg.max_iter):
        mu = st.mu
        b = st.j - st.y4 / mu
        for s, x in enumerate(xs):
            b += h.T @ (x - h @ st.d[s] - st.e[s] + st.y1[s] / mu) \
                + (1.0 - st.d[s].sum(axis=0) - st.y2[s] / mu)
        st.c = np.linalg.solve(eye + n_views * g, b)
        m, tau = st.c + st.y4 / mu, cfg.lambda1 / mu
        st.j = np.zeros_like(m) if np.linalg.norm(m) <= tau else svt(m, tau)
        for s, x in enumerate(xs):
            rhs = mu * h.T @ (x - h @ st.c - st.e[s] + st.y1[s] / mu) \
                + (mu * (1.0 - st.c.sum(axis=0)) - st.y2[s]) \
                - cfg.lambda3 * sum(np.abs(st.d[t]) for t in range(n_views)
                                    if t != s)
            st.d[s] = np.maximum(
                np.linalg.solve(cfg.lambda2 * eye + mu * g, rhs), 0.0)
            st.e[s] = 0.5 * (x - h @ (st.c + st.d[s]) + st.y1[s] / mu
                             + st.w[s] - st.y3[s] / mu)
            st.w[s] = l21_shrink(st.e[s] + st.y3[s] / mu, 1.0 / mu)
        r = gaps_then_ascent(st, xs, h)
        st.mu = min(cfg.rho * mu, cfg.mu_max)
        st.residuals.append(r)
        st.w_support.append([set(np.flatnonzero(w.any(axis=0)))
                             for w in st.w])
        if max(r) < cfg.epsilon:
            break
    return st


def in_n_h_space(state):
    """A copy of a solve() state with each W^s as a dense L x N matrix and
    C, J and Y4 as n_h x N matrices: U times their coordinates when the
    state has a basis."""
    n_views, n_pixels = len(state.e), state.e[0].shape[1]
    state = dataclasses.replace(
        copy.deepcopy(state), w=[dense_w(state, s) for s in range(n_views)],
        w_cols=[np.arange(n_pixels)] * n_views)
    if state.basis is None:
        return state
    u = state.basis
    return dataclasses.replace(state, c=u @ state.c, j=u @ state.j,
                               y4=u @ state.y4, basis=None)


def assert_rel_close(got, expected, rtol):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


def assert_same_residuals(result, ref, rtol):
    """Each of r1..r4 per iteration, and their max, as the reference's."""
    got = np.array([row[1:5] for row in result.trace])
    expected = np.array(ref.residuals)
    assert got.shape == expected.shape
    for i in range(4):
        assert_rel_close(got[:, i], expected[:, i], rtol)
    assert_rel_close(result.residual_history, expected.max(axis=1), rtol)


ACTIVE_SVT = SolverConfig(lambda1=0.05, mu0=0.5, rho=1.3, max_iter=25)
# near the threshold: whether J is zero depends on all blocks' sums
EDGE_SVT = SolverConfig(lambda1=2.0, mu0=0.5, rho=1.3, max_iter=25)


class TestSolve:
    @pytest.mark.parametrize("n_views", [2, 3])
    # multi_block: 30 columns in blocks of 4 (the last has 2)
    @pytest.mark.parametrize("n_bands,n_h,block", [
        (4, 9, None), (8, 6, None), (4, 9, 4),
    ], ids=["rank_deficient", "full_rank", "multi_block"])
    @pytest.mark.parametrize("cfg", [SolverConfig(), ACTIVE_SVT, EDGE_SVT],
                             ids=["defaults", "active_svt", "edge_svt"])
    def test_matches_block_function_loop(self, monkeypatch, n_views, n_bands,
                                         n_h, block, cfg):
        # the loop is dense_reference_solve, which shares no block code
        # with solve()
        if block is not None:
            monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", block)
            monkeypatch.setattr(solver_mod, "_block_workers",
                                lambda n, size: 2)
        rng = np.random.default_rng(27 + n_views + n_h)
        xs = [rng.standard_normal((n_bands, 30)) for _ in range(n_views)]
        h = rng.standard_normal((n_bands, n_h))
        result = solve(xs, h, cfg)
        # two threads widen the blocks to 12 columns: 12, 12, 4 and 2
        assert result.block_columns == (512 if block is None else 12)
        # with n_h > L+1, C, J and Y4 are held as r x N coordinates
        assert (result.state.basis is None) == (n_h <= n_bands + 1)
        got = in_n_h_space(result.state)
        ref = dense_reference_solve(xs, h, cfg)
        if cfg.mu0 > SolverConfig().mu0:
            assert np.abs(ref.j).max() > 0  # the SVT keeps a nonzero part
        for name in ("c", "j", "y4"):
            assert_rel_close(getattr(got, name), getattr(ref, name), 1e-9)
        for s in range(n_views):
            for name in ("d", "e", "w", "y1"):
                assert_rel_close(getattr(got, name)[s],
                                 getattr(ref, name)[s], 1e-9)
        assert_same_residuals(result, ref, 1e-9)

    def test_sparse_w_matches_dense_reference(self, monkeypatch):
        # a few outlier columns on a well-fit scene: W^s is nonzero on some
        # blocks of 4 columns and zero on others (no budget to widen them
        # on two threads), and a column of the first view turns nonzero and
        # then zero again, so E^s reads W_{k-1}
        monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 4)
        monkeypatch.setattr(solver_mod, "_THREAD_BLOCK_BYTES", 0)
        monkeypatch.setattr(solver_mod, "_block_workers",
                            lambda n, size: 2)
        rng = np.random.default_rng(4)
        h = rng.standard_normal((4, 9))
        a = rng.dirichlet(np.ones(9), size=30).T
        xs = [h @ a + 0.05 * rng.standard_normal((4, 30)) for _ in range(2)]
        for x in xs:
            x[:, rng.choice(30, 4, replace=False)] += \
                3.0 * rng.standard_normal((4, 4))
        result = solve(xs, h, ACTIVE_SVT)
        ref = dense_reference_solve(xs, h, ACTIVE_SVT)
        support = [it[0] for it in ref.w_support]
        assert any(prev - cur for prev, cur in zip(support, support[1:]))
        assert result.block_columns == 4
        blocks_hit = {col // 4 for col in set().union(*support)}
        assert 0 < len(blocks_hit) < 8
        got = in_n_h_space(result.state)
        for name in ("c", "j", "y4"):
            assert_rel_close(getattr(got, name), getattr(ref, name), 1e-9)
        for s in range(2):
            assert set(result.state.w_cols[s]) == ref.w_support[-1][s]
            for name in ("d", "e", "w", "y1"):
                assert_rel_close(getattr(got, name)[s],
                                 getattr(ref, name)[s], 1e-9)
        assert_same_residuals(result, ref, 1e-9)
        assert result.w_nonzero_columns == [
            max(len(it[s]) for it in ref.w_support) for s in range(2)]

    @pytest.mark.parametrize("n_views", [2, 3])
    def test_one_view_with_w_beside_views_without(self, monkeypatch,
                                                  n_views):
        # outliers in the first view only, outside range(H): no coefficient
        # fits them, so W^1 turns nonzero at iteration 2 while the other
        # views' W^s stay empty, and their passes skip the W bookkeeping
        monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 4)
        rng = np.random.default_rng(43)
        h = rng.standard_normal((8, 6))
        a = rng.dirichlet(np.ones(6), size=30).T
        xs = [h @ a + 0.01 * rng.standard_normal((8, 30))
              for _ in range(n_views)]
        outliers = rng.standard_normal((8, 4))
        q = np.linalg.qr(h)[0]
        xs[0][:, rng.choice(30, 4, replace=False)] += \
            3.0 * (outliers - q @ (q.T @ outliers))
        cfg = SolverConfig(lambda1=0.05, mu0=0.2, rho=1.3, max_iter=12)
        ref = dense_reference_solve(xs, h, cfg)
        assert [bool(it[0]) for it in ref.w_support[:2]] == [False, True]
        assert not any(it[s] for it in ref.w_support
                       for s in range(1, n_views))
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(solver_mod, "_block_workers",
                                lambda n, size, w=workers: w)
            results.append(solve(xs, h, cfg))
        assert [r.block_columns for r in results] == [4, 12]
        _assert_same_solve(*results)
        maps = [score_multiview(h, r.state.d, r.state.e, 5, 6).scores
                for r in results]
        assert np.array_equal(*maps)
        got = in_n_h_space(results[0].state)
        for name in ("c", "j", "y4"):
            assert_rel_close(getattr(got, name), getattr(ref, name), 1e-9)
        for s in range(n_views):
            for name in ("d", "e", "w", "y1"):
                assert_rel_close(getattr(got, name)[s],
                                 getattr(ref, name)[s], 1e-9)
        assert_same_residuals(results[0], ref, 1e-9)
        assert results[0].w_nonzero_columns[1:] == [0] * (n_views - 1)

    @pytest.mark.parametrize("n_views", [2, 3])
    def test_pass_a_products_with_n_h_rows(self, monkeypatch, n_views):
        # r = 5 < n_h = 9: per block and iteration, pass A takes each
        # view's U z and U'D^s after its step (U'D^s before the C step is
        # the one carried from the last iteration) and pass B U(C - J)
        calls = []

        class CountedBasis(np.ndarray):
            """U, counting the products it takes part in."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    calls.append(ufunc)
                return getattr(ufunc, method)(*map(np.asarray, inputs),
                                              **kwargs)

        init = solver_mod._Gram.__init__

        def counted_init(gram, h):
            init(gram, h)
            gram.u = gram.basis = gram.u.view(CountedBasis)

        passes = {"_pass_a": [], "_cj_block": []}
        for name, seen in passes.items():
            fn = getattr(solver_mod, name)

            def counted(*args, fn=fn, seen=seen):
                before = len(calls)
                result = fn(*args)
                seen.append(len(calls) - before)
                return result

            monkeypatch.setattr(solver_mod, name, counted)
        monkeypatch.setattr(solver_mod._Gram, "__init__", counted_init)
        monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 6)
        rng = np.random.default_rng(44)
        xs = [rng.standard_normal((4, 30)) for _ in range(n_views)]
        result = solve(xs, rng.standard_normal((4, 9)),
                       SolverConfig(max_iter=3))
        assert result.state.basis.shape == (9, 5)
        assert passes == {"_pass_a": [2 * n_views] * (3 * 5),
                          "_cj_block": [1] * (3 * 5)}

    @pytest.mark.parametrize("cfg,svt_runs", [
        (SolverConfig(), False), (ACTIVE_SVT, True),
    ], ids=["defaults", "active_svt"])
    def test_svt_runs_only_above_threshold(self, monkeypatch, cfg, svt_runs):
        # below the threshold J is set to zero without svt and without the
        # products with U
        rng = np.random.default_rng(31)
        xs = [rng.standard_normal((4, 30)) for _ in range(2)]
        h = rng.standard_normal((4, 9))
        calls = []
        monkeypatch.setattr(solver_mod, "svt",
                            lambda m, tau: calls.append(tau) or svt(m, tau))
        result = solve(xs, h, cfg)
        assert bool(calls) == svt_runs
        if svt_runs:
            assert 0 < result.svt_iterations <= len(calls)
        else:
            assert result.svt_iterations == 0
            assert not result.state.j.any()

    @pytest.mark.parametrize("cfg", [SolverConfig(max_iter=12), ACTIVE_SVT],
                             ids=["defaults", "active_svt"])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, cfg):
        # 30 columns in blocks of 4 (the last has 2) on one thread, of 12 on
        # two and of 8 on three: the partial sums are combined in block
        # order, whatever the number of workers and the width
        monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 4)
        rng = np.random.default_rng(32)
        xs = [rng.standard_normal((4, 30)) for _ in range(3)]
        h = rng.standard_normal((4, 9))
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(solver_mod, "_block_workers",
                                lambda n, size, w=workers: w)
            results.append(solve(xs, h, cfg))
        assert [r.block_columns for r in results] == [4, 12, 8]
        first = results[0]
        for res in results[1:]:
            assert res.trace == first.trace
            for name in ("c", "j", "y4"):
                assert np.array_equal(getattr(res.state, name),
                                      getattr(first.state, name))
            for name in ("d", "e", "w", "w_cols", "y1", "y2"):
                for a, b in zip(getattr(res.state, name),
                                getattr(first.state, name)):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_pixels,widths", [
        (30, [30]), (1000, [512, 488]), (2600, [512] * 5 + [40]),
    ])
    def test_column_blocks(self, n_pixels, widths):
        # 512 columns each, the last ragged
        blocks = solver_mod._column_blocks(n_pixels)
        assert [len(range(n_pixels)[b]) for b in blocks] == widths

    @pytest.mark.parametrize("n_pixels,widths", [
        (4096, [2048, 2048]), (4100, [2048, 2048, 4]),
        (3000, [2048, 512, 440]), (300, [300]),
    ])
    def test_wide_column_blocks(self, n_pixels, widths):
        # 4 x 512 columns each; the last whole ones may span fewer, and a
        # ragged rest is a block of its own
        blocks = solver_mod._column_blocks(n_pixels, 4)
        assert [len(range(n_pixels)[b]) for b in blocks] == widths

    @pytest.mark.parametrize("env", [
        {"OPENBLAS_NUM_THREADS": "1"},
        {"OMP_NUM_THREADS": "2"},
        {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"},
        {"MKL_NUM_THREADS": "4"},
        {},
    ], ids=["one_thread", "two_threads", "first_set_wins", "all_cpus",
            "unset"])
    def test_block_workers_rule(self, monkeypatch, env):
        # 4 CPUs, at most one worker per block. A small block runs on one;
        # with numpy's BLAS count settable every CPU runs one, without it
        # the calling thread; no thread variable changes either
        monkeypatch.setattr(solver_mod, "_available_cpus", lambda: 4)
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        big = solver_mod._SMALL_BLOCK_BYTES
        rule = solver_mod._block_workers
        for handle in (FakeBlas(2), None):
            monkeypatch.setattr(solver_mod, "_blas_threads", lambda: handle)
            assert rule(100, big - 1) == 1
            assert rule(100, big) == (4 if handle else 1)
            assert rule(3, big) == (3 if handle else 1)

    @pytest.mark.parametrize("shape,plan", [
        ((32, 100, 3, 4096), (2048, 2)),  # drift3: 2.0 MB at 512 columns
        ((16, 500, 2, 4096), (512, 2)),  # default64: 4.4 MB
        ((224, 200, 2, 40000), (512, 2)),  # sensor: 5.3 MB
        ((16, 50, 2, 4000), (512, 1)),  # criterion 7: 0.67 MB
        ((32, 100, 3, 1000), (512, 2)),  # fewer whole blocks than CPUs
        ((32, 100, 3, 5124), (2048, 2)),  # 2048, 2048, 1024 and 4
    ], ids=["drift3", "default64", "sensor", "criterion_7", "few_blocks",
            "ragged"])
    def test_block_plan(self, monkeypatch, shape, plan):
        # 2 CPUs: threaded blocks widen to at most 8 MiB and to no fewer
        # blocks than threads; blocks on one thread stay at 512 columns, as
        # do all blocks where numpy's BLAS count cannot be set
        n_bands, n_h, n_views, n_pixels = shape
        monkeypatch.setattr(solver_mod, "_available_cpus", lambda: 2)
        column_bytes = 8 * n_views * (2 * n_bands + n_h)
        for handle, want in ((FakeBlas(2), plan), (None, (512, 1))):
            monkeypatch.setattr(solver_mod, "_blas_threads", lambda: handle)
            k, workers = solver_mod._block_plan(n_pixels, column_bytes)
            assert (k * solver_mod._BLOCK_COLUMNS, workers) == want
            assert len(solver_mod._column_blocks(n_pixels, k)) >= workers

    def test_wide_blocks_keep_the_bits_of_narrow_ones(self, monkeypatch):
        # drift3's shape with a ragged rest of 4 columns: two threads run
        # blocks of 2048, 2048, 1024 and 4 columns, one thread blocks of 512
        # and 4; the products give each column the same bits (a rest of 4
        # inside a block of 1028 would not), and the J step
        # reads the same sums of ||C + Y4/mu||_F^2 over 512-column pieces.
        # numpy's BLAS is held at one thread on the calling thread too,
        # since OpenBLAS splits a long dot product over its threads
        rng = np.random.default_rng(45)
        xs = [rng.standard_normal((32, 5124)) for _ in range(3)]
        h = rng.standard_normal((32, 100))
        pass_a = solver_mod._pass_a
        results, sums = [], []
        for workers in (1, 2):
            seen = []

            def recorded(*args, seen=seen):
                parts = pass_a(*args)
                seen.append(parts[0])
                return parts

            monkeypatch.setattr(solver_mod, "_block_workers",
                                lambda n, size, w=workers: w)
            monkeypatch.setattr(solver_mod, "_pass_a", recorded)
            with sketch._one_blas_thread():
                results.append(solve(xs, h, SolverConfig(max_iter=3)))
            sums.append([p for block in seen for p in block])
        assert [r.block_columns for r in results] == [512, 2048]
        assert len(sums[0]) == len(sums[1]) == 3 * 11
        assert sorted(sums[0]) == sorted(sums[1])
        _assert_same_solve(*results)

    def test_traced_names_stay_on_the_calling_thread(self, monkeypatch):
        # the benchmark's span recorder keeps one stack per process, so the
        # solver names it wraps (perfbench/tracing.py) must not run on a
        # block worker
        monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 4)
        monkeypatch.setattr(solver_mod, "_block_workers",
                            lambda n, size: 3)
        threads = []
        for name in ("svt", "update_e"):
            fn = getattr(solver_mod, name)

            def record(*args, fn=fn, **kwargs):
                threads.append(threading.current_thread())
                return fn(*args, **kwargs)

            monkeypatch.setattr(solver_mod, name, record)
        rng = np.random.default_rng(33)
        xs = [rng.standard_normal((4, 30)) for _ in range(2)]
        result = solve(xs, rng.standard_normal((4, 9)), ACTIVE_SVT)
        assert result.block_columns == 8  # 8, 8, 8, 4 and 2 columns
        assert threads  # the SVT ran
        assert set(threads) == {threading.main_thread()}

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        xs = [rng.standard_normal((4, 30)) for _ in range(2)]
        h = rng.standard_normal((4, 5))
        cfg = SolverConfig(max_iter=8)
        r1 = solve(xs, h, cfg)
        r2 = solve(xs, h, cfg)
        assert np.array_equal(r1.state.c, r2.state.c)
        assert r1.residual_history == r2.residual_history

    def test_shapes_and_invariants(self):
        rng = np.random.default_rng(23)
        xs = [rng.standard_normal((4, 30)) for _ in range(3)]
        h = rng.standard_normal((4, 5))
        res = solve(xs, h, SolverConfig(max_iter=10))
        st = res.state
        assert st.c.shape == (5, 30) and st.j.shape == (5, 30)
        assert all(d.shape == (5, 30) and d.min() >= 0 for d in st.d)
        assert all(e.shape == (4, 30) for e in st.e)
        assert len(res.residual_history) == res.iterations_run
        mus = [row[5] for row in res.trace]
        assert all(b >= a for a, b in zip(mus, mus[1:]))
        assert mus[-1] <= SolverConfig().mu_max

    def test_peak_memory_with_coordinates(self, monkeypatch):
        # r = 17 < n_h = 500: C, J and Y4 are 17 x N coordinates, so the
        # only n_h x N arrays are the S blocks D^s
        monkeypatch.setattr(solver_mod, "_block_workers",
                            lambda n, size: 1)
        rng = np.random.default_rng(35)
        n_views, n_h, n_pixels = 2, 500, 4096
        xs = [rng.standard_normal((16, n_pixels)) for _ in range(n_views)]
        h = rng.standard_normal((16, n_h))
        tracemalloc.start()
        try:
            result = solve(xs, h, SolverConfig(max_iter=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n_views + 1) * n_h * n_pixels * 8
        assert result.state.basis.shape == (n_h, 17)

    def test_block_temporaries_have_few_n_h_rows(self, monkeypatch):
        # r = 17 < n_h = 500: the C step, the D^s right-hand sides and the
        # fits are formed as r-row coordinates, so a block of 512 columns
        # takes fewer than four n_h x 512 temporaries at a time
        monkeypatch.setattr(solver_mod, "_block_workers",
                            lambda n, size: 1)
        rng = np.random.default_rng(37)
        n_views, n_h, n_pixels = 2, 500, 4096
        xs = [rng.standard_normal((16, n_pixels)) for _ in range(n_views)]
        h = rng.standard_normal((16, n_h))
        tracemalloc.start()
        try:
            result = solve(xs, h, SolverConfig(max_iter=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        st = result.state
        assert st.basis.shape == (n_h, 17)
        held = sum(a.nbytes for a in (st.c, st.j, st.y4, *st.d, *st.e,
                                      *st.w, *st.y1, *st.y2))
        assert peak - held < 4 * n_h * 512 * 8

    def test_peak_memory_holds_no_y3_and_no_dense_w(self, monkeypatch):
        # W = 0 at the default schedule: the solve holds c, j and y4, the
        # D^s, E^s, Y1^s and Y2^s, and block temporaries (one block thread,
        # 16 blocks of 512 columns) well below one L x N array; a dense
        # Y3^s or W^s per view would add two L x N arrays
        monkeypatch.setattr(solver_mod, "_block_workers",
                            lambda n, size: 1)
        rng = np.random.default_rng(36)
        n_views, n_bands, n_h, n_pixels = 2, 64, 20, 8192
        xs = [rng.standard_normal((n_bands, n_pixels))
              for _ in range(n_views)]
        h = rng.standard_normal((n_bands, n_h))
        tracemalloc.start()
        try:
            result = solve(xs, h, SolverConfig(max_iter=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        st = result.state
        assert st.y3 == [] and not any(w.size for w in st.w)
        held = sum(a.nbytes for a in (st.c, st.j, st.y4, *st.d, *st.e,
                                      *st.y1, *st.y2))
        assert peak < held + n_bands * n_pixels * 8

    def test_converged_flag_sound(self):
        # an aggressive penalty schedule that actually reaches feasibility
        rng = np.random.default_rng(24)
        xs = [rng.standard_normal((4, 25)) for _ in range(2)]
        h = rng.standard_normal((4, 8))
        cfg = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda3=1e-3,
                           mu0=1.0, mu_max=1e12, rho=1.5, max_iter=300,
                           epsilon=1e-5)
        res = solve(xs, h, cfg)
        assert res.converged
        assert res.state.basis is not None  # n_h = 8 > L+1 = 5
        r = gaps_then_ascent(in_n_h_space(res.state), xs, h)
        assert max(r) < cfg.epsilon

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve([np.zeros((4, 5)), np.zeros((4, 5))], np.zeros((3, 2)),
                  SolverConfig())

    def test_non_finite_state_reports_block(self):
        blocks = [
            ("C", lambda st: st.c), ("D", lambda st: st.d[1]),
            ("E", lambda st: st.e[0]), ("Y2", lambda st: st.y2[1]),
        ]
        for name, get in blocks:
            for value in (np.nan, np.inf, -np.inf):
                state = init_state(2, 2, 3, 2, mu0=1.0)
                solver_mod._check_finite(state, iteration=2)
                get(state).flat[-1] = value
                with pytest.raises(SolverError,
                                   match=f"in {name} at iteration 3"):
                    solver_mod._check_finite(state, iteration=3)

    def test_non_finite_c_reported_before_the_j_step(self, monkeypatch):
        # a NaN in C fails as SolverError naming C and its iteration, not
        # in the SVT of C + Y4/mu
        c_step = solver_mod._c_step

        def nan_from_iteration_2(gram, inv_c, state, *args):
            c = c_step(gram, inv_c, state, *args)
            if state.mu > ACTIVE_SVT.mu0:
                c[0, 0] = np.nan
            return c

        monkeypatch.setattr(solver_mod, "_c_step", nan_from_iteration_2)
        rng = np.random.default_rng(34)
        xs = [rng.standard_normal((4, 30)) for _ in range(2)]
        with pytest.raises(SolverError, match="in C at iteration 2"):
            solve(xs, rng.standard_normal((4, 9)), ACTIVE_SVT)

    def test_large_finite_state_passes(self):
        # the squared norm of C overflows, but every entry is finite
        state = init_state(2, 2, 3, 2, mu0=1.0)
        state.c[:] = 1e300
        solver_mod._check_finite(state, iteration=1)


def _instance(seed):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((4, 30)) for _ in range(2)]
    return xs, rng.standard_normal((4, 9))


def _assert_same_solve(a, b):
    assert a.trace == b.trace
    for name in ("c", "j", "y4"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name))
    for name in ("d", "e", "w", "w_cols", "y1", "y2"):
        for x, y in zip(getattr(a.state, name), getattr(b.state, name)):
            assert np.array_equal(x, y)


class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def two_block_threads(self, monkeypatch):
        # 30 columns in blocks of 4, on two block threads, which widen them
        # to 12 (12, 12, 4 and 2 columns)
        monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 4)
        monkeypatch.setattr(solver_mod, "_block_workers",
                            lambda n, size: 2)

    def test_one_blas_thread_in_blocks_only(self, monkeypatch, blas):
        # the blocks and the J step's SVT run with numpy's BLAS at one
        # thread, and its count is back after the solve
        in_blocks, in_j = [], []
        for name, seen in (("_pass_a", in_blocks), ("_cj_block", in_blocks),
                           ("svt", in_j)):
            fn = getattr(solver_mod, name)

            def record(*args, fn=fn, seen=seen, **kwargs):
                seen.append((threading.current_thread(), blas.get()))
                return fn(*args, **kwargs)

            monkeypatch.setattr(solver_mod, name, record)
        result = solve(*_instance(38), ACTIVE_SVT)
        assert {count for _, count in in_blocks} == {1}
        assert threading.main_thread() not in {t for t, _ in in_blocks}
        assert in_j and {count for _, count in in_j} == {1}
        assert blas.get() == 2
        assert (result.block_threads, result.block_columns) == (2, 12)

    @pytest.mark.parametrize("in_block", [False, True],
                             ids=["non_finite_c", "raised_in_block"])
    def test_blas_count_restored_after_solver_error(self, monkeypatch, blas,
                                                    in_block):
        # the non-finite C of test_non_finite_c_reported_before_the_j_step
        # fails between the block passes; an error raised on a block
        # thread fails inside one
        c_step = solver_mod._c_step

        def nan_from_iteration_2(gram, inv_c, state, *args):
            c = c_step(gram, inv_c, state, *args)
            if state.mu > ACTIVE_SVT.mu0:
                if in_block:
                    raise SolverError("raised in a block")
                c[0, 0] = np.nan
            return c

        monkeypatch.setattr(solver_mod, "_c_step", nan_from_iteration_2)
        with pytest.raises(SolverError):
            solve(*_instance(34), ACTIVE_SVT)
        assert blas.get() == 2

    def test_concurrent_solves(self, monkeypatch, blas):
        # two solves at once give the serial bits, every J step sees one
        # BLAS thread, and the configured count is back afterwards
        in_j = []
        fn = solver_mod.svt

        def record(*args, **kwargs):
            in_j.append(blas.get())
            return fn(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "svt", record)
        instances = [_instance(40), _instance(41)]
        serial = [solve(*inst, ACTIVE_SVT) for inst in instances]
        results = [None, None]
        barrier = threading.Barrier(2)

        def run(k):
            barrier.wait()
            results[k] = solve(*instances[k], ACTIVE_SVT)

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert got.block_columns == want.block_columns == 12
            _assert_same_solve(got, want)
        assert in_j and set(in_j) == {1}
        assert blas.get() == 2


def test_bits_do_not_depend_on_the_blas_handle(monkeypatch):
    # the rule itself: both CPUs with the handle, on blocks widened to 12
    # columns, the calling thread without it, on blocks of 4
    monkeypatch.setattr(solver_mod, "_BLOCK_COLUMNS", 4)
    monkeypatch.setattr(solver_mod, "_SMALL_BLOCK_BYTES", 0)
    monkeypatch.setattr(solver_mod, "_available_cpus", lambda: 2)
    handles = (solver_mod._blas_threads(), None)
    results = []
    for handle in handles:
        monkeypatch.setattr(solver_mod, "_blas_threads", lambda: handle)
        results.append(solve(*_instance(39), ACTIVE_SVT))
    _assert_same_solve(*results)
    assert [r.block_columns for r in results] == \
        [12 if handles[0] else 4, 4]
    assert results[1].block_threads == 1


@pytest.mark.parametrize("shape,cfg,svt_iterations", [
    ((64, 300, 1000), SolverConfig(max_iter=3), 0),
    ((64, 65, 8192), SolverConfig(mu0=1.0, rho=1.5, mu_max=1e12,
                                  max_iter=3), 3),
], ids=["gram", "active_svt"])
def test_bits_do_not_depend_on_the_blas_thread_count(blas, shape, cfg,
                                                     svt_iterations):
    # solves at numpy's BLAS counts 1 and 2, the count given back after
    # each. Before the solve held the count at one, the first shape (J
    # zero) moved with it through the Gram SVD of [H', 1], and the second
    # (equal Gram matrices) through the SVT, which runs in every iteration
    n_bands, n_h, n_pixels = shape
    rng = np.random.default_rng(46)
    xs = [rng.standard_normal((n_bands, n_pixels)) for _ in range(2)]
    h = rng.standard_normal((n_bands, n_h))
    results = []
    for count in (1, 2):
        blas.set(count)
        results.append(solve(xs, h, cfg))
        assert blas.get() == count
    assert [r.svt_iterations for r in results] == [svt_iterations] * 2
    _assert_same_solve(*results)
