"""Alternating-direction augmented Lagrangian solver for the sketched
multi-view subspace model.

Per outer iteration the blocks are updated in order: the shared coefficient
matrix C, its low-rank auxiliary J, then per view the specific matrix D^s
(Gauss-Seidel: each view sees the freshest D^t of the others), the noise
matrix E^s and its column-sparse auxiliary W^s; finally all multipliers and
the penalty mu. Initialization is all-zero with mu0=1e-5, mu_max=1e5,
rho=1.1, 60 iterations, tolerance 1e-5.

Both linear systems are a I + b G with the Gram matrix G = H'H + 11' of the
L x n_h dictionary H, whose rank r is at most L+1. One thin SVD of [H', 1]
gives G = U diag(g) U' with U of shape n_h x r, and the Woodbury identity
turns every C and D solve into products with U. C, J and Y4 start at zero
and never leave range(U), so solve() thresholds the r x N matrix
U'(C + Y4/mu) instead of the n_h x N one. Both savings vanish when
n_h <= L+1, where r = n_h. The SVT and both products with U are skipped
whenever ||C + Y4/mu||_F <= lambda1/mu, which under the default schedule
holds at every iteration of the synthetic benchmark scenes. The
feasibility gaps are formed once per iteration and feed both the
residuals and the dual ascent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import ViewSet
from .prox import _SV_CUTOFF, l21_shrink, svt
from .sketch import SketchedDictionary


class SolverError(RuntimeError):
    """Numerical failure (non-finite state) during a solve."""


@dataclass(frozen=True)
class SolverConfig:
    lambda1: float = 1.0
    lambda2: float = 10.0
    lambda3: float = 10.0
    mu0: float = 1e-5
    mu_max: float = 1e5
    rho: float = 1.1
    max_iter: int = 60
    epsilon: float = 1e-5

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("lambda weights must be nonnegative")
        if not (0 < self.mu0 <= self.mu_max):
            raise ValueError("need 0 < mu0 <= mu_max")
        if self.rho < 1:
            raise ValueError("rho must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class SolverState:
    """All primal blocks and multipliers; shapes fixed by (L, N, N_H, S)."""

    c: np.ndarray
    j: np.ndarray
    d: list
    e: list
    w: list
    y1: list
    y2: list  # one length-N row per view (column-sum constraint multiplier)
    y3: list
    y4: np.ndarray
    mu: float
    iteration: int = 0
    residual_history: list = field(default_factory=list)


@dataclass(frozen=True)
class SolveResult:
    state: SolverState
    converged: bool
    iterations_run: int
    residual_history: list
    trace: list  # per-iteration (iteration, r1, r2, r3, r4, mu)


def _as_matrices(views) -> list:
    if isinstance(views, ViewSet):
        return views.matrices()
    return [np.asarray(x, dtype=np.float64) for x in views]


def _as_h(h) -> np.ndarray:
    if isinstance(h, SketchedDictionary):
        return h.h
    return np.asarray(h, dtype=np.float64)


def init_state(n_views: int, n_bands: int, n_pixels: int, n_h: int,
               mu0: float) -> SolverState:
    """All-zero starting point."""
    return SolverState(
        c=np.zeros((n_h, n_pixels)),
        j=np.zeros((n_h, n_pixels)),
        d=[np.zeros((n_h, n_pixels)) for _ in range(n_views)],
        e=[np.zeros((n_bands, n_pixels)) for _ in range(n_views)],
        w=[np.zeros((n_bands, n_pixels)) for _ in range(n_views)],
        y1=[np.zeros((n_bands, n_pixels)) for _ in range(n_views)],
        y2=[np.zeros(n_pixels) for _ in range(n_views)],
        y3=[np.zeros((n_bands, n_pixels)) for _ in range(n_views)],
        y4=np.zeros((n_h, n_pixels)),
        mu=mu0,
    )


def _gram_basis(h: np.ndarray) -> tuple:
    """Eigenpairs (U, g) of G = H'H + 11' from a thin SVD of [H', 1]:
    G = U diag(g) U' with U of shape n_h x r and r <= min(n_h, L+1).
    Singular values below prox._SV_CUTOFF of the largest are dropped."""
    n_h = h.shape[1]
    u, sv, _ = np.linalg.svd(np.hstack([h.T, np.ones((n_h, 1))]),
                             full_matrices=False)
    keep = sv > _SV_CUTOFF * sv[0]
    return u[:, keep], sv[keep] ** 2


def _gram_solve(basis: tuple, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """(a I + b G)^-1 x for G = U diag(g) U' (Woodbury). Outside range(U)
    the system is a I, so a = 0 with r < n_h is singular: LinAlgError."""
    u, g = basis
    w = 1.0 / (a + b * g)
    if u.shape[1] == u.shape[0]:
        return np.linalg.multi_dot([u * w, u.T, x])
    if a == 0:
        raise np.linalg.LinAlgError(
            f"singular system: G has rank {u.shape[1]} < {u.shape[0]} "
            "and no ridge (lambda2 = 0 needs sketch size <= bands + 1)"
        )
    return x / a + np.linalg.multi_dot([u * (w - 1.0 / a), u.T, x])


def _c_rhs(state: SolverState, xs: list, h: np.ndarray) -> np.ndarray:
    mu = state.mu
    n_h = h.shape[1]
    b = state.j - state.y4 / mu
    for s, x in enumerate(xs):
        b += h.T @ (x - h @ state.d[s] - state.e[s] + state.y1[s] / mu)
        row = state.d[s].sum(axis=0) - 1.0 + state.y2[s] / mu
        b -= np.broadcast_to(row, (n_h, len(row)))
    return b


def update_c(state: SolverState, views, h) -> np.ndarray:
    """Least-squares block for C: solve A C = B, A = S H'H + S 11' + I."""
    hmat = _as_h(h)
    xs = _as_matrices(views)
    return _gram_solve(_gram_basis(hmat), 1.0, len(xs),
                       _c_rhs(state, xs, hmat))


def update_j(state: SolverState, cfg: SolverConfig) -> np.ndarray:
    """Low-rank auxiliary: SVT of C + Y4/mu at threshold lambda1/mu."""
    return svt(state.c + state.y4 / state.mu, cfg.lambda1 / state.mu)


def _d_rhs(state: SolverState, xs: list, h: np.ndarray, s: int,
           cfg: SolverConfig) -> np.ndarray:
    mu = state.mu
    n_h = h.shape[1]
    rhs = -cfg.lambda3 * sum(
        np.abs(state.d[t]) for t in range(len(xs)) if t != s
    )
    if np.isscalar(rhs):  # S == 1: empty sum
        rhs = np.zeros_like(state.c)
    rhs = rhs + mu * (h.T @ (xs[s] - h @ state.c - state.e[s] + state.y1[s] / mu))
    row = mu * (state.c.sum(axis=0) - 1.0) + state.y2[s]
    rhs -= np.broadcast_to(row, (n_h, len(row)))
    return rhs


def update_d(state: SolverState, views, h, s: int,
             cfg: SolverConfig) -> np.ndarray:
    """Ridge solve for view s's specific block, clipped to be nonnegative."""
    hmat = _as_h(h)
    xs = _as_matrices(views)
    sol = _gram_solve(_gram_basis(hmat), cfg.lambda2, state.mu,
                      _d_rhs(state, xs, hmat, s, cfg))
    return np.maximum(sol, 0.0)


def update_e(state: SolverState, views, h, s: int) -> np.ndarray:
    """Stationary point of the two quadratic penalties tied to E^s."""
    hmat = _as_h(h)
    xs = _as_matrices(views)
    mu = state.mu
    return 0.5 * (
        xs[s] - hmat @ (state.c + state.d[s]) + state.y1[s] / mu
        + state.w[s] - state.y3[s] / mu
    )


def update_w(state: SolverState, s: int) -> np.ndarray:
    """Column-sparse auxiliary: l2,1 shrinkage of E^s + Y3^s/mu at 1/mu."""
    return l21_shrink(state.e[s] + state.y3[s] / state.mu, 1.0 / state.mu)


def _feasibility_step(state: SolverState, xs: list, h: np.ndarray,
                      cfg: SolverConfig | None = None) -> tuple:
    """Max-abs feasibility gaps (data fit, E-W, column sums, C-J). With a
    cfg, each gap also drives the dual ascent on its multiplier, in place,
    and mu then grows (capped at mu_max). Each gap is formed once and
    dropped after use."""
    mu = state.mu

    def use(gap, y, r):
        # np.maximum keeps a NaN gap; the builtin max(0.0, nan) drops it
        r = float(np.maximum(r, np.abs(gap).max()))
        if cfg is not None:
            gap *= mu
            y += gap
        return r

    r1 = r2 = r3 = 0.0
    for s, x in enumerate(xs):
        cd = state.c + state.d[s]
        gap3 = cd.sum(axis=0) - 1.0
        gap1 = h @ cd
        del cd
        np.subtract(x, gap1, out=gap1)
        gap1 -= state.e[s]
        r1 = use(gap1, state.y1[s], r1)
        del gap1
        r2 = use(state.e[s] - state.w[s], state.y3[s], r2)
        r3 = use(gap3, state.y2[s], r3)
    r4 = use(state.c - state.j, state.y4, 0.0)
    if cfg is not None:
        state.mu = min(cfg.rho * mu, cfg.mu_max)
    return r1, r2, r3, r4


def update_multipliers(state: SolverState, views, h,
                       cfg: SolverConfig) -> SolverState:
    """Dual ascent on all multipliers, in place, then grow mu (capped at
    mu_max)."""
    _feasibility_step(state, _as_matrices(views), _as_h(h), cfg)
    return state


def residuals(state: SolverState, views, h) -> tuple:
    """Max-abs feasibility gaps: (data fit, E-W, column sums, C-J)."""
    return _feasibility_step(state, _as_matrices(views), _as_h(h))


def _check_finite(state: SolverState, iteration: int) -> None:
    blocks = {"C": [state.c], "J": [state.j], "D": state.d, "E": state.e,
              "W": state.w, "Y1": state.y1, "Y2": state.y2, "Y3": state.y3,
              "Y4": [state.y4]}
    # v.v is finite exactly when every entry is, unless it overflows; only
    # then does the elementwise check (a boolean copy) run
    with np.errstate(over="ignore"):
        for name, arrs in blocks.items():
            for arr in arrs:
                v = arr.ravel()
                if not (np.isfinite(v @ v) or np.isfinite(v).all()):
                    raise SolverError(
                        f"non-finite values in {name} at iteration {iteration}"
                    )


def solve(views, h, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Run the full alternating scheme from the all-zero starting point."""
    hmat = _as_h(h)
    xs = _as_matrices(views)
    n_views = len(xs)
    n_bands, n_pixels = xs[0].shape
    n_h = hmat.shape[1]
    if hmat.shape[0] != n_bands:
        raise ValueError(
            f"dictionary has {hmat.shape[0]} bands, views have {n_bands}"
        )

    state = init_state(n_views, n_bands, n_pixels, n_h, cfg.mu0)
    basis = _gram_basis(hmat)
    u = basis[0]

    converged = False
    trace = []
    for it in range(1, cfg.max_iter + 1):
        state.iteration = it
        mu = state.mu
        state.c = _gram_solve(basis, 1.0, n_views, _c_rhs(state, xs, hmat))
        # M = C + Y4/mu lies in range(U), so its SVT is U svt(U'M), and
        # ||U'M||_F = ||M||_F: at or below the threshold J is zero
        m = state.c + state.y4 / mu
        if np.linalg.norm(m) <= cfg.lambda1 / mu:
            state.j = np.zeros(m.shape)
        else:
            state.j = u @ svt(u.T @ m, cfg.lambda1 / mu)
        del m
        for s in range(n_views):
            state.d[s] = np.maximum(
                _gram_solve(basis, cfg.lambda2, mu,
                            _d_rhs(state, xs, hmat, s, cfg)), 0.0
            )
            state.e[s] = update_e(state, xs, hmat, s)
            state.w[s] = update_w(state, s)

        r = _feasibility_step(state, xs, hmat, cfg)
        _check_finite(state, it)
        state.residual_history.append(max(r))
        trace.append((it, *r, mu))
        if max(r) < cfg.epsilon:
            converged = True
            break

    return SolveResult(
        state=state,
        converged=converged,
        iterations_run=state.iteration,
        residual_history=list(state.residual_history),
        trace=trace,
    )


def write_trace_csv(trace: list, path: str) -> None:
    """Residual log as CSV (iteration, r1..r4, mu) for convergence plots."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("iteration,r1,r2,r3,r4,mu\n")
        for row in trace:
            it, r1, r2, r3, r4, mu = row
            fh.write(f"{it},{r1!r},{r2!r},{r3!r},{r4!r},{mu!r}\n")
