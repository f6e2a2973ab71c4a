"""Alternating-direction augmented Lagrangian solver for the sketched
multi-view subspace model.

Per outer iteration the blocks are updated in order: the shared coefficient
matrix C, its low-rank auxiliary J, then per view the specific matrix D^s
(Gauss-Seidel: each view sees the freshest D^t of the others), the noise
matrix E^s and its column-sparse auxiliary W^s; finally the multipliers
Y1^s, Y2^s and Y4 (the one of E^s = W^s is implied, see below) and the
penalty mu. Initialization is all-zero with mu0=1e-5, mu_max=1e5,
rho=1.1, 60 iterations, tolerance 1e-5.

Both linear systems are a I + b G with the Gram matrix G = H'H + 11' of the
L x n_h dictionary H, whose rank r is at most L+1. One thin SVD of [H', 1]
gives G = U diag(g) U' with U of shape n_h x r. C, J and Y4 start at zero
and never leave range(U), so when r < n_h solve() holds them as their
r x N coordinates c = U'C, j = U'J and y4 = U'Y4 (SolverState.basis is U).
In coordinates the C system is diagonal, c = b / (1 + S g), and the SVT for
J acts on the r x N matrix c + y4/mu. As H = (HU) U' and 1 lies in range(U),
the C and E^s steps and the gaps see D^s only through U'D^s, and only the
D^s penalty p = -lambda3 sum_{t != s} |D^t| leaves range(U); H'x has the
coordinates P x, P = U'H'. So q_s, G C, C + D^s and the range terms z of
the D^s system never have n_h rows: D^s = max(U(w z + (w - 1/a) U'p) + p/a,
0) by Woodbury, with U'p from the U'D^t, and the fit is X^s - (HU)(c +
U'D^s). solve() carries each U'D^s from one iteration to the next: a D^s
step writes it, the next C step reads it, and nothing between them moves
D^s. Per block, pass A (below) takes 2S products with an n_h-row operand,
per view U z and U'D^s after its step, and pass B one, U(C - J). With
n_h <= L+1, r = n_h (see _Gram) and the carried coordinates are D^s itself.
The clip np.maximum(x, 0.0) gives every entry of D^s as +0.0 or more
(never -0.0), so D^t is |D^t| bit for bit and the D^s penalty reads the
D^t as they are, with no |D^t| copy; update_d, which takes a state from
its caller, takes |D^t| itself.
The SVT is skipped whenever ||C + Y4/mu||_F <= lambda1/mu, which under the
default schedule holds at every iteration of the synthetic benchmark scenes.

The E-W constraint E^s = W^s needs no stored multiplier. Write W_k for
the W^s of iteration k and mu_k for its mu, and fit = X^s - H(C + D^s).
The E^s step is the stationary point 2 E = fit + W_{k-1} + (Y1 - Y3)/mu_k,
and the ascents on Y1^s and Y3^s use that E^s, by mu_k (fit - E) and
mu_k (E - W_k). So after every iteration Y1^s - Y3^s = mu_k (W_k - W_{k-1}),
from zero at the start, and solve() holds no Y3^s: with
delta = (mu_k/mu)(W_k - W_{k-1}), the next E^s is (fit + W_k + delta)/2,
and the next W^s, the l2,1 shrinkage of E^s + Y3^s/mu at 1/mu, is that of
W_k + Y1^s/mu once the ascent on Y1^s has run. W^s is column-sparse (the
l2,1 prox keeps whole columns or none), so W_k and W_{k-1} are held as
sorted column indices plus the L x m values of those columns.

Every step but J acts on each pixel column alone (ADMM split across
examples), so an iteration is one kernel over blocks of pixel columns
(_column_blocks). Pass A takes a block through C and each D^s,
then per view E^s, the ascent on Y1^s and Y2^s, and W^s; the coordinates
of q_s = H'(X^s - E^s + Y1^s/mu) feed both the C and the D^s steps, and
the fit both E^s and the data-fit gap. A view whose W_k and W_{k-1} hold
no column has no W term, and pass A skips its W bookkeeping. J feeds none
of these steps, so the calling thread decides it after pass A, from the
block sums of ||C + Y4/mu||_F^2; pass B then takes the C-J gap over the
n_h-row entries U(C - J) and the ascent on Y4. SolveResult.timings holds
the seconds of pass A, the J step and pass B on the calling thread, and
of the rest of the solve.
The residuals double as the finiteness check. The column-sum gap r3 sees
every entry of C (or of its coordinates) and of each D^s (D >= 0), the
E-W gap r2 sees E^s and W^s, the C-J gap r4 sees J, and each multiplier
moves by mu times its gap. So the state is scanned block by block
(SolverError naming the first non-finite block) only when
||C + Y4/mu||_F^2 or r1-r3 is not finite after pass A, or r4 is not after
pass B. The first check runs before J, so a non-finite C is reported as
such and never reaches the SVT.
solve() holds numpy's BLAS at one thread (sketch._one_blas_thread) from
the Gram SVD to its last pass, the J step's SVT included, so no product's
bits depend on the BLAS's thread count. The blocks run on the calling
thread, _BLOCK_COLUMNS wide, when they are small or that count cannot be
set; else on one thread per CPU, widened to up to _THREAD_BLOCK_BYTES (see
_block_plan). Their results are combined in block order,
||C + Y4/mu||_F^2 is summed over pieces of _BLOCK_COLUMNS columns, and a
ragged rest of columns is a block of its own at any width, so each product
gives a column the bits it gets on one thread and the bits do not depend
on the number of threads (OpenBLAS rounds a column alike in products of
any multiple of _BLOCK_COLUMNS columns; the tests pin this).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from .cube import ViewSet
from .prox import _SV_CUTOFF, l21_columns, svt
from .sketch import _available_cpus, _blas_threads, _one_blas_thread


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
        # each check written so that NaN fails it
        if not all(w >= 0 for w in (self.lambda1, self.lambda2, self.lambda3)):
            raise ValueError("lambda weights must be nonnegative")
        # lambda1, lambda2 = inf keep J, D at zero; lambda3 = inf gives NaN D
        if self.lambda3 == np.inf:
            raise ValueError("lambda3 must be finite")
        if not (0 < self.mu0 <= self.mu_max):
            raise ValueError("need 0 < mu0 <= mu_max")
        if not self.rho >= 1:
            raise ValueError("rho must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass
class SolverState:
    """The primal blocks and multipliers of solve(); shapes fixed by
    (L, N, n_h, S).

    W^s is column-sparse: its nonzero columns are w_cols[s] (sorted) with
    the L x m values w[s], and every other column is zero. solve() holds no
    Y3^s (see the module docstring), so y3 is empty in its states;
    update_e reads an explicit Y3^s from y3 when it is given one."""

    c: np.ndarray
    j: np.ndarray
    d: list
    e: list
    w: list
    w_cols: list
    y1: list
    y2: list  # one length-N row per view (column-sum constraint multiplier)
    y4: np.ndarray
    mu: float
    # U (n_h x r) when c, j and y4 hold the r x N coordinates U'C, U'J and
    # U'Y4; None when they hold the n_h x N matrices themselves
    basis: np.ndarray | None = None
    y3: list = field(default_factory=list)


# the parts of a solve that SolveResult.timings times: pass A, the J step and
# pass B of every iteration, and the rest (the Gram SVD, the zero state and
# the block pool's start and stop)
_PASSES = ("pass_a_s", "j_step_s", "pass_b_s", "solve_rest_s")


@dataclass(frozen=True)
class SolveResult:
    state: SolverState
    converged: bool
    trace: list  # per-iteration (iteration, r1, r2, r3, r4, mu)
    svt_iterations: int  # iterations after which J was nonzero
    w_nonzero_columns: list  # per view, the most nonzero W^s columns held
    block_threads: int  # threads that ran the column blocks
    # pixel columns per block; the last whole blocks and a ragged rest of
    # fewer than _BLOCK_COLUMNS may span fewer
    block_columns: int
    # wall seconds on the calling thread per part of the solve (_PASSES),
    # each pass summed over the iterations
    timings: dict

    @property
    def iterations_run(self) -> int:
        return len(self.trace)

    @property
    def residual_history(self) -> list:
        """max(r1..r4) per iteration."""
        return [max(row[1:5]) for row in self.trace]


def _as_matrices(views) -> list:
    if isinstance(views, ViewSet):
        return views.matrices()
    return [np.asarray(x, dtype=np.float64) for x in views]


def init_state(n_views: int, n_bands: int, n_pixels: int, n_h: int,
               mu0: float, basis: np.ndarray | None = None) -> SolverState:
    """All-zero starting point (W^s with no nonzero column, no Y3^s); C, J
    and Y4 as coordinates in basis (n_h x r) when one is given."""
    rows = n_h if basis is None else basis.shape[1]
    return SolverState(
        c=np.zeros((rows, n_pixels)),
        j=np.zeros((rows, n_pixels)),
        d=[np.zeros((n_h, n_pixels)) for _ in range(n_views)],
        e=[np.zeros((n_bands, n_pixels)) for _ in range(n_views)],
        w=[np.zeros((n_bands, 0)) for _ in range(n_views)],
        w_cols=[np.zeros(0, dtype=np.intp) for _ in range(n_views)],
        y1=[np.zeros((n_bands, n_pixels)) for _ in range(n_views)],
        y2=[np.zeros(n_pixels) for _ in range(n_views)],
        y4=np.zeros((rows, n_pixels)),
        mu=mu0,
        basis=basis,
    )


class _Gram:
    """G = H'H + 11' = U diag(g) U' of an L x n_h dictionary H, from one thin
    SVD of [H', 1]: U is n_h x r with r <= min(n_h, L+1). Singular values
    below prox._SV_CUTOFF of the largest are dropped.

    With r < n_h, basis is U and a matrix in range(U) has the r-row
    coordinates U'X, on which G acts as diag(g); H'x has P x, P = U'H', and
    1 has ones = U'1. With r = n_h, basis is None: coordinates are entries,
    P is H', ones is a 1 that broadcasts over the rows, and G and each
    inverse are dense n_h x n_h matrices, cheaper than two products with U."""

    def __init__(self, h: np.ndarray):
        n_h = h.shape[1]
        u, sv, _ = np.linalg.svd(np.hstack([h.T, np.ones((n_h, 1))]),
                                 full_matrices=False)
        keep = sv > _SV_CUTOFF * sv[0]
        self.u, self.g = u[:, keep], sv[keep] ** 2
        full = self.u.shape[1] == n_h
        self.basis = None if full else self.u
        self.dense = (self.u * self.g) @ self.u.T if full else None
        self.p = self.coords(h.T)
        self.ones = np.ones(1) if full else self.coords(np.ones(n_h))

    def coords(self, x: np.ndarray, out=None) -> np.ndarray:
        """U'x (into out), the coordinates of an x in range(U); x itself
        when r = n_h."""
        return x if self.basis is None else np.matmul(self.u.T, x, out=out)

    def scale(self, c: np.ndarray) -> np.ndarray:
        """The coordinates of G X, from those of X."""
        return self.dense @ c if self.basis is None else self.g[:, None] * c

    def coords_inverse(self, a: float, b: float):
        """The map c -> (a I + b G)^-1 c on coordinates."""
        w = 1.0 / (a + b * self.g)
        if self.basis is None:
            return partial(np.matmul, (self.u * w) @ self.u.T)
        return partial(np.multiply, w[:, None])

    def colsum(self, c: np.ndarray) -> np.ndarray:
        """The column sums 1'X, from the coordinates of X."""
        return c.sum(axis=0) if self.basis is None else self.ones @ c

    def inverse(self, a: float, b: float):
        """The map (z, ps, pcs, k) -> (a I + b G)^-1 (U z + k sum(ps)), pcs
        the coordinates of the n_h-row ps; z is overwritten, ps are only
        read. With r < n_h it is U(w z + k (w - 1/a) sum(pcs)) + (k/a)
        sum(ps) by Woodbury, w = 1/(a + b g), and a = 0 is singular:
        LinAlgError."""
        if self.basis is None:
            inv = self.coords_inverse(a, b)

            def apply_dense(z, ps, pcs, k):
                for p in ps:
                    z += k * p
                return inv(z)

            return apply_dense
        u, w = self.u, 1.0 / (a + b * self.g)
        if a == 0:
            raise np.linalg.LinAlgError(
                f"singular system: G has rank {u.shape[1]} < {u.shape[0]} "
                "and no ridge (lambda2 = 0 needs sketch size <= bands + 1)")
        wz, wp = w[:, None], (w - 1.0 / a)[:, None]

        def apply(z, ps, pcs, k):
            z *= wz
            z += (k * wp) * sum(pcs)
            x = u @ z
            for p in ps:
                x += (k / a) * p
            return x

        return apply


# pixel columns per block of an iteration: a block's n_h x 512 float64
# temporaries (2 MB at n_h = 500) stay in cache from one step to the next
_BLOCK_COLUMNS = 512
# Below this many bytes of L- and n_h-row arrays over all views,
# 8 width S (2L + n_h), a block of _BLOCK_COLUMNS runs on the calling
# thread. Time per iteration of 2 block threads over 1, numpy's BLAS held
# at one in both, 2 vCPUs, 3 measurements each; 2 threads widen the blocks
# as _block_plan does (columns in brackets where they widen):
#   L = 16, n_h = 50, N = 1000-4000 (criterion 7)  0.67 MB  0.81-1.67
#   L = 16, n_h = 50, N = 8000 (criterion 7)       0.67 MB  0.54-0.56 (3584)
#   L = 32, n_h = 100, S = 2, N = 4096             1.34 MB  0.69-0.81 (2048)
#   L = 32, n_h = 100, S = 3, N = 4096 (drift3)    2.0 MB   0.68-0.91 (2048)
#   L = 16, n_h = 500, N = 4096 (default64)        4.4 MB   0.63-0.71
#   L = 224, n_h = 200, N = 40000 (sensor)         5.3 MB   0.44-0.62
_SMALL_BLOCK_BYTES = 1 << 20
# Threaded blocks span k _BLOCK_COLUMNS columns, as many as fit in this
# many bytes (k >= 1), so that blocks from 1 to 4 MiB widen. A 12-iteration
# drift3 solve (N = 4096) took, 2 vCPUs, one thread against two:
#   blocks of 512 columns (2.0 MB)    0.338 s  0.304 s
#   blocks of 2048 columns (8.1 MB)   0.360 s  0.211 s
# A 4 MiB budget (1024 columns) took about 8% off a drift3 detect, 8 MiB
# about 20%. Blocks on one thread stay at _BLOCK_COLUMNS: at 4 times the
# width, an iteration at criterion 7's N = 4000 took 10.2-12.5 ms against
# 6.7-9.2 ms.
_THREAD_BLOCK_BYTES = 8 << 20
_ALL = slice(None)
# a column-sparse W, or an E^s term, with no column
_NO_COLUMNS = (np.zeros(0, dtype=np.intp), None)


def _column_blocks(n_pixels: int, k: int = 1) -> list:
    """Slices of k _BLOCK_COLUMNS columns, cut where blocks of
    _BLOCK_COLUMNS are: the last whole ones may span fewer, and a ragged
    rest narrower than _BLOCK_COLUMNS is a block of its own, as with k = 1.
    A product over a block then gives each column the bits it gets at
    k = 1: OpenBLAS rounds a ragged rest differently inside a wider one."""
    whole = n_pixels - n_pixels % _BLOCK_COLUMNS
    cuts = [*range(0, whole, k * _BLOCK_COLUMNS), whole, n_pixels]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _block_workers(n_blocks: int, block_bytes: int) -> int:
    """Threads that run n_blocks column blocks of block_bytes each: one for
    a block under _SMALL_BLOCK_BYTES, or when numpy's BLAS thread count
    cannot be set (the blocks then run at the BLAS's own count); else one
    per CPU this process may run on, at most one per block (solve() holds
    the count at one)."""
    if block_bytes < _SMALL_BLOCK_BYTES or _blas_threads() is None:
        return 1
    return min(n_blocks, _available_cpus())


def _block_plan(n_pixels: int, column_bytes: int) -> tuple:
    """(k, threads): the column blocks of an iteration are
    _column_blocks(n_pixels, k), with column_bytes of L- and n_h-row
    arrays per column. The threads are _block_workers' for blocks of
    _BLOCK_COLUMNS; on one, k = 1. On more, the blocks widen to
    _THREAD_BLOCK_BYTES, while a scene with at least as many blocks of
    _BLOCK_COLUMNS as threads keeps as many blocks as threads."""
    workers = _block_workers(len(_column_blocks(n_pixels)),
                             column_bytes * min(_BLOCK_COLUMNS, n_pixels))
    if workers == 1:
        return 1, 1
    k = max(1, min(_THREAD_BLOCK_BYTES // (column_bytes * _BLOCK_COLUMNS),
                   n_pixels // _BLOCK_COLUMNS // workers))
    return k, min(workers, len(_column_blocks(n_pixels, k)))


def _q_block(gram, state, x, s, cols) -> np.ndarray:
    """The coordinates P t of q_s = H'(x_s - E^s + Y1^s/mu), the data term
    of both the C and the D^s right-hand sides (E^s, Y1^s unchanged)."""
    t = x[:, cols] - state.e[s][:, cols]
    t += state.y1[s][:, cols] / state.mu
    return gram.p @ t


def _expand(basis, c: np.ndarray) -> np.ndarray:
    """The n_h-row matrix with coordinates c: U c, or c without a basis."""
    return c if basis is None else basis @ c


def _c_step(gram, inv_c, state, qs, ds, b, cols) -> np.ndarray:
    """Coordinates of C from A C = B, A = I + S G and B = J - Y4/mu +
    sum_s (q_s - G D^s + 1(1 - Y2^s/mu)'), from coordinates qs, ds and b of
    the q_s, the D^s and J - Y4/mu (b overwritten); with r < n_h, A is
    diag(1 + S g)."""
    for q in qs:
        b += q
    row = sum(1.0 - y2[cols] / state.mu for y2 in state.y2)
    b -= gram.scale(sum(ds[1:], ds[0]))
    b += gram.ones[:, None] * row
    return inv_c(b)


def _d_block(gram, inv_d, state, q, gc, d_abs, ds, s, cols, lambda3,
             out=None):
    """D^s from (lambda2 I + mu G) D = mu (q_s - G C) + 1(mu - Y2^s)'
    - lambda3 sum_{t != s} |D^t|, clipped to be nonnegative (into out),
    from the |D^t| in d_abs (only read) and coordinates q (overwritten), gc
    and ds of q_s, G C and each |D^t|."""
    mu = state.mu
    z = np.subtract(q, gc, out=q)
    z *= mu
    z += gram.ones[:, None] * (mu - state.y2[s][cols])
    others = d_abs[:s] + d_abs[s + 1:]
    x = inv_d(z, [d[:, cols] for d in others], ds[:s] + ds[s + 1:],
              -lambda3)
    return np.maximum(x, 0.0, out=out)


def _in_block(w, cols) -> tuple:
    """The part in the block of columns cols of a column-sparse w = (sorted
    column indices, their values), with block-local indices."""
    idx, values = w
    lo, hi = np.searchsorted(idx, (cols.start, cols.stop))
    return idx[lo:hi] - cols.start, values[:, lo:hi]


def _e_term(w, w_old, ratio) -> tuple:
    """(idx, T) with T = W + ratio (W - W_old) on the block-local columns
    idx where W or W_old is nonzero, given both as (indices, values): the
    W^s + (Y1^s - Y3^s)/mu of the E^s step, with ratio = mu_k/mu."""
    idx = np.union1d(w[0], w_old[0])
    t = np.zeros((w[1].shape[0], idx.size))
    t[:, np.searchsorted(idx, w_old[0])] = -ratio * w_old[1]
    t[:, np.searchsorted(idx, w[0])] += (1.0 + ratio) * w[1]
    return idx, t


def _e_block(fit, term, out=None) -> np.ndarray:
    """E^s = (fit + T)/2 (into out), the stationary point of the two
    quadratic penalties tied to E^s, with fit = X^s - H(C + D^s) and term
    = (idx, T): T = W^s + (Y1^s - Y3^s)/mu on columns idx, zero elsewhere
    (everywhere when T is None)."""
    e = np.multiply(fit, 0.5, out=out)
    idx, t = term
    if t is not None:
        e[:, idx] += 0.5 * t
    return e


def _w_block(y1, w, mu) -> tuple:
    """The next W^s on a block as block-local (indices, values): the l2,1
    shrinkage at 1/mu of W + Y1^s/mu, with W = w as (indices, values) and
    y1 the block of Y1^s after its ascent."""
    q = y1 / mu
    if w[0].size:
        q[:, w[0]] += w[1]
    return l21_columns(q, 1.0 / mu)


def _max_abs(a) -> float:
    """max |a| without an |a| copy; NaN if a holds one."""
    return float(np.maximum(a.max(), -a.min()))


def _use(gap, y, mu) -> float:
    """Max-abs of a gap, then y += mu gap (in place)."""
    r = _max_abs(gap)
    gap *= mu
    y += gap
    return r


def _gap_block(state, s, colsum, fit, w, cols) -> tuple:
    """The data-fit and column-sum gaps of view s, each driving the ascent
    on its multiplier, then the next W^s from w (W^s as block-local
    (indices, values)) and the E-W gap, from fit = X^s - H(C + D^s)
    (consumed) and colsum = 1'(C + D^s). Returns (W^s, (r1, r2, r3))."""
    mu = state.mu
    e = state.e[s][:, cols]
    y1 = state.y1[s][:, cols]
    fit -= e
    r1 = _use(fit, y1, mu)
    r3 = _use(colsum - 1.0, state.y2[s][cols], mu)
    w_new = _w_block(y1, w, mu)
    gap = fit  # E - W_new, in the spent data-fit buffer
    gap[...] = e
    if w_new[0].size:
        gap[:, w_new[0]] -= w_new[1]
    return w_new, (r1, _max_abs(gap), r3)


def _cj_block(state, cols) -> float:
    """The ascent on Y4 by mu (C - J) in place, and the max-abs C-J gap
    over the block's n_h-row entries U(C - J)."""
    gap = state.c[:, cols] - state.j[:, cols]
    r = _max_abs(_expand(state.basis, gap))
    state.y4[:, cols] += state.mu * gap
    return r


def _pass_a(xs, gram, inv_c, inv_d, state, dcs, w_old, ratio, lambda3,
            cols):
    """C and each D^s, then per view E^s, the ascent on Y1^s and Y2^s and
    the next W^s, on one block of columns. No D^t step reads what the
    later steps of a view write, so this is the Gauss-Seidel order. dcs
    holds each view's coordinates U'D^s as last updated, and each D step
    writes its view's; w_old holds each W_{k-1} as (column indices,
    values) and ratio is mu_k/mu. Returns (||C + Y4/mu||_F^2 per piece of
    _BLOCK_COLUMNS columns, r1, r2, r3, the next W^s of each view as
    block-local (indices, values)); the pieces keep the sums, and so the J
    step, the same whatever the block width."""
    mu = state.mu
    qs = [_q_block(gram, state, x, s, cols) for s, x in enumerate(xs)]
    ds = [dc[:, cols] for dc in dcs]
    b = state.y4[:, cols] / -mu
    b += state.j[:, cols]
    coords = state.c[:, cols] = _c_step(gram, inv_c, state, qs, ds, b, cols)
    gc = gram.scale(coords)
    for s, q in enumerate(qs):
        # D >= 0 (the clip gives +0.0, never -0.0), so D^t is |D^t| and ds
        # holds the coordinates of each |D^t| as last updated
        d = _d_block(gram, inv_d, state, q, gc, state.d, ds, s, cols, lambda3,
                     out=state.d[s][:, cols])
        gram.coords(d, out=ds[s])
    del qs, gc
    r = np.zeros(3)
    w_new = []
    for s, x in enumerate(xs):
        if state.w_cols[s].size or w_old[s][0].size:
            w = _in_block((state.w_cols[s], state.w[s]), cols)
            term = _e_term(w, _in_block(w_old[s], cols), ratio)
        else:  # W_k = W_{k-1} = 0: no W term in E^s or W^s
            w = term = _NO_COLUMNS
        cd = coords + ds[s]  # H(C + D^s) = (HU)(c + U'D^s), HU = P'
        fit = x[:, cols] - gram.p.T @ cd
        _e_block(fit, term, out=state.e[s][:, cols])
        w_s, gaps = _gap_block(state, s, gram.colsum(cd), fit, w, cols)
        w_new.append(w_s)
        # np.maximum keeps a NaN gap; the builtin max(0.0, nan) drops it
        r = np.maximum(r, gaps)
    m = state.y4[:, cols] / mu
    m += coords
    pieces = (m[:, a:a + _BLOCK_COLUMNS]
              for a in range(0, m.shape[1], _BLOCK_COLUMNS))
    return ([float(np.vdot(p, p)) for p in pieces], *r, w_new)


def _join_blocks(blocks, parts) -> tuple:
    """Per view, the column indices and values of W^s over all columns,
    from each block's block-local (indices, values) in block order."""
    views = range(len(parts[0]))
    cols = [np.concatenate([b.start + p[s][0] for b, p in zip(blocks, parts)])
            for s in views]
    values = [np.concatenate([p[s][1] for p in parts], axis=1) for s in views]
    return cols, values


def update_c(state: SolverState, views, h) -> np.ndarray:
    """Least-squares block for C: solve A C = B, A = S H'H + S 11' + I,
    for a state held in n_h space. B lies in range(U) but for the part of
    J - Y4/mu outside it, on which A is I."""
    xs = _as_matrices(views)
    gram = _Gram(np.asarray(h, dtype=np.float64))
    qs = [_q_block(gram, state, x, s, _ALL) for s, x in enumerate(xs)]
    jy = state.j - state.y4 / state.mu
    b = gram.coords(jy)
    rest = jy - _expand(gram.basis, b)
    c = _c_step(gram, gram.coords_inverse(1.0, len(xs)), state, qs,
                [gram.coords(d) for d in state.d], b, _ALL)
    return _expand(gram.basis, c) + rest


def update_d(state: SolverState, views, h, s: int,
             cfg: SolverConfig) -> np.ndarray:
    """Ridge solve for view s's specific block, clipped to be nonnegative,
    for a state held in n_h space."""
    gram = _Gram(np.asarray(h, dtype=np.float64))
    q = _q_block(gram, state, _as_matrices(views)[s], s, _ALL)
    d_abs = [np.abs(d) for d in state.d]  # the caller's D^t may be negative
    return _d_block(gram, gram.inverse(cfg.lambda2, state.mu), state, q,
                    gram.scale(gram.coords(state.c)), d_abs,
                    [gram.coords(d) for d in d_abs], s, _ALL, cfg.lambda3)


def update_e(state: SolverState, views, h, s: int) -> np.ndarray:
    """Stationary point of the two quadratic penalties tied to E^s, for a
    state held in n_h space with an explicit Y3^s."""
    term = state.y1[s] - state.y3[s]
    term /= state.mu
    term[:, state.w_cols[s]] += state.w[s]
    cd = state.c + state.d[s]
    fit = _as_matrices(views)[s] - np.asarray(h, dtype=np.float64) @ cd
    return _e_block(fit, (_ALL, term))


def _check_finite(state: SolverState, iteration: int) -> None:
    blocks = {"C": [state.c], "J": [state.j], "D": state.d, "E": state.e,
              "W": state.w, "Y1": state.y1, "Y2": state.y2,
              "Y4": [state.y4]}
    for name, arrs in blocks.items():
        for arr in arrs:
            if not np.isfinite(arr).all():
                raise SolverError(f"non-finite values in {name} at "
                                  f"iteration {iteration}")


def solve(views, h, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Run the full alternating scheme from the all-zero starting point."""
    h = np.asarray(h, dtype=np.float64)
    xs = _as_matrices(views)
    n_views = len(xs)
    n_bands, n_pixels = xs[0].shape
    n_h = h.shape[1]
    if h.shape[0] != n_bands:
        raise ValueError(f"dictionary has {h.shape[0]} bands, views have "
                         f"{n_bands}")

    start = perf_counter()
    k, workers = _block_plan(n_pixels, 8 * n_views * (2 * n_bands + n_h))
    blocks = _column_blocks(n_pixels, k)
    seconds = np.zeros(len(_PASSES))
    # numpy's BLAS at one thread from the Gram SVD to the last pass, so that
    # no product's bits depend on its thread count
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        gram = _Gram(h)
        state = init_state(n_views, n_bands, n_pixels, n_h, cfg.mu0,
                           gram.basis)
        zero_j = state.j
        inv_c = gram.coords_inverse(1.0, n_views)
        # each view's coordinates U'D^s, written by its D step and read by
        # the next iteration's C step; with r = n_h they are D^s itself
        dcs = state.d if gram.basis is None else [np.zeros(state.c.shape)
                                                  for _ in xs]
        # W_{k-1} per view as (column indices, values), and its mu_k
        w_old, mu_old = list(zip(state.w_cols, state.w)), state.mu
        converged = False
        trace = []
        svt_iterations = 0
        w_nonzero = [0] * n_views
        run = pool.map if workers > 1 else map
        for it in range(1, cfg.max_iter + 1):
            t0 = perf_counter()
            mu = state.mu
            inv_d = gram.inverse(cfg.lambda2, mu)
            parts = list(run(partial(_pass_a, xs, gram, inv_c, inv_d, state,
                                     dcs, w_old, mu_old / mu, cfg.lambda3),
                             blocks))
            w_old, mu_old = list(zip(state.w_cols, state.w)), mu
            state.w_cols, state.w = _join_blocks(blocks,
                                                 [p[4] for p in parts])
            w_nonzero = [max(n, len(i))
                         for n, i in zip(w_nonzero, state.w_cols)]
            # block sums are combined in block order, whatever the workers
            m2 = sum(piece for p in parts for piece in p[0])
            r = np.max([p[1:4] for p in parts], axis=0)
            if not (np.isfinite(m2) and np.isfinite(r).all()):
                _check_finite(state, it)
            t1 = perf_counter()
            # M = C + Y4/mu lies in range(U), so its SVT is U svt(U'M): J's
            # coordinates are the SVT of M's. ||U'M||_F = ||M||_F, so at or
            # below the threshold J is zero (init_state's J; nothing writes J).
            tau = cfg.lambda1 / mu
            if np.sqrt(m2) <= tau:
                state.j = zero_j
            else:
                state.j = svt(state.c + state.y4 / mu, tau)
                svt_iterations += bool(state.j.any())
            t2 = perf_counter()
            gaps = list(run(partial(_cj_block, state), blocks))
            seconds[:3] += (t1 - t0, t2 - t1, perf_counter() - t2)
            r4 = float(np.max(gaps))
            if not np.isfinite(r4):
                _check_finite(state, it)
            r = (*map(float, r), r4)
            state.mu = min(cfg.rho * mu, cfg.mu_max)
            trace.append((it, *r, mu))
            if max(r) < cfg.epsilon:
                converged = True
                break
    seconds[3] = perf_counter() - start - seconds.sum()

    return SolveResult(state=state, converged=converged, trace=trace,
                       svt_iterations=svt_iterations,
                       w_nonzero_columns=w_nonzero, block_threads=workers,
                       block_columns=k * _BLOCK_COLUMNS,
                       timings=dict(zip(_PASSES, seconds.tolist())))
