"""Random-projection dictionary built from the concatenated views.

The dictionary is the float64 L x n_h array ``H = [X^1, ..., X^S] R``,
where R has i.i.d. N(0, 1/n_h) entries; the solver and the scoring take it
as is. ``[X^1, ..., X^S]`` is the ViewSet's stacked buffer, float32 for
loaded cubes, so the scene is not copied to build H. Sampling uses numpy's
PCG64 generator (ziggurat standard normals), so equal seeds reproduce equal
matrices on any platform.

The builders never hold a whole R: each repeat's R_j is streamed in row
blocks of 2 MB, the repeats of a block are drawn in parallel (one thread
per repeat, at most one per available CPU), and the blocks are summed over
the repeats in a fixed order, so the dictionary has the same bits whatever
the number of cores. Averaged dictionaries take one product X mean_j(R_j)
instead of one per repeat.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .cube import ViewSet

AVERAGE_MODES = ("dictionary", "scores")

# salt sequence for per-repeat seeds: seed XOR (j * odd 64-bit constant)
_REPEAT_SALT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# float64 entries per repeat in one row block of R drawn at a time (2 MB)
_BLOCK_ENTRIES = 1 << 18
# float64 entries of projection rows gathered for one product with X (128 MB)
_PANEL_ENTRIES = 1 << 24


@dataclass(frozen=True)
class SketchConfig:
    n_h: int = 500
    seed: int = 0
    repeats: int = 10
    average_mode: str = "dictionary"

    def __post_init__(self):
        if self.n_h < 1:
            raise ValueError("n_h must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.average_mode not in AVERAGE_MODES:
            raise ValueError(f"average_mode must be one of {AVERAGE_MODES}")


def repeat_seed(seed: int, j: int) -> int:
    """Derived seed for repeat j; j=0 maps to the base seed itself."""
    return (seed ^ ((j * _REPEAT_SALT) & _MASK64)) & _MASK64


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _draw_workers(repeats: int) -> int:
    """Threads that draw the per-repeat blocks: one per repeat, at most one
    per CPU this process may run on."""
    return min(repeats, _available_cpus())


def _sketch(views: ViewSet, cfg: SketchConfig, average: bool) -> np.ndarray:
    """``X R_j`` for every repeat j (one row each), or with ``average`` the
    single ``X mean_j R_j``, where X stacks the views side by side and
    R_j is the (S*N) x n_h matrix ``standard_normal((S*N, n_h)) / sqrt(n_h)``
    drawn from ``default_rng(repeat_seed(seed, j))``. X is the view set's
    own stacked buffer, not a copy of it.

    Each R_j is drawn in row blocks of _BLOCK_ENTRIES entries, the repeats
    of a block in parallel; a block consumes its repeat's generator exactly
    as the rows of one (S*N, n_h) draw do. The blocks are summed over j in
    a fixed order, so the result does not depend on the worker count. They
    fill a panel of at most _PANEL_ENTRIES entries, which takes one product
    with X: a product per block, issued between the draws, left the idle
    threads of a multi-threaded BLAS competing with the draws for the cores.
    A float32 X is widened to float64 one panel's column slab at a time,
    inside the product; the widening is exact, so the dictionary has the
    bits of a float64 X with the same values.
    """
    stacked = views.stacked
    n = stacked.shape[1]
    n_h, repeats = cfg.n_h, cfg.repeats
    if n_h > n:
        raise ValueError(f"n_h={n_h} exceeds total sample count {n}")
    n_out = 1 if average else repeats
    rows = min(n, max(1, _BLOCK_ENTRIES // n_h))
    panel_rows = min(n, max(1, _PANEL_ENTRIES // (n_out * n_h * rows)) * rows)
    rngs = [np.random.default_rng(repeat_seed(cfg.seed, j))
            for j in range(repeats)]
    panel = np.empty((n_out, panel_rows, n_h))
    # averaging: repeat 0 is drawn into the panel, the others into buf
    buf = np.empty((repeats - n_out, rows, n_h))
    out = np.zeros((n_out, stacked.shape[0], n_h))
    scale = np.sqrt(n_h)

    def draw(j, b0, k):
        dst = panel[j, b0:b0 + k] if j < n_out else buf[j - n_out, :k]
        rngs[j].standard_normal(out=dst)

    with ThreadPoolExecutor(_draw_workers(repeats)) as pool:
        for p0 in range(0, n, panel_rows):
            pk = min(panel_rows, n - p0)
            for b0 in range(0, pk, rows):
                k = min(rows, pk - b0)
                list(pool.map(draw, range(repeats), repeat(b0), repeat(k)))
                blk = panel[:, b0:b0 + k]
                for j in range(n_out, repeats):  # averaging only
                    blk[0] += buf[j - n_out, :k]
                blk /= scale
                if average:
                    blk /= repeats
            for j in range(n_out):
                out[j] += stacked[:, p0:p0 + pk] @ panel[j, :pk]
    return out


def build_dictionaries(views: ViewSet, cfg: SketchConfig) -> list:
    """One dictionary per repeat j, from the derived seed
    ``repeat_seed(cfg.seed, j)``."""
    return list(_sketch(views, cfg, average=False))


def build_dictionary(views: ViewSet, cfg: SketchConfig) -> np.ndarray:
    """The dictionary used by a single solve.

    For average_mode="dictionary" this is ``X mean_j R_j``, the mean of the
    per-repeat dictionaries up to rounding, from one product; for
    average_mode="scores" averaging happens over detection maps instead, so
    each solve should use one entry of :func:`build_dictionaries`.
    """
    return _sketch(views, cfg, average=True)[0]
