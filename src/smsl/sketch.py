"""Random-projection dictionary built from the concatenated views.

A dictionary is the float64 L x n_h array ``H = [X^1, ..., X^S] R``,
where R has i.i.d. N(0, 1/n_h) entries; the solver and the scoring take it
as is. A detect solves with the one ``X mean_j R_j`` over the R repeats
(average_mode "dictionary") or with one ``X R_j`` per repeat ("scores").
``[X^1, ..., X^S]`` is the ViewSet's stacked buffer, float32 for loaded
cubes, so the scene is not copied to build H. Sampling uses numpy's PCG64
generator (ziggurat standard normals), so equal seeds reproduce equal
matrices on any platform.

The builders never hold a whole R: each repeat's R_j is streamed in row
blocks of 2 MB, drawn on worker threads (one per repeat, at most one per
available CPU), each repeat into a buffer of its own. The blocks are drawn
ahead: a repeat's next block is drawn as soon as its current one has been
read, so the workers draw while the calling thread sums and multiplies.
For an averaged dictionary the sum over the repeats is carried forward
from each repeat's buffer into the next one's, in repeat order, so the
dictionary has the same bits whatever the number of cores. Each block,
averaged over the repeats first for an averaged dictionary, is multiplied
by its columns of X as soon as it is drawn, so a build holds R blocks of
2 MB and the dictionary, nothing the size of the scene. The products run
with numpy's BLAS held at one thread (_one_blas_thread), since their bits
depend on the BLAS's thread count.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from .cube import ViewSet

AVERAGE_MODES = ("dictionary", "scores")

# salt sequence for per-repeat seeds: seed XOR (j * odd 64-bit constant)
_REPEAT_SALT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# float64 entries per repeat in one row block of R drawn at a time (2 MB)
_BLOCK_ENTRIES = 1 << 18


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


# numpy's BLAS thread count: int get(void) and void set(int)
_BlasThreads = namedtuple("_BlasThreads", "get set")
# numpy's BLAS thread count is process-wide: one holder at a time sets it
_BLAS_LOCK = threading.RLock()


@cache
def _blas_threads() -> _BlasThreads | None:
    """numpy's own OpenBLAS thread-count functions, or None on another
    BLAS. Symbols are looked up through numpy's extension module, whose
    handle searches only it and its dependencies, so a second OpenBLAS in
    the process (scipy ships one) is never the one found."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                           ("openblas_", "")):
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        # C ints whatever the BLAS's integer interface
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return _BlasThreads(get, set_)
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS at one thread, under _BLAS_LOCK, and give it back
    its count on the way out; a no-op where the count cannot be set."""
    handle = _blas_threads()
    if handle is None:
        yield
        return
    with _BLAS_LOCK:
        count = handle.get()
        handle.set(1)
        try:
            yield
        finally:
            handle.set(count)


def _draw_workers(repeats: int) -> int:
    """Threads that draw the per-repeat blocks: one per repeat, at most one
    per CPU this process may run on."""
    return min(repeats, _available_cpus())


def build_dictionaries(views: ViewSet, cfg: SketchConfig) -> np.ndarray:
    """The dictionaries a detect solves with, one per row of the returned
    array, which iterates over them: under average_mode "scores" the R x L
    x n_h ``X R_j``, one per repeat j, under "dictionary" the 1 x L x n_h
    ``X mean_j R_j``. X stacks the views side by side and R_j is the
    (S*N) x n_h matrix ``standard_normal((S*N, n_h)) / sqrt(n_h)`` drawn
    from ``default_rng(repeat_seed(seed, j))``. X is the view set's own
    stacked buffer, not a copy of it.

    Each R_j is drawn in row blocks of _BLOCK_ENTRIES entries into its own
    buffer ``bufs[j]``, and the blocks are read in (block, repeat) order. A
    repeat's next block is submitted as soon as its current one has been
    read, so the workers draw ahead while this thread sums and multiplies;
    each generator is drawn by one thread at a time, and its blocks consume
    it exactly as the rows of one (S*N, n_h) draw do. For an averaged
    dictionary the sum over repeats 0..j-1 is carried forward into
    ``bufs[j]``, so the last repeat's buffer holds the sum in repeat order
    whatever the worker count. Each block, scaled, takes its product with
    its columns of X as soon as it is read. A float32 X is widened to
    float64 one block's columns at a time, inside the product; the
    widening is exact, so the dictionary has the bits of a float64 X with
    the same values. The products run on one BLAS thread: at 16 x 8192 by
    8192 x 500 their bits moved with the count.
    """
    stacked = views.stacked
    n = stacked.shape[1]
    n_h, repeats = cfg.n_h, cfg.repeats
    average = cfg.average_mode == "dictionary"
    if n_h > n:
        raise ValueError(f"n_h={n_h} exceeds total sample count {n}")
    rows = min(n, max(1, _BLOCK_ENTRIES // n_h))
    rngs = [np.random.default_rng(repeat_seed(cfg.seed, j))
            for j in range(repeats)]
    bufs = np.empty((repeats, rows, n_h))
    drawn = [None] * repeats  # the future of each repeat's draw
    out = np.zeros((1 if average else repeats, stacked.shape[0], n_h))
    scale = np.sqrt(n_h)

    def draw(j, b0):
        """Submit repeat j's row block at b0, if there is one, into bufs[j]."""
        if b0 < n:
            drawn[j] = pool.submit(rngs[j].standard_normal,
                                   out=bufs[j, :min(rows, n - b0)])

    with ThreadPoolExecutor(_draw_workers(repeats)) as pool, \
            _one_blas_thread():
        for j in range(repeats):
            draw(j, 0)
        for b0 in range(0, n, rows):
            k = min(rows, n - b0)
            for j in range(repeats):
                drawn[j].result()
                blk = bufs[j, :k]
                if average and j:
                    blk += bufs[j - 1, :k]
                    draw(j - 1, b0 + rows)
                if not average or j == repeats - 1:
                    blk /= scale
                    if average:
                        blk /= repeats
                    out[0 if average else j] += stacked[:, b0:b0 + rows] @ blk
                    draw(j, b0 + rows)
    return out


def build_dictionary(views: ViewSet, cfg: SketchConfig) -> np.ndarray:
    """``X mean_j R_j``, the mean of the per-repeat dictionaries up to
    rounding, from one product per row block. A ValueError under
    average_mode="scores", which solves with no averaged dictionary."""
    if cfg.average_mode != "dictionary":
        raise ValueError("build_dictionary averages the repeats, but "
                         f"average_mode is {cfg.average_mode!r}")
    return build_dictionaries(views, cfg)[0]
