"""End-to-end anomalous-change scoring: sketch the L x n_h dictionary array
H, solve, then per-pixel residual norms between consecutive views."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .cube import DetectionMap, ViewSet
from .sketch import SketchConfig, _draw_workers, _one_blas_thread, \
    build_dictionaries
from .solver import _PASSES, SolverConfig, _column_blocks, solve


@dataclass(frozen=True)
class DetectorConfig:
    sketch: SketchConfig = SketchConfig()
    solver: SolverConfig = SolverConfig()


def score_multiview(h, d: list, e: list, height: int, width: int) -> DetectionMap:
    """Sum over consecutive views (s, s+1) of the per-pixel pair score
    ||H(D^{s+1} - D^s)|| + ||E^{s+1} - E^s||, with H the L x n_h
    dictionary array, over the solver's column blocks (_column_blocks), so
    that a block's n_h x 512 coefficient difference (2 MB at n_h = 500)
    replaces a whole-scene n_h x N one, with numpy's BLAS held at one
    thread: the bits of h @ (D^{s+1} - D^s) moved with its thread count."""
    if len(d) < 2 or len(e) != len(d):
        raise ValueError("need coefficient/noise matrices for >= 2 views")
    h = np.asarray(h)
    d = [np.asarray(x) for x in d]
    e = [np.asarray(x) for x in e]
    n_pixels = height * width
    for x in d:
        if x.shape != (h.shape[1], n_pixels):
            raise ValueError(f"coefficients of shape {x.shape} do not match "
                             f"dictionary width {h.shape[1]} and {n_pixels} "
                             "pixels")
    if any(x.shape != e[0].shape or x.shape[1] != n_pixels for x in e):
        raise ValueError("noise matrices must match the coefficient shape")
    total = np.zeros(n_pixels)
    with _one_blas_thread():
        for cols in _column_blocks(n_pixels):
            for d1, d2, e1, e2 in zip(d, d[1:], e, e[1:]):
                total[cols] += (
                    np.linalg.norm(h @ (d2[:, cols] - d1[:, cols]), axis=0)
                    + np.linalg.norm(e2[:, cols] - e1[:, cols], axis=0))
    return DetectionMap(height, width, total)


def detect(views: ViewSet, cfg: DetectorConfig = DetectorConfig()) -> DetectionMap:
    """Full pipeline: one solve and one map per dictionary of
    :func:`build_dictionaries`, and the mean of the maps. That is one solve
    under average_mode="dictionary" and one per repeat under "scores"."""
    return detect_with_result(views, cfg)[0]


def detect_with_result(views: ViewSet, cfg: DetectorConfig):
    """:func:`detect`, also returning the manifest's record of its solves,
    each folded in as it ends so that no solve's state outlives its
    scoring: under `convergence` the number of solves, whether every one
    converged, and the most iterations, SVT iterations, final max residual
    and nonzero W^s columns per view of any; under `timings` the seconds of
    the sketch, of each solve's passes and the rest of it (each summed)
    and of the scoring; the `threads` of the last solve and of the sketch's
    draws, and the `trace` of the last solve."""
    height, width = views.height, views.width
    start = perf_counter()
    dictionaries = build_dictionaries(views, cfg.sketch)
    maps = []
    conv = {"solves": 0, "converged": True, "iterations_run": 0,
            "svt_iterations": 0, "final_max_residual": 0.0,
            "w_nonzero_columns": [0] * views.n_views}
    timings = dict.fromkeys(_PASSES, 0.0)
    timings.update(sketch_s=perf_counter() - start, score_s=0.0)
    record = {"convergence": conv, "timings": timings}
    for h in dictionaries:
        result = solve(views, h, cfg.solver)
        start = perf_counter()
        maps.append(score_multiview(h, result.state.d, result.state.e,
                                    height, width).scores)
        timings["score_s"] += perf_counter() - start
        conv["solves"] += 1
        conv["converged"] &= result.converged
        for k, v in (("iterations_run", result.iterations_run),
                     ("svt_iterations", result.svt_iterations),
                     ("final_max_residual", result.residual_history[-1])):
            conv[k] = max(conv[k], v)
        conv["w_nonzero_columns"] = list(map(max, conv["w_nonzero_columns"],
                                             result.w_nonzero_columns))
        for k, seconds in result.timings.items():
            timings[k] += seconds
        # smsl's own threads, which the thread variables do not give
        record["threads"] = {"block_threads": result.block_threads,
                             "block_columns": result.block_columns,
                             "draw_threads": _draw_workers(cfg.sketch.repeats)}
        record["trace"] = result.trace
        del result
    start = perf_counter()
    scores = np.mean(maps, axis=0)
    timings["score_s"] += perf_counter() - start
    return DetectionMap(height, width, scores), record
