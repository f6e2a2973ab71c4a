"""End-to-end anomalous-change scoring: sketch the L x n_h dictionary array
H, solve, then per-pixel residual norms between consecutive views."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .cube import DetectionMap, ViewSet
from .sketch import SketchConfig, build_dictionaries, build_dictionary
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class DetectorConfig:
    sketch: SketchConfig = SketchConfig()
    solver: SolverConfig = SolverConfig()


# pixel columns scored at a time: a block's n_h x 512 coefficient
# difference (2 MB at n_h = 500) replaces a whole-scene n_h x N one
_SCORE_COLUMNS = 512


def score_multiview(h, d: list, e: list, height: int, width: int) -> DetectionMap:
    """Sum over consecutive views (s, s+1) of the per-pixel pair score
    ||H(D^{s+1} - D^s)|| + ||E^{s+1} - E^s||, with H the L x n_h
    dictionary array, over blocks of at most _SCORE_COLUMNS pixels."""
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
    for a in range(0, n_pixels, _SCORE_COLUMNS):
        cols = slice(a, a + _SCORE_COLUMNS)
        for d1, d2, e1, e2 in zip(d, d[1:], e, e[1:]):
            total[cols] += (
                np.linalg.norm(h @ (d2[:, cols] - d1[:, cols]), axis=0)
                + np.linalg.norm(e2[:, cols] - e1[:, cols], axis=0))
    return DetectionMap(height, width, total)


def detect(views: ViewSet, cfg: DetectorConfig = DetectorConfig()) -> DetectionMap:
    """Full pipeline. average_mode="dictionary" averages the sketched
    dictionaries and runs one solve; "scores" runs one solve per repeat and
    averages the resulting maps."""
    return detect_with_result(views, cfg)[0]


def detect_with_result(views: ViewSet, cfg: DetectorConfig):
    """:func:`detect`, also returning the last SolveResult for convergence
    reporting, with its timings summed over every solve."""
    height, width = views.height, views.width
    if cfg.sketch.average_mode == "scores":
        dictionaries = build_dictionaries(views, cfg.sketch)
    else:
        dictionaries = [build_dictionary(views, cfg.sketch)]
    maps = []
    timings = Counter()
    for h in dictionaries:
        result = solve(views, h, cfg.solver)
        timings.update(result.timings)
        maps.append(score_multiview(h, result.state.d, result.state.e,
                                    height, width).scores)
    return (DetectionMap(height, width, np.mean(maps, axis=0)),
            replace(result, timings=dict(timings)))
