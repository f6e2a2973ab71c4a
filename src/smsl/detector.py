"""End-to-end anomalous-change scoring: sketch the L x n_h dictionary array
H, solve, then per-pixel residual norms between consecutive views."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import DetectionMap, ViewSet
from .sketch import SketchConfig, build_dictionaries, build_dictionary
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class DetectorConfig:
    sketch: SketchConfig = SketchConfig()
    solver: SolverConfig = SolverConfig()


def score_multiview(h, d: list, e: list, height: int, width: int) -> DetectionMap:
    """Sum over consecutive views (s, s+1) of the per-pixel pair score
    ||H(D^{s+1} - D^s)|| + ||E^{s+1} - E^s||, with H the L x n_h
    dictionary array."""
    if len(d) < 2 or len(e) != len(d):
        raise ValueError("need coefficient/noise matrices for >= 2 views")
    h = np.asarray(h)
    total = np.zeros(height * width)
    for d1, d2, e1, e2 in zip(d, d[1:], e, e[1:]):
        diff = np.asarray(d2) - np.asarray(d1)
        if h.shape[1] != diff.shape[0]:
            raise ValueError(f"dictionary width {h.shape[1]} != "
                             f"coefficient rows {diff.shape[0]}")
        diff = h @ diff  # H(D^{s+1} - D^s); frees the n_h x N difference
        e1, e2 = np.asarray(e1), np.asarray(e2)
        if e1.shape != e2.shape or e1.shape[1] != diff.shape[1]:
            raise ValueError("noise matrices must match the coefficient shape")
        total += (np.linalg.norm(diff, axis=0)
                  + np.linalg.norm(e2 - e1, axis=0))
    return DetectionMap(height, width, total)


def detect(views: ViewSet, cfg: DetectorConfig = DetectorConfig()) -> DetectionMap:
    """Full pipeline. average_mode="dictionary" averages the sketched
    dictionaries and runs one solve; "scores" runs one solve per repeat and
    averages the resulting maps."""
    return detect_with_result(views, cfg)[0]


def detect_with_result(views: ViewSet, cfg: DetectorConfig):
    """:func:`detect`, also returning the (last) SolveResult for
    convergence reporting."""
    height, width = views.height, views.width
    if cfg.sketch.average_mode == "scores":
        dictionaries = build_dictionaries(views, cfg.sketch)
    else:
        dictionaries = [build_dictionary(views, cfg.sketch)]
    maps = []
    for h in dictionaries:
        result = solve(views, h, cfg.solver)
        maps.append(score_multiview(h, result.state.d, result.state.e,
                                    height, width).scores)
    return DetectionMap(height, width, np.mean(maps, axis=0)), result
