"""End-to-end anomalous-change scoring: sketch, solve, then per-pixel
residual norms between consecutive views."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import DetectionMap, ViewSet
from .sketch import SketchConfig, SketchedDictionary, build_dictionaries, \
    build_dictionary
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class DetectorConfig:
    sketch: SketchConfig = SketchConfig()
    solver: SolverConfig = SolverConfig()


def specific_part(h, d_s: np.ndarray) -> np.ndarray:
    """Per-pixel view-specific spectra H @ D^s (column i belongs to pixel i)."""
    hmat = h.h if isinstance(h, SketchedDictionary) else np.asarray(h)
    d_s = np.asarray(d_s)
    if hmat.shape[1] != d_s.shape[0]:
        raise ValueError(
            f"dictionary width {hmat.shape[1]} != coefficient rows {d_s.shape[0]}"
        )
    return hmat @ d_s


def score_columns(h, d1, d2, e1, e2) -> np.ndarray:
    """Length-N score vector for one view pair."""
    diff_specific = specific_part(h, np.asarray(d2) - np.asarray(d1))
    e1 = np.asarray(e1)
    e2 = np.asarray(e2)
    if e1.shape != e2.shape or e1.shape[1] != diff_specific.shape[1]:
        raise ValueError("noise matrices must match the coefficient shape")
    return (np.linalg.norm(diff_specific, axis=0)
            + np.linalg.norm(e2 - e1, axis=0))


def score_pair(h, d1, d2, e1, e2, height: int, width: int) -> DetectionMap:
    """Pairwise scores: l2 norm of the specific-part difference plus l2 norm
    of the noise difference, per pixel."""
    return DetectionMap(height, width, score_columns(h, d1, d2, e1, e2))


def score_multiview(h, d: list, e: list, height: int, width: int) -> DetectionMap:
    """Sum of pairwise scores over consecutive views (s, s+1)."""
    if len(d) < 2 or len(e) != len(d):
        raise ValueError("need coefficient/noise matrices for >= 2 views")
    total = np.zeros(height * width)
    for s in range(len(d) - 1):
        total += score_columns(h, d[s], d[s + 1], e[s], e[s + 1])
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
