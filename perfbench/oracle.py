"""The benchmark's own output checks: AUC and reference-map deviation.

The AUC is computed here rather than by the program under test, so a
change to the program's evaluation code cannot move the quality gate.
"""

from __future__ import annotations

import numpy as np


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: the probability that a random changed pixel scores
    above a random unchanged one, with ties credited 1/2."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel().astype(bool)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if s.shape != y.shape or n_pos == 0 or n_neg == 0:
        raise ValueError("need one label per score and both classes present")
    # average rank (1-based) of each tie group
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def max_relative_deviation(scores, reference) -> float:
    """max |scores - reference| over max |reference|."""
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if s.shape != r.shape:
        raise ValueError(f"shape {s.shape} != reference shape {r.shape}")
    return float(np.abs(s - r).max() / max(np.abs(r).max(), np.finfo(float).tiny))
