"""Classical second-order-statistics change detectors: difference RX,
chronochrome, and covariance equalization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import DetectionMap, ViewSet

METHODS = ("rx", "cc", "ce")


@dataclass(frozen=True)
class CovModel:
    """Sample mean/covariance (1/N normalization) with a diagonal ridge."""

    mean: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)
    ridge: float

    def __post_init__(self):
        if not self.ridge >= 0:  # NaN fails it
            raise ValueError("ridge must be nonnegative")

    @property
    def regularized(self) -> np.ndarray:
        return self.cov + self.ridge * np.eye(self.cov.shape[0])


def _auto_ridge(cov: np.ndarray) -> float:
    # 1e-6 * mean diagonal keeps near-singular covariances invertible
    return 1e-6 * float(np.trace(cov)) / cov.shape[0]


def fit_cov(x: np.ndarray, ridge=None) -> CovModel:
    """CovModel of the columns of x (L x N)."""
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    cov = (centered @ centered.T) / x.shape[1]
    if ridge is None:
        ridge = _auto_ridge(cov)
    return CovModel(mean, cov, float(ridge))


def _pair(views: ViewSet):
    """The two views as float64 L x N matrices: loaded views are float32,
    and the detectors' differences, means and covariances are float64."""
    if views.n_views != 2:
        raise ValueError("baseline detectors require exactly 2 views")
    x1, x2 = (np.asarray(x, dtype=np.float64) for x in views.matrices())
    return x1, x2


def _as_map(views: ViewSet, scores: np.ndarray) -> DetectionMap:
    return DetectionMap(views.height, views.width, scores)


def rx_difference(views: ViewSet, ridge=None) -> DetectionMap:
    """Mahalanobis distance of each difference-image pixel to its mean."""
    x1, x2 = _pair(views)
    diff = x2 - x1
    model = fit_cov(diff, ridge)
    centered = diff - model.mean[:, None]
    try:
        sol = np.linalg.solve(model.regularized, centered)
    except np.linalg.LinAlgError:
        raise ValueError(
            "difference covariance is singular; raise the ridge"
        ) from None
    scores = np.einsum("ij,ij->j", centered, sol)
    return _as_map(views, np.maximum(scores, 0.0))


def chronochrome(views: ViewSet, ridge=None) -> DetectionMap:
    """Squared residual of the least-squares linear predictor of view 2
    from view 1."""
    x1, x2 = _pair(views)
    m1 = fit_cov(x1, ridge)
    c1 = x1 - m1.mean[:, None]
    c2 = x2 - x2.mean(axis=1)[:, None]
    cross = (c2 @ c1.T) / x1.shape[1]
    gain = np.linalg.solve(m1.regularized, cross.T).T
    resid = c2 - gain @ c1
    return _as_map(views, np.einsum("ij,ij->j", resid, resid))


def _sym_sqrt(cov: np.ndarray, floor: float):
    """(square root, inverse square root) of an SPD matrix via its
    eigendecomposition; eigenvalues are clamped at the ridge level."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, floor)
    root = vecs @ (np.sqrt(vals)[:, None] * vecs.T)
    inv_root = vecs @ ((1.0 / np.sqrt(vals))[:, None] * vecs.T)
    return root, inv_root


def covariance_equalization(views: ViewSet, ridge=None) -> DetectionMap:
    """Squared residual after whitening view 1 and recoloring with view 2's
    covariance."""
    x1, x2 = _pair(views)
    m1 = fit_cov(x1, ridge)
    m2 = fit_cov(x2, ridge)
    floor = max(m1.ridge, m2.ridge, np.finfo(float).tiny)
    _, inv_root1 = _sym_sqrt(m1.regularized, floor)
    root2, _ = _sym_sqrt(m2.regularized, floor)
    predicted = root2 @ (inv_root1 @ (x1 - m1.mean[:, None])) + m2.mean[:, None]
    resid = x2 - predicted
    return _as_map(views, np.einsum("ij,ij->j", resid, resid))


def run_baseline(method: str, views: ViewSet, ridge=None) -> DetectionMap:
    if method == "rx":
        return rx_difference(views, ridge)
    if method == "cc":
        return chronochrome(views, ridge)
    if method == "ce":
        return covariance_equalization(views, ridge)
    raise ValueError(f"unknown baseline method {method!r}; use rx, cc or ce")
