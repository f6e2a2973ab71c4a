"""Shared numerical kernels: soft threshold, SVT, column shrinkage, and the
elementwise-overlap penalty with its (sub)gradient."""

from __future__ import annotations

import numpy as np

# singular values below this fraction of the largest are round-off noise
_SV_CUTOFF = 1e-12


def soft_threshold(x, tau):
    """max(x - tau, 0) + min(x + tau, 0); zero on |x| <= tau."""
    if np.any(np.asarray(tau) < 0):
        raise ValueError("tau must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x - tau, 0.0) + np.minimum(x + tau, 0.0)


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: prox of tau * nuclear norm at m."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("svt input must be finite")
    if np.linalg.norm(m) <= tau:
        # every singular value is at most the Frobenius norm: nothing survives
        return np.zeros_like(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size and s[0] > 0:
        s = np.where(s < _SV_CUTOFF * s[0], 0.0, s)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(m)
    return (u[:, keep] * s[keep]) @ vt[keep]


def l21_columns(q: np.ndarray, threshold: float) -> tuple:
    """Column-wise shrinkage, the prox of threshold * (sum of column l2
    norms), as its nonzero columns: (sorted column indices, their values)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    q = np.asarray(q, dtype=np.float64)
    norms = np.linalg.norm(q, axis=0)
    idx = np.flatnonzero(norms > threshold)
    big = norms[idx]
    return idx, q[:, idx] * ((big - threshold) / big)


def l21_shrink(q: np.ndarray, threshold: float) -> np.ndarray:
    """Column-wise shrinkage: prox of threshold * (sum of column l2 norms)."""
    idx, values = l21_columns(q, threshold)
    out = np.zeros(np.shape(q))
    out[:, idx] = values
    return out


def exclusivity(u: np.ndarray, v: np.ndarray) -> float:
    """Sum of |u_ij * v_ij|; zero exactly when the supports are disjoint."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return float(np.abs(u * v).sum())


def exclusivity_grad(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Subgradient of exclusivity(u, .) at v: |u| * sign(v), sign(0) = 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return np.abs(u) * np.sign(v)
