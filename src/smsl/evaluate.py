"""ROC/AUC scoring, synthetic scene generation, and parameter sweeps."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .cube import DetectionMap, GroundTruthMask, HyperCube, ViewSet
from .detector import DetectorConfig, detect


@dataclass(frozen=True)
class RocCurve:
    """Monotone staircase from (0,0) to (1,1) plus its trapezoidal area.

    One operating point per distinct score value, so the area equals the
    Mann-Whitney statistic with ties credited 1/2.
    """

    fpr: np.ndarray = field(repr=False)
    tpr: np.ndarray = field(repr=False)
    auc: float = 0.0


def roc(scores: DetectionMap, mask: GroundTruthMask) -> RocCurve:
    """ROC of a score map against binary ground truth.

    The area is the explicit trapezoid sum over the staircase,
    sum(diff(fpr) * (tpr[1:] + tpr[:-1])) / 2, with no numpy-version
    switch. A block of tied scores is one diagonal step, so on every
    supported numpy the area equals the Mann-Whitney statistic with ties
    counted as 1/2.
    """
    if (scores.height, scores.width) != (mask.height, mask.width):
        raise ValueError(
            f"score map {scores.height}x{scores.width} does not match "
            f"mask {mask.height}x{mask.width}"
        )
    s = scores.scores.reshape(-1)
    y = mask.labels.reshape(-1).astype(bool)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("mask must contain both positive and negative pixels")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # group tied scores into a single operating point
    boundaries = np.flatnonzero(np.diff(s_sorted)) + 1
    tp = np.cumsum(y_sorted)[np.append(boundaries - 1, y.size - 1)]
    fp = np.cumsum(~y_sorted)[np.append(boundaries - 1, y.size - 1)]
    tpr = np.concatenate(([0.0], tp / n_pos))
    fpr = np.concatenate(([0.0], fp / n_neg))
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


# 0-based index of the synthetic view that receives the changes
_ANOMALY_VIEW = 1


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic multi-temporal scene: low-rank background shared by all
    views (up to per-view gain and noise), with appear-type anomalies planted
    in one view."""

    height: int = 64
    width: int = 64
    bands: int = 16
    views: int = 2
    n_endmembers: int = 4
    n_anomalies: int = 20
    anomaly_magnitude: float = 1.0
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.views < 2:
            raise ValueError("need at least 2 views")
        if self.n_anomalies >= self.height * self.width:
            raise ValueError("n_anomalies must be below the pixel count")
        if not (self.n_anomalies >= 0
                and 0 <= self.anomaly_magnitude < np.inf
                and 0 <= self.noise_sigma < np.inf):  # NaN fails each
            raise ValueError("counts and scales must be finite and nonnegative")
        if self.n_endmembers < 1 or self.bands < 1:
            raise ValueError("need at least one endmember and one band")


def synth_scene(spec: SynthSpec):
    """Returns (ViewSet, GroundTruthMask), deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.height * spec.width
    endmembers = rng.uniform(0.1, 1.0, (spec.bands, spec.n_endmembers))
    abundances = rng.random((spec.n_endmembers, n))
    abundances /= abundances.sum(axis=0)
    background = endmembers @ abundances

    anomaly_idx = rng.choice(n, size=spec.n_anomalies, replace=False) \
        if spec.n_anomalies else np.array([], dtype=int)
    directions = rng.standard_normal((spec.bands, spec.n_anomalies))
    norms = np.linalg.norm(directions, axis=0)
    directions = directions / np.where(norms == 0, 1.0, norms)

    cubes = []
    for s in range(spec.views):
        gain = rng.uniform(0.98, 1.02)
        x = gain * background
        if s == _ANOMALY_VIEW and spec.n_anomalies:
            x = x.copy()
            x[:, anomaly_idx] = (background[:, anomaly_idx]
                                 + spec.anomaly_magnitude * directions)
        x = x + spec.noise_sigma * rng.standard_normal(x.shape)
        cubes.append(HyperCube(spec.bands, spec.height, spec.width, x.reshape(-1)))

    labels = np.zeros(n, dtype=np.uint8)
    labels[anomaly_idx] = 1
    return ViewSet(tuple(cubes)), GroundTruthMask(spec.height, spec.width, labels)


# Each detector parameter once: (sweep name or None, CLI flag, DetectorConfig
# attribute, field). The detect/sweep flags, their defaults, the config the
# CLI builds and the sweep grid's names all come from this table.
DETECTOR_PARAMS = (
    ("sketch_size", "--sketch-size", "sketch", "n_h"),
    ("repeats", "--sketch-repeats", "sketch", "repeats"),
    (None, "--sketch-average", "sketch", "average_mode"),
    ("seed", "--seed", "sketch", "seed"),
    ("lambda1", "--lambda1", "solver", "lambda1"),
    ("lambda2", "--lambda2", "solver", "lambda2"),
    ("lambda3", "--lambda3", "solver", "lambda3"),
    ("max_iter", "--max-iter", "solver", "max_iter"),
    ("epsilon", "--eps", "solver", "epsilon"),
    ("mu0", "--mu0", "solver", "mu0"),
    ("mu_max", "--mu-max", "solver", "mu_max"),
    ("rho", "--rho", "solver", "rho"),
)
# sweep name -> (DetectorConfig attribute, field)
SWEEP_PARAMS = {name: (group, fld)
                for name, _, group, fld in DETECTOR_PARAMS if name}


def configure(cfg: DetectorConfig, fields: dict) -> DetectorConfig:
    """New DetectorConfig with {(attribute, field): value} overridden."""
    groups = {"sketch": {}, "solver": {}}
    for (group, fld), value in fields.items():
        groups[group][fld] = value
    return DetectorConfig(**{group: replace(getattr(cfg, group), **over)
                             for group, over in groups.items()})


def apply_params(cfg: DetectorConfig, params: dict) -> DetectorConfig:
    """New DetectorConfig with the named sweep parameters overridden."""
    for name in params:
        if name not in SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {name!r}")
    return configure(cfg, {SWEEP_PARAMS[name]: value
                           for name, value in params.items()})


def grid_points(grid: dict) -> list:
    """The cartesian grid as one {name: value} dict per point, in
    lexicographic order of the (sorted) names and the listed value order."""
    if not grid:
        raise ValueError("sweep grid is empty")
    names = sorted(grid)
    for name in names:
        if not grid[name]:
            raise ValueError(f"sweep parameter {name!r} has no values")
    return [dict(zip(names, values))
            for values in itertools.product(*(grid[name] for name in names))]


def sweep(views: ViewSet, mask: GroundTruthMask, base_cfg: DetectorConfig,
          grid: dict) -> list:
    """Evaluate detect() over the cartesian grid, one point after another;
    rows in lexicographic order of the (sorted) parameter names, values in
    the order listed."""
    rows = []
    for params in grid_points(grid):
        scores = detect(views, apply_params(base_cfg, params))
        rows.append({**params, "auc": roc(scores, mask).auc})
    return rows


def write_roc_csv(curve: RocCurve, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("fpr,tpr\n")
        for f, t in zip(curve.fpr, curve.tpr):
            fh.write(f"{f!r},{t!r}\n")


def write_sweep_csv(rows: list, path: str) -> None:
    if not rows:
        raise ValueError("no sweep rows to write")
    names = [k for k in rows[0] if k != "auc"]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(names + ["auc"]) + "\n")
        for row in rows:
            fh.write(",".join([str(row[k]) for k in names]
                              + [f"{row['auc']:.6f}"]) + "\n")
