"""Benchmark workloads: the seeded scene each one generates and the
`smsl detect` settings it runs.

The program sees only the cube files written here; the ground-truth labels
stay in the benchmark, which scores the resulting map itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

NOISE_SIGMA = 0.01
N_ENDMEMBERS = 4
ANOMALY_VIEW = 1  # 0-based: anomalies are planted in the second view
# Drift scenes draw their materials from one fixed library, so the seed moves
# only the layout, the anomalies and the noise. With per-seed materials the
# SMSL AUC of drift3 ranged over 0.63-0.93 across five seeds; with the fixed
# library it stays within a few hundredths.
LIBRARY_SEED = 0x5EED


@dataclass(frozen=True)
class Workload:
    name: str
    height: int
    width: int
    bands: int
    views: int
    n_anomalies: int
    magnitude: float
    drift: bool  # band-dependent gain and additive drift on every view
    n_h: int
    repeats: int
    average: str
    max_iter: int  # iteration cap: the schedule never reaches its tolerance
    blas_threads: int

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    def detect_argv(self, cubes: list, out: str) -> list:
        """Every detector setting is passed explicitly, so a change to the
        CLI defaults does not change the workload."""
        return ["detect", *cubes, "--out", out,
                "--sketch-size", str(self.n_h),
                "--sketch-repeats", str(self.repeats),
                "--sketch-average", self.average,
                "--seed", "0",
                "--lambda1", "1", "--lambda2", "10", "--lambda3", "10",
                "--mu0", "1e-05", "--mu-max", "100000", "--rho", "1.1",
                "--eps", "1e-05",
                "--max-iter", str(self.max_iter)]


WORKLOADS = {
    # README scene at the CLI defaults: n_h=500 >> L+1, so SVT and the
    # Cholesky solves on 500 x 4096 dominate. Four iterations fit four
    # detects into a 35 s run.
    "default64": Workload("default64", 64, 64, 16, 2, 20, 1.0, False,
                          500, 10, "dictionary", 4, 1),
    # Realistic sensor shape: 72 MB of payload and about 1.5 GB peak RSS.
    # n_h < L+1, so I/O, the sketch build and the memory-bound D, E, W
    # blocks carry the time. One iteration fits two detects into a run.
    "sensor": Workload("sensor", 200, 200, 224, 2, 200, 1.0, False,
                       200, 10, "dictionary", 1, 2),
    # Hard quality scene: SMSL scores about 0.71 here while RX/CC/CE score
    # about 1, so numeric changes show in the AUC. 600 anomalies (15% of the
    # pixels) hold the seed-to-seed AUC spread near 2%; 300 gave 3.6%. The
    # only workload with score averaging (3 solves per detect) and S=3.
    "drift3": Workload("drift3", 64, 64, 32, 3, 600, 0.1, True,
                       100, 3, "scores", 12, 1),
}


def make_scene(w: Workload, seed: int):
    """Returns (views, labels): a list of L x N float32 matrices and a
    length-N uint8 change mask. Equal seeds give equal bytes: the scene is
    built from elementwise operations only, so no BLAS rounding enters."""
    rng = np.random.default_rng(seed)
    lib_rng = np.random.default_rng(LIBRARY_SEED) if w.drift else rng
    endmembers = lib_rng.uniform(0.1, 1.0, (w.bands, N_ENDMEMBERS))
    abundances = rng.random((N_ENDMEMBERS, w.n_pixels))
    abundances /= abundances.sum(axis=0)
    background = np.zeros((w.bands, w.n_pixels))
    for k in range(N_ENDMEMBERS):
        background += endmembers[:, k, None] * abundances[k]

    anomalies = rng.choice(w.n_pixels, size=w.n_anomalies, replace=False)
    directions = rng.standard_normal((w.bands, w.n_anomalies))
    directions /= np.linalg.norm(directions, axis=0)

    t = np.linspace(0.0, 1.0, w.bands)[:, None]
    views = []
    for s in range(w.views):
        if w.drift:
            gain = 1.0 + 0.08 * np.sin(2 * np.pi * (t + s / 3))
            x = gain * background + 0.04 * np.cos(2 * np.pi * (t + s / 5))
        else:
            x = rng.uniform(0.98, 1.02) * background
        if s == ANOMALY_VIEW:
            x[:, anomalies] += w.magnitude * directions
        x += NOISE_SIGMA * rng.standard_normal(x.shape)
        views.append(x.astype(np.float32))

    labels = np.zeros(w.n_pixels, dtype=np.uint8)
    labels[anomalies] = 1
    return views, labels


def write_cube(header_path: str, matrix: np.ndarray, height: int,
               width: int) -> None:
    """Write an L x N matrix in the documented cube format: a text header
    plus a little-endian float32 band-sequential payload."""
    stem = os.path.splitext(os.path.basename(header_path))[0]
    payload = stem + ".raw"
    lines = ["magic=smsl-cube", "version=1", f"bands={matrix.shape[0]}",
             f"height={height}", f"width={width}", "dtype=f32", "layout=bsq",
             "byte_order=little", f"payload={payload}"]
    with open(header_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    np.ascontiguousarray(matrix, dtype="<f4").tofile(
        os.path.join(os.path.dirname(header_path), payload))


def read_scores(header_path: str, height: int, width: int) -> tuple:
    """(float64 score vector, raw payload bytes) of a score map."""
    fields = {}
    with open(header_path, "r", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            fields[key] = value
    if fields.get("magic") != "smsl-scores" \
            or (fields.get("height"), fields.get("width")) != (str(height), str(width)):
        raise ValueError(f"{header_path}: not a {height}x{width} score map")
    with open(os.path.join(os.path.dirname(header_path), fields["payload"]),
              "rb") as fh:
        raw = fh.read()
    if len(raw) != 4 * height * width:
        raise ValueError(f"{header_path}: payload is {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64), raw
