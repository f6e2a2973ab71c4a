"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from smsl.baselines import rx_difference
from smsl.cli import main
from smsl.cube import (DetectionMap, GroundTruthMask, HyperCube, load_cube,
                       load_mask, load_scores, save_cube, save_mask,
                       save_scores)
from smsl.detector import DetectorConfig, detect
from smsl.evaluate import SynthSpec, roc, synth_scene
from smsl.prox import (exclusivity, exclusivity_grad, l21_shrink,
                       soft_threshold, svt)
from smsl.sketch import SketchConfig, build_dictionary
from smsl.solver import SolverConfig, solve, update_c, update_d, update_e
from test_solver import dense_c_oracle, random_instance


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# scene shared by criteria 5 and 6
SCENE_SPEC = SynthSpec(height=64, width=64, bands=16, views=2,
                       n_endmembers=4, n_anomalies=20,
                       anomaly_magnitude=0.7, noise_sigma=0.04, seed=42)


@pytest.fixture(scope="module")
def scene():
    return synth_scene(SCENE_SPEC)


def test_criterion_1_proximal_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(100)

    for i in range(100):
        # closed forms against hand characterizations, tol 1e-10
        x = rng.standard_normal()
        tau = rng.random()
        expected = np.sign(x) * max(abs(x) - tau, 0.0)
        assert abs(soft_threshold(x, tau) - expected) <= 1e-10

        diag = np.abs(rng.standard_normal(4)) + 0.01
        m = np.diag(diag)
        out = svt(m, tau)
        assert np.abs(out - np.diag(np.maximum(diag - tau, 0.0))).max() <= 1e-10

        q = rng.standard_normal((5, 4))
        thr = rng.random() + 0.05
        norms = np.linalg.norm(q, axis=0)
        shrunk = q * np.maximum(norms - thr, 0.0) / norms
        assert np.abs(l21_shrink(q, thr) - shrunk).max() <= 1e-10

    def nuclear_obj(j, m, tau):
        return tau * np.linalg.svd(j, compute_uv=False).sum() \
            + 0.5 * np.linalg.norm(j - m) ** 2

    def l21_obj(w, q, thr):
        return thr * np.linalg.norm(w, axis=0).sum() \
            + 0.5 * np.linalg.norm(w - q) ** 2

    # variational characterization on random instances, 1000 perturbations each
    for i in range(10):
        m = rng.standard_normal((6, 4))
        tau = 0.7
        out = svt(m, tau)
        base = nuclear_obj(out, m, tau)
        perts = out[None] + 1e-2 * rng.standard_normal((1000, 6, 4))
        assert all(nuclear_obj(p, m, tau) >= base - 1e-12 for p in perts)

        q = rng.standard_normal((8, 5))
        thr = 0.6
        w = l21_shrink(q, thr)
        base = l21_obj(w, q, thr)
        perts = w[None] + 1e-2 * rng.standard_normal((1000, 8, 5))
        assert all(l21_obj(p, q, thr) >= base - 1e-12 for p in perts)

    elapsed = time.monotonic() - start
    report(1, elapsed < 10, f"proximal oracles on 100 instances, {elapsed:.1f}s")


def test_criterion_2_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        v += np.sign(v) * 0.1  # bounded away from the sign kink
        g = exclusivity_grad(u, v).reshape(-1)
        for k in range(v.size):
            e = np.zeros(v.size)
            e[k] = step
            e = e.reshape(v.shape)
            fd = (exclusivity(u, v + e) - exclusivity(u, v - e)) / (2 * step)
            rel = abs(fd - g[k]) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(2, worst < 1e-5 and elapsed < 5,
           f"max relative FD error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_subproblem_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    cfg = SolverConfig(lambda3=0.0)
    for _ in range(20):
        xs, h, state = random_instance(rng, n_views=2, n_bands=8,
                                       n_pixels=40, n_h=10)
        _, _, expected_c = dense_c_oracle(state, xs, h)
        got_c = update_c(state, xs, h)
        scale = max(1.0, np.abs(expected_c).max())
        assert np.abs(got_c - expected_c).max() <= 1e-8 * scale

        # pre-projection ridge system, exclusivity weight frozen at zero
        n_h = h.shape[1]
        mu = state.mu
        ones = np.ones((n_h, 1))
        m = cfg.lambda2 * np.eye(n_h) + mu * (h.T @ h + ones @ ones.T)
        rhs = mu * h.T @ (xs[0] - h @ state.c - state.e[0]
                          + state.y1[0] / mu) \
            - ones @ (mu * (ones.T @ state.c - 1.0) + state.y2[0][None, :])
        expected_d = np.linalg.solve(m, rhs)
        got_d = update_d(state, xs, h, 0, cfg)
        scale = max(1.0, np.abs(expected_d).max())
        assert np.abs(got_d - np.maximum(expected_d, 0.0)).max() <= 1e-8 * scale

        e = update_e(state, xs, h, 0)
        grad = -mu * (xs[0] - h @ (state.c + state.d[0]) - e
                      + state.y1[0] / mu) \
            + mu * (e - state.w[0] + state.y3[0] / mu)
        assert np.abs(grad).max() <= 1e-10 * mu * max(1.0, np.abs(e).max())
    elapsed = time.monotonic() - start
    report(3, elapsed < 10, f"C/D/E updates match dense oracles, {elapsed:.1f}s")


def test_criterion_4_convergence_at_defaults():
    start = time.monotonic()
    views, _ = synth_scene(SynthSpec(height=20, width=25, bands=16,
                                     n_anomalies=5, anomaly_magnitude=0.7,
                                     noise_sigma=0.04, seed=10))
    h = build_dictionary(views, SketchConfig(n_h=50, seed=0, repeats=1))
    result = solve(views, h, SolverConfig())
    hist = result.residual_history
    elapsed = time.monotonic() - start
    converged = result.converged and result.iterations_run <= 60
    early_drop = hist[9] < 0.1 * hist[0]
    report(4, converged and early_drop and elapsed < 60,
           f"converged={result.converged} in {result.iterations_run} iters, "
           f"residual iter1={hist[0]:.3e} iter10={hist[9]:.3e} "
           f"final={hist[-1]:.3e}, {elapsed:.1f}s")


def test_criterion_5_detection_quality(scene):
    start = time.monotonic()
    views, mask = scene
    auc_rx = roc(rx_difference(views), mask).auc
    auc_smsl = roc(detect(views, DetectorConfig()), mask).auc
    elapsed = time.monotonic() - start
    ok = auc_smsl >= 0.95 and auc_smsl >= auc_rx - 0.02 and elapsed < 300
    report(5, ok, f"AUC(SMSL)={auc_smsl:.4f}, AUC(RX)={auc_rx:.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_6_sketch_size_trend(scene):
    start = time.monotonic()
    views, mask = scene
    aucs = {}
    for n_h in (50, 100, 200, 400):
        cfg = DetectorConfig(sketch=SketchConfig(n_h=n_h, seed=0, repeats=10))
        aucs[n_h] = roc(detect(views, cfg), mask).auc
    elapsed = time.monotonic() - start
    ok = aucs[400] >= aucs[50] - 0.02 and elapsed < 900
    report(6, ok, "AUC by sketch size " +
           ", ".join(f"{k}: {v:.4f}" for k, v in aucs.items()) +
           f", {elapsed:.1f}s")


def test_criterion_7_complexity_scaling():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    sizes = [1000, 2000, 4000, 8000]
    per_iter = []
    for n in sizes:
        xs = [rng.standard_normal((16, n)) for _ in range(2)]
        h = rng.standard_normal((16, 50))
        best = np.inf
        for _ in range(2):
            t0 = time.monotonic()
            solve(xs, h, SolverConfig(max_iter=2))
            t_short = time.monotonic() - t0
            t0 = time.monotonic()
            solve(xs, h, SolverConfig(max_iter=12))
            t_long = time.monotonic() - t0
            best = min(best, (t_long - t_short) / 10)
        per_iter.append(best)
    slope = np.polyfit(np.log(sizes), np.log(per_iter), 1)[0]
    elapsed = time.monotonic() - start
    ok = 0.8 <= slope <= 1.2 and elapsed < 600
    report(7, ok, "per-iteration seconds " +
           ", ".join(f"N={n}: {t * 1e3:.2f}ms" for n, t in zip(sizes, per_iter))
           + f", fitted exponent {slope:.3f}, {elapsed:.1f}s")


def test_criterion_8_auc_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 1001))
        if rng.random() < 0.5:
            scores = rng.choice(np.round(rng.random(5), 2), size=n)
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        m = DetectionMap(1, n, scores)
        gt = GroundTruthMask(1, n, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = ((pos[:, None] > neg[None, :]).sum()
                 + 0.5 * (pos[:, None] == neg[None, :]).sum()) \
            / (len(pos) * len(neg))
        worst = max(worst, abs(roc(m, gt).auc - brute))

    fixture = roc(DetectionMap(2, 2, np.array([0.9, 0.4, 0.6, 0.1])),
                  GroundTruthMask(2, 2, np.array([1, 1, 0, 0]))).auc
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and fixture == 0.75 and elapsed < 5
    report(8, ok, f"max |trapezoid - Mann-Whitney| = {worst:.2e}, "
                  f"fixture auc={fixture}, {elapsed:.1f}s")


def test_criterion_9_determinism_and_formats(tmp_path):
    start = time.monotonic()
    views, mask = synth_scene(SynthSpec(height=10, width=10, bands=8,
                                        n_anomalies=5, seed=3))
    paths = []
    for i, v in enumerate(views.views, start=1):
        p = str(tmp_path / f"view_{i}.hdr")
        save_cube(v, p)
        paths.append(p)

    out = str(tmp_path / "scores.hdr")
    args = ["detect", *paths, "--out", out, "--sketch-size", "12",
            "--sketch-repeats", "2", "--max-iter", "15"]
    assert main(args) == 0
    payload = (tmp_path / "scores.raw").read_bytes()
    assert main(["rerun", out + ".manifest.json"]) == 0
    identical = (tmp_path / "scores.raw").read_bytes() == payload

    # format round trips at stored precision
    rng = np.random.default_rng(9)
    c = HyperCube(3, 4, 5, rng.standard_normal(60).astype(np.float32)
                  .astype(np.float64))
    save_cube(c, str(tmp_path / "rt.hdr"))
    cube_ok = np.array_equal(load_cube(str(tmp_path / "rt.hdr")).data, c.data)
    save_mask(mask, str(tmp_path / "rt.pgm"))
    mask_ok = np.array_equal(load_mask(str(tmp_path / "rt.pgm")).labels,
                             mask.labels)
    dm = DetectionMap(4, 5, rng.random((4, 5)).astype(np.float32)
                      .astype(np.float64))
    save_scores(dm, str(tmp_path / "rt_s.hdr"))
    scores_ok = np.array_equal(load_scores(str(tmp_path / "rt_s.hdr")).scores,
                               dm.scores)

    elapsed = time.monotonic() - start
    ok = identical and cube_ok and mask_ok and scores_ok and elapsed < 60
    report(9, ok, f"rerun bitwise identical={identical}, round trips "
                  f"cube/mask/scores={cube_ok}/{mask_ok}/{scores_ok}, "
                  f"{elapsed:.1f}s")
