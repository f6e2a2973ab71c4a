"""End-to-end benchmark of `smsl detect`, from cube files to a score map.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of default64, sensor, drift3, or `all` for a table of every
workload. A run writes the workload's scenes for seed 0 and --seed as cube
files, spawns a few import-only children to time set-up, then runs detects
back to back, one child process at a time with the workload's BLAS thread
count pinned in the child's environment, until --seconds is used up (at
least three, so the median rejects one outlier and the maps can be compared).

Every detect is checked: exit code 0, finite scores, the same score-map
digest as the other detects of its scene and `iterations_run` equal to the
workload's cap. The first detect of a run maps the seed-0 scene and must stay
within REFERENCE_TOL of the map stored in reference/; the others map the
scene of --seed, which gives the AUC.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` (detects) and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A traced run alternates untraced and
traced detects; its spans come from tracing.py. The line before it holds the
environment block, and the whole record is written to
.perfbench_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from oracle import auc, max_relative_deviation
from tracing import PATCHES, layer_totals
from workloads import WORKLOADS, make_scene, read_scores, write_cube

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 0  # the seed whose score maps are stored in reference/
# Allowed max |map - reference| / max |reference|. Maps written with 1 or 2
# BLAS threads are bit-identical; 1e-4 admits reordered or lower-precision
# arithmetic in the solver while an algorithmic change still fails.
REFERENCE_TOL = 1e-4
SETUP_SPAWNS = 5
MIN_DETECTS = 3
MAX_DETECTS = 40
CHILD_TIMEOUT_S = 150.0
# the spans directly under cli.detect must cover at least this share of it
MIN_COVERED_FRAC = 0.95
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"detect_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "auc": "1"}
PER_LAYER = {
    "prox.svt.s": "s", "prox.svt.calls": "count",
    "solver.cho_solve.s": "s", "solver.cho_factor.s": "s",
    "solver.residuals.s": "s", "solver.update_multipliers.s": "s",
    "solver.update_e.s": "s", "solver.update_w.s": "s",
    "solver.solve.self_s": "s", "solver.state_mb": "MB",
    "solver.solve.s": "s", "solver.solve.calls": "count",
    "solver.iterations": "count", "solver.iter_s": "s",
    "solver.final_max_residual": "1",
    "sketch.build_dictionary.s": "s", "sketch.build_dictionary.self_s": "s",
    "sketch.jlt_matrix.s": "s", "sketch.jlt_matrix.calls": "count",
    "sketch.flops": "flop",
    "cube.load_cube.s": "s", "cube.load_cube.bytes": "B",
    "cube.save_scores.s": "s", "cli.detect.other_s": "s",
    "detector.score_multiview.s": "s",
    "baselines.rx.s": "s", "baselines.rx.auc": "1",
    "baselines.cc.s": "s", "baselines.cc.auc": "1",
    "baselines.ce.s": "s", "baselines.ce.auc": "1",
    "trace_overhead_s": "s", "trace.covered_frac": "1",
}


@dataclass
class Child:
    """One finished child process, as the parent saw it."""

    mode: str
    wall_s: float
    setup_s: float | None
    exit_code: int
    result: dict | None
    result_path: str


def spawn(w, mode: str, result_path: str, argv=()) -> Child:
    env = dict(os.environ, **{v: str(w.blas_threads) for v in THREAD_VARS})
    with open(result_path + ".stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, SRC, result_path, mode, *argv],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err)
        # a pidfd turns readable when the child exits; waiting on it sleeps
        # without polling, and the child is killed if it overruns
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
            proc.wait()
        finally:
            os.close(pidfd)
        wall = time.monotonic() - start
    try:
        with open(result_path, encoding="ascii") as fh:
            result = json.load(fh)
    except (OSError, ValueError):  # the child died before writing it
        result = None
    return Child(mode, wall, result["ready"] - start if result else None,
                 proc.returncode, result, result_path)


def check_detect(child: Child, w, out_hdr: str):
    """(scores, payload digest, failure reason or None) of one detect."""
    if child.exit_code != 0 or child.result is None:
        with open(child.result_path + ".stderr", encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        return None, None, f"exit code {child.exit_code}: {' '.join(tail)}"
    try:
        scores, raw = read_scores(out_hdr, w.height, w.width)
        with open(out_hdr + ".manifest.json", encoding="ascii") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, None, str(exc)
    if not np.all(np.isfinite(scores)):
        return None, None, "non-finite score"
    iterations = manifest.get("convergence", {}).get("iterations_run")
    if iterations != w.max_iter:
        return None, None, f"iterations_run {iterations} != cap {w.max_iter}"
    return scores, hashlib.sha256(raw).hexdigest(), None


def environment(w) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": w.blas_threads,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(child: Child, w) -> dict:
    """Per-layer metrics of one traced detect."""
    spans = child.result["spans"]
    totals = layer_totals(spans)
    root = next(sp for sp in spans if sp["name"] == "cli.detect")
    detect_s = root["end"] - root["start"]
    covered = sum(sp["end"] - sp["start"] for sp in spans
                  if sp["parent"] == root["id"])
    solves = [sp["attrs"] for sp in spans if sp["name"] == "solver.solve"]
    iterations = sum(a["iterations"] for a in solves)

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    m = {f"{name}.s": get(name) for _, _, name in PATCHES}
    m.update({
        "prox.svt.calls": get("prox.svt", "calls"),
        "solver.solve.self_s": get("solver.solve", "self_s"),
        "solver.state_mb": max((a["state_bytes"] for a in solves), default=0) / 1e6,
        "solver.solve.calls": get("solver.solve", "calls"),
        "solver.iterations": iterations,
        "solver.iter_s": get("solver.solve") / iterations if iterations else 0.0,
        "solver.final_max_residual": solves[-1]["final_max_residual"] if solves else 0.0,
        "sketch.build_dictionary.self_s": get("sketch.build_dictionary", "self_s"),
        "sketch.jlt_matrix.calls": get("sketch.jlt_matrix", "calls"),
        "sketch.flops": 2 * w.bands * w.views * w.n_pixels * w.n_h * w.repeats,
        "cube.load_cube.bytes": 4 * w.bands * w.views * w.n_pixels,
        "cli.detect.other_s": detect_s - covered,
        "trace.covered_frac": covered / detect_s,
    })
    return m


def median(values) -> float:
    """Median, or 0.0 when no sample exists (every child failed)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def write_scene(w, seed: int, directory: str):
    """Cube headers of the workload's scene for this seed, and its labels."""
    os.makedirs(directory)
    views, labels = make_scene(w, seed)
    cubes = []
    for s, x in enumerate(views, start=1):
        cubes.append(os.path.join(directory, f"view_{s}.hdr"))
        write_cube(cubes[-1], x, w.height, w.width)
    return cubes, labels


def run_children(w, scenes: list, work: str, seconds: float, trace: bool):
    """Import-only children, then detects until the time is used up.
    Detect i runs on scenes[min(i, len(scenes) - 1)]; a traced run
    alternates untraced and traced detects."""
    deadline = time.monotonic() + seconds
    setups = [spawn(w, "setup", os.path.join(work, f"setup_{i}.json"))
              for i in range(SETUP_SPAWNS)]
    detects = []
    while len(detects) < MAX_DETECTS:
        i = len(detects)
        mode = "trace" if trace and i % 2 else "detect"
        scene = min(i, len(scenes) - 1)
        out_hdr = os.path.join(work, f"scores_{i}.hdr")
        child = spawn(w, mode, os.path.join(work, f"detect_{i}.json"),
                      w.detect_argv(scenes[scene], out_hdr))
        detects.append((child, out_hdr, scene))
        longest = max(c.wall_s for c, *_ in detects)
        if i + 1 >= MIN_DETECTS and time.monotonic() + longest > deadline:
            break
    return setups, detects


def gate(w, detects: list, reference) -> tuple:
    """(failure reasons, passing score map per scene index) of a run's
    detects. Detects of scene 0 must match `reference` unless it is None."""
    checked = [(scene, *check_detect(c, w, out)) for c, out, scene in detects]
    set_digest = {}
    for scene in {scene for scene, *_ in checked}:
        digests = [d for sc, _, d, _ in checked if sc == scene and d]
        set_digest[scene] = max(set(digests), key=digests.count) \
            if digests else None
    failures, good = [], {}
    for i, (scene, scores, digest, reason) in enumerate(checked):
        if reason is None and digest != set_digest[scene]:
            reason = "score-map digest differs from the rest of the run"
        if reason is None and scene == 0 and reference is not None:
            dev = max_relative_deviation(scores, reference)
            if dev > REFERENCE_TOL:
                reason = f"deviation {dev:.3g} from reference > {REFERENCE_TOL}"
        if reason is None:
            good.setdefault(scene, scores)
        else:
            failures.append(f"detect {i}: {reason}")
    return failures, good


def per_layer_metrics(w, plain: list, traced: list, labels) -> dict:
    """Medians over the traced detects, the tracing overhead against the
    untraced ones, and the baselines run by the first traced child."""
    per = [layer_metrics(c, w) for c in traced]
    metrics = {k: median(p[k] for p in per) for k in per[0]} if per else {}
    metrics["trace_overhead_s"] = (
        median(c.result["detect_s"] for c in traced)
        - median(c.result["detect_s"] for c in plain))
    if traced:
        for method, secs in traced[0].result["baselines"].items():
            metrics[f"baselines.{method}.s"] = secs
            metrics[f"baselines.{method}.auc"] = auc(
                np.load(f"{traced[0].result_path}.{method}.npy"), labels)
    return metrics


def run_workload(w, seed: int, seconds: float, trace: bool,
                 write_reference: bool = False) -> dict:
    """The first detect of every run maps the default-seed scene and is held
    to the stored reference map; the rest map the scene of --seed, which
    gives the AUC. At the default seed both are the same scene."""
    work = os.path.join(WORK, w.name)
    shutil.rmtree(work, ignore_errors=True)
    scenes = [write_scene(w, DEFAULT_SEED, os.path.join(work, "default_seed"))]
    if seed != DEFAULT_SEED:
        scenes.append(write_scene(w, seed, os.path.join(work, f"seed_{seed}")))
    labels = scenes[-1][1]
    setups, detects = run_children(w, [cubes for cubes, _ in scenes], work,
                                   seconds, trace)
    ref_path = os.path.join(HERE, "reference", f"{w.name}.f32")
    reference = None if write_reference else \
        np.fromfile(ref_path, dtype="<f4").astype(np.float64)
    failures, good = gate(w, detects, reference)
    if write_reference and 0 in good:
        good[0].astype("<f4").tofile(ref_path)
    scores = good.get(len(scenes) - 1)
    n_failed = len(failures)

    timed = [c for c, *_ in detects if c.result and "detect_s" in c.result]
    plain = [c for c in timed if c.mode == "detect"]
    traced = [c for c in timed if c.mode == "trace"]
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment(w),
              "detect_wall_s": [c.wall_s for c, *_ in detects]}
    if trace:
        metrics = per_layer_metrics(w, plain, traced, labels)
        covered = metrics.get("trace.covered_frac", 0.0)
        if covered < MIN_COVERED_FRAC:
            failures.append(f"top-level spans cover {covered:.3f} of "
                            f"detect_s < {MIN_COVERED_FRAC}")
        # a layer the program no longer has reads 0 in the metrics
        record["untraced_layers"] = traced[0].result["missing"] if traced else []
        units = PER_LAYER
    else:
        metrics = {
            "detect_s": median(c.result["detect_s"] for c in plain),
            "setup_s": median(c.setup_s for c in setups + plain
                              if c.setup_s is not None),
            "peak_rss_mb": median(c.result["peak_rss_mb"] for c in plain),
            "auc": auc(scores, labels) if scores is not None else 0.0,
        }
        units = END_TO_END
    record["failures"] = failures
    record["result"] = {
        "correct": not failures and scores is not None,
        "attempted": len(detects),
        "failed": n_failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the seed-0 map as reference/<workload>.f32")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "smsl", "cli.py")):
        print(f"perfbench: no smsl sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(WORKLOADS[n], args.seed, args.seconds,
                            bool(args.trace), args.write_reference)
               for n in names]
    for rec in records:
        for reason in rec["failures"]:
            print(f"{rec['workload']}: {reason}", file=sys.stderr)
    if args.workload == "all":
        print_table(records)
        return 0
    print(json.dumps({"env": records[0]["env"]}))
    print(json.dumps(records[0]["result"]))
    return 0


def print_table(records: list) -> None:
    """One row per workload: every metric with its unit, plus failed_frac."""
    metrics = records[0]["result"]["metrics"]
    head = [f"{k} [{v['unit']}]" for k, v in metrics.items()]
    head.append("failed_frac [1]")
    print("workload".ljust(10), *(h.rjust(max(12, len(h))) for h in head))
    for rec in records:
        res = rec["result"]
        values = [v["value"] for v in res["metrics"].values()]
        values.append(res["failed"] / res["attempted"])
        print(rec["workload"].ljust(10),
              *(f"{v:.6g}".rjust(max(12, len(h))) for v, h in zip(values, head)))


if __name__ == "__main__":
    sys.exit(main())
