"""One benchmark child process: import smsl, then optionally run one detect.

    python3 child.py SRC RESULT_JSON MODE [DETECT_ARGV...]

MODE is `setup` (import only), `detect`, or `trace` (detect with spans,
then the RX/CC/CE baselines on views 1-2). The parent pins the BLAS thread
count in this process's environment.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402,F401
from smsl import baselines, cli, cube  # noqa: E402

READY = time.monotonic()


def main(argv: list) -> int:
    result_path, mode, detect_argv = argv[0], argv[1], argv[2:]
    out = {"ready": READY}
    rc = 0
    if mode != "setup":
        run = cli.main
        load_cube = cube.load_cube
        if mode == "trace":
            from tracing import Tracer  # this script's directory is on sys.path
            tracer = Tracer()
            out["missing"] = tracer.install()
            run = tracer.wrap("cli.detect", cli.main)
        start = time.perf_counter()
        rc = run(detect_argv)
        out["detect_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = _peak_rss_mb()
        if mode == "trace":
            out["spans"] = tracer.spans
            out["baselines"] = _baselines(load_cube, detect_argv, result_path)
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return rc


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image. wait4 and getrusage
    would report the parent's peak instead whenever it is larger, because
    the child starts on the parent's address space (vfork) before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _baselines(load_cube, detect_argv: list, result_path: str) -> dict:
    """Seconds per classical detector on the first two views; each score
    map is saved next to the result for the parent to score."""
    # detect_argv is ["detect", view_1, view_2, ...]
    views = cube.ViewSet(tuple(load_cube(p) for p in detect_argv[1:3]))
    timings = {}
    for method in baselines.METHODS:
        start = time.perf_counter()
        scores = baselines.run_baseline(method, views)
        timings[method] = time.perf_counter() - start
        np.save(f"{result_path}.{method}.npy", scores.scores.ravel())
    return timings


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
