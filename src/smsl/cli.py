"""Command-line entry point.

Subcommands: detect, baseline, eval, synth, sweep, rerun. Every run writes a
JSON manifest next to its outputs with the resolved parameters, seeds and the
sha256 of every input and output file (a cube or score header together with
its payload). `smsl rerun MANIFEST` checks the input checksums (exit 1 on a
mismatch), replays the recorded command into a temporary directory and
compares the sha256 of each output with the recorded one: exit 1 naming the
first file that differs, and the max relative deviation of the replayed
score map when that file belongs to one. The original outputs are left as
they are. A manifest without output checksums is replayed over its
outputs, with a warning.

Exit codes: 0 success, 1 runtime/data failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import baselines, cube, solver
from .detector import DetectorConfig, detect_with_result
from .evaluate import DETECTOR_PARAMS, SWEEP_PARAMS, SynthSpec, \
    apply_params, configure, grid_points, roc, synth_scene, sweep, \
    write_roc_csv, write_sweep_csv
from .sketch import AVERAGE_MODES

# synth flag -> SynthSpec field
_SYNTH_FLAGS = {
    "--height": "height", "--width": "width", "--bands": "bands",
    "--views": "views", "--endmembers": "n_endmembers",
    "--anomalies": "n_anomalies", "--magnitude": "anomaly_magnitude",
    "--noise": "noise_sigma", "--seed": "seed",
}


def _default(group: str, fld: str):
    return getattr(getattr(DetectorConfig(), group), fld)


# sweep parameters whose default is an integer take integer grid values
_INT_PARAMS = {name for name, (group, fld) in SWEEP_PARAMS.items()
               if isinstance(_default(group, fld), int)}


class UsageError(ValueError):
    """Invalid arguments or configuration (exit code 2)."""


def _dest(flag: str) -> str:
    """The argparse attribute a --long-flag is stored under."""
    return flag[2:].replace("-", "_")


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    for _, flag, group, fld in DETECTOR_PARAMS:
        default = _default(group, fld)
        choices = AVERAGE_MODES if fld == "average_mode" else None
        p.add_argument(flag, type=type(default), default=default,
                       choices=choices)


def _detector_config(args) -> DetectorConfig:
    try:
        return configure(DetectorConfig(), {
            (group, fld): getattr(args, _dest(flag))
            for _, flag, group, fld in DETECTOR_PARAMS
        })
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _synth_spec(args) -> SynthSpec:
    try:
        return SynthSpec(**{fld: getattr(args, _dest(flag))
                            for flag, fld in _SYNTH_FLAGS.items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_views(paths) -> cube.ViewSet:
    return cube.ViewSet(tuple(cube.load_cube(p) for p in paths))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _checksums(paths: list, verified: dict) -> dict:
    """sha256 of every file in paths and of every payload a header among
    them names, keyed by path; a file named twice is hashed once, and a
    file with a digest in `verified` is not hashed again."""
    sums = {}
    for path in paths:
        for name in cube.input_files(path):
            if name not in sums:
                sums[name] = verified.get(name) or _sha256(name)
    return sums


def _write_manifest(path: str, command: str, argv: list, args,
                    exclude: tuple, inputs: list, outputs: list,
                    wall_time: float, convergence=None) -> None:
    """Manifest of one command; `exclude` names the arguments that are
    recorded as inputs or outputs rather than as parameters."""
    manifest = {
        "command": command,
        "argv": list(argv),
        "params": _params_dict(args, exclude),
        "inputs": list(inputs),
        "input_sha256": _checksums(inputs, args.verified_sha256),
        "outputs": list(outputs),
        "output_sha256": _checksums(outputs, {}),
        "wall_time_s": wall_time,
    }
    if convergence is not None:
        manifest["convergence"] = convergence
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_path(out: str) -> str:
    return out + ".manifest.json"


def cmd_detect(args, argv) -> int:
    cfg = _detector_config(args)
    views = _load_views(args.cubes)
    start = time.monotonic()
    scores, result = detect_with_result(views, cfg)
    elapsed = time.monotonic() - start
    cube.save_scores(scores, args.out)
    outputs = [args.out]
    if args.trace:
        solver.write_trace_csv(result.trace, args.trace)
        outputs.append(args.trace)
    convergence = {
        "converged": result.converged,
        "iterations_run": result.iterations_run,
        "final_max_residual": result.residual_history[-1],
        "svt_iterations": result.svt_iterations,
        "w_nonzero_columns": result.w_nonzero_columns,
    }
    _write_manifest(_manifest_path(args.out), "detect", argv, args,
                    ("cubes", "out", "trace"), args.cubes, outputs, elapsed,
                    convergence)
    return 0


def cmd_baseline(args, argv) -> int:
    if args.ridge is not None and args.ridge < 0:
        raise UsageError("--ridge must be nonnegative")
    views = _load_views(args.cubes)
    start = time.monotonic()
    scores = baselines.run_baseline(args.method, views, args.ridge)
    elapsed = time.monotonic() - start
    cube.save_scores(scores, args.out)
    _write_manifest(_manifest_path(args.out), "baseline", argv, args,
                    ("cubes", "out"), args.cubes, [args.out], elapsed)
    return 0


def cmd_eval(args, argv) -> int:
    scores = cube.load_scores(args.scores)
    mask = cube.load_mask(args.mask)
    try:
        curve = roc(scores, mask)
    except ValueError as exc:
        raise cube.FormatError(str(exc)) from exc
    outputs = []
    if args.roc_out:
        write_roc_csv(curve, args.roc_out)
        outputs.append(args.roc_out)
        _write_manifest(_manifest_path(args.roc_out), "eval", argv, args,
                        (), [args.scores, args.mask], outputs, 0.0)
    print(f"auc={curve.auc:.6f}")
    return 0


def cmd_synth(args, argv) -> int:
    spec = _synth_spec(args)
    views, mask = synth_scene(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []
    for i, v in enumerate(views.views, start=1):
        path = os.path.join(args.out_dir, f"view_{i}.hdr")
        cube.save_cube(v, path)
        outputs.append(path)
    mask_path = os.path.join(args.out_dir, "mask.pgm")
    cube.save_mask(mask, mask_path)
    outputs.append(mask_path)
    _write_manifest(os.path.join(args.out_dir, "manifest.json"), "synth",
                    argv, args, ("out_dir",), [], outputs, 0.0)
    return 0


def parse_grid(text: str) -> dict:
    """Parse "lambda2=0.1,1,10;lambda3=1,10" into {name: [values]}."""
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"malformed grid entry {part!r}")
        name, values = part.split("=", 1)
        name = name.strip()
        caster = int if name in _INT_PARAMS else float
        try:
            grid[name] = [caster(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"malformed grid values for {name!r}") from None
    return grid


def cmd_sweep(args, argv) -> int:
    grid = parse_grid(args.grid)
    base_cfg = _detector_config(args)
    # every point is checked before the first one is solved
    try:
        for params in grid_points(grid):
            apply_params(base_cfg, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    views = _load_views(args.cubes)
    mask = cube.load_mask(args.mask)
    start = time.monotonic()
    rows = sweep(views, mask, base_cfg, grid)
    elapsed = time.monotonic() - start
    write_sweep_csv(rows, args.out)
    _write_manifest(_manifest_path(args.out), "sweep", argv, args,
                    ("cubes", "out"), list(args.cubes) + [args.mask],
                    [args.out], elapsed)
    return 0


# arguments that name a file a command writes; synth's out_dir names a
# directory
_OUTPUT_FILES = ("out", "trace", "roc_out")


def _replay_dir(directory: str, replay_dir: str) -> str:
    """Where a replay into replay_dir writes what a run wrote to directory:
    a subdirectory named by a digest of its absolute path."""
    key = hashlib.sha256(os.path.abspath(directory).encode()).hexdigest()
    return os.path.join(replay_dir, key[:16])


def _replay_path(path: str, replay_dir: str) -> str:
    """Where a replay writes the file `path`. The file name is kept: a
    header names its payload by file name."""
    return os.path.join(_replay_dir(os.path.dirname(path), replay_dir),
                        os.path.basename(path))


def _redirect_outputs(args, replay_dir: str) -> None:
    """Point the output arguments of args under replay_dir."""
    for name in _OUTPUT_FILES:
        if getattr(args, name, None) is not None:
            path = _replay_path(getattr(args, name), replay_dir)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            setattr(args, name, path)
    if getattr(args, "out_dir", None) is not None:
        args.out_dir = _replay_dir(args.out_dir, replay_dir)


def _map_deviation(path: str, outputs: list, replay_dir: str) -> str:
    """When path is a score map among outputs, or its payload, the max
    relative deviation max |replay - recorded| / max |recorded| of the
    replay's map, phrased for the mismatch message; otherwise ''."""
    try:
        out = next(o for o in outputs if path in cube.input_files(o))
        recorded = cube.load_scores(out).scores
        replayed = cube.load_scores(_replay_path(out, replay_dir)).scores
    except (StopIteration, cube.FormatError, OSError):
        return ""
    if replayed.shape != recorded.shape:
        return ""
    scale = max(np.abs(recorded).max(), np.finfo(float).tiny)
    dev = np.abs(replayed - recorded).max() / scale
    return f" (max relative deviation of the map: {dev:.3g})"


def cmd_rerun(args, _argv) -> int:
    with open(args.manifest, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    recorded = manifest.get("input_sha256", {})
    for path, digest in recorded.items():
        if _sha256(path) != digest:
            raise cube.FormatError(
                f"{path}: sha256 differs from the one recorded in "
                f"{args.manifest}; the replay would not reproduce the run"
            )
    expected = manifest.get("output_sha256")
    if expected is None:
        print(f"smsl: warning: {args.manifest} records no output checksums; "
              "replaying over its outputs without comparing them",
              file=sys.stderr)
        return _run(manifest["argv"], recorded)
    with tempfile.TemporaryDirectory(prefix="smsl-rerun-") as tmp:
        code = _run(manifest["argv"], recorded, tmp)
        if code != 0:
            return code
        with open(_replay_path(args.manifest, tmp), encoding="ascii") as fh:
            replayed = json.load(fh)["output_sha256"]
        for path in sorted(expected):
            if replayed.get(_replay_path(path, tmp)) != expected[path]:
                raise cube.FormatError(
                    f"{path}: the replay's sha256 differs from the one "
                    f"recorded in {args.manifest}"
                    + _map_deviation(path, manifest["outputs"], tmp))
    return 0


def _params_dict(args, exclude=()) -> dict:
    skip = set(exclude) | {"func", "verified_sha256"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smsl",
        description="Sketched multi-view subspace learning for anomalous "
                    "change detection in multi-temporal hyperspectral cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the subspace-learning detector")
    p.add_argument("cubes", nargs="+", help="2+ cube header files, in time order")
    p.add_argument("--out", required=True, help="output scores header path")
    p.add_argument("--trace", default=None, help="per-iteration residual CSV")
    _add_detector_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("baseline", help="run a classical detector")
    p.add_argument("cubes", nargs=2, help="exactly 2 cube header files")
    p.add_argument("--method", required=True, choices=baselines.METHODS)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="score a detection map against a mask")
    p.add_argument("--scores", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--roc-out", default=None, help="ROC points CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic scene + mask")
    p.add_argument("--out-dir", required=True)
    for flag, fld in _SYNTH_FLAGS.items():
        default = getattr(SynthSpec(), fld)
        p.add_argument(flag, type=type(default), default=default)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="grid-evaluate detector parameters")
    p.add_argument("cubes", nargs="+")
    p.add_argument("--mask", required=True)
    p.add_argument("--grid", required=True,
                   help='e.g. "lambda2=0.1,1,10;lambda3=0.1,1,10"')
    p.add_argument("--out", required=True, help="sweep results CSV path")
    _add_detector_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rerun", help="replay a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return _run(list(argv), {})


def _run(argv: list, verified_sha256: dict, replay_dir=None) -> int:
    """Parse and run one command. `verified_sha256` maps input paths to
    digests the caller has just checked; the manifest reuses them. With a
    replay_dir, the command writes its outputs and manifest under it
    instead (see _replay_path)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    args.verified_sha256 = verified_sha256
    if replay_dir is not None:
        _redirect_outputs(args, replay_dir)
    try:
        return args.func(args, argv)
    except UsageError as exc:
        print(f"smsl: {exc}", file=sys.stderr)
        return 2
    except (cube.FormatError, solver.SolverError, OSError) as exc:
        print(f"smsl: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"smsl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
