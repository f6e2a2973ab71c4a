"""Command-line entry point.

Subcommands: detect, baseline, eval, synth, sweep, rerun. Every command that
writes a file also writes a JSON manifest next to it: the parameters (every
argument that names no file), the sha256 of every input and output file (a
cube or score header together with its payload), `wall_time_s` (the
command's load, compute and save time, without the manifest's own hashing)
and an `env` block (the smsl, numpy and Python versions, the BLAS build
numpy links, the BLAS thread variables and the CPUs the process may run
on). `smsl rerun MANIFEST`
checks the input checksums (exit 1 on a mismatch), replays the recorded
command into a temporary directory and compares the sha256 of each output
with the recorded one: exit 1 naming the first file that differs, and the
max relative deviation of the replayed score map when that file belongs to
one. The original outputs are left as they are. A manifest that is not a
JSON object recording `argv`, `outputs`, `input_sha256` and `output_sha256`
is not replayed: exit 1 naming it.

Exit codes: 0 success, 1 runtime/data failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from . import __version__, baselines, cube, solver
from .detector import DetectorConfig, detect_with_result
from .evaluate import DETECTOR_PARAMS, SWEEP_PARAMS, SynthSpec, \
    apply_params, configure, grid_points, roc, synth_scene, sweep, \
    write_roc_csv, write_sweep_csv
from .sketch import AVERAGE_MODES, _available_cpus

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
    return configure(DetectorConfig(), {
        (group, fld): getattr(args, _dest(flag))
        for _, flag, group, fld in DETECTOR_PARAMS
    })


def _synth_spec(args) -> SynthSpec:
    return SynthSpec(**{fld: getattr(args, _dest(flag))
                        for flag, fld in _SYNTH_FLAGS.items()})


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


# arguments that name a file a command reads or writes; every other
# argument but synth's out_dir, a directory, is a parameter
_INPUT_FILES = ("cubes", "scores", "mask")
_OUTPUT_FILES = ("out", "trace", "roc_out")


def _files(args, names: tuple) -> list:
    """The paths that the arguments `names` of args give, in order."""
    values = [getattr(args, name, None) for name in names]
    return [p for v in values if v for p in ([v] if isinstance(v, str) else v)]


def _blas_build() -> dict:
    """Name and version of the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def _write_manifest(args, argv: list, record: dict, verified: dict) -> None:
    """Manifest of a finished command, with `record`, the entries only the
    command knows (its `outputs` add to the output files). It goes to
    out_dir/manifest.json, or beside the first output file; a command that
    wrote no file gets none. Inputs with a digest in `verified` are not
    hashed again."""
    outputs = _files(args, _OUTPUT_FILES) + record.pop("outputs", [])
    if not outputs:
        return
    path = (os.path.join(args.out_dir, "manifest.json")
            if hasattr(args, "out_dir") else outputs[0] + ".manifest.json")
    inputs = _files(args, _INPUT_FILES)
    skip = {*_INPUT_FILES, *_OUTPUT_FILES, "out_dir", "func"}
    manifest = {
        "command": args.command,
        "argv": list(argv),
        "params": {k: v for k, v in vars(args).items() if k not in skip},
        "inputs": inputs,
        "input_sha256": _checksums(inputs, verified),
        "outputs": outputs,
        "output_sha256": _checksums(outputs, {}),
        "env": {
            "smsl": __version__, "numpy": np.__version__,
            "python": platform.python_version(), "cpus": _available_cpus(),
            "thread_vars": {v: os.environ.get(v)
                            for v in solver._THREAD_VARS},
            "blas": _blas_build(),
        },
        **record,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_detect(args) -> dict:
    cfg = _detector_config(args)
    scores, result = detect_with_result(_load_views(args.cubes), cfg)
    cube.save_scores(scores, args.out)
    if args.trace:
        solver.write_trace_csv(result.trace, args.trace)
    convergence = {k: getattr(result, k) for k in (
        "converged", "iterations_run", "svt_iterations", "w_nonzero_columns")}
    convergence["final_max_residual"] = result.residual_history[-1]
    return {"convergence": convergence}


def cmd_baseline(args) -> dict:
    views = _load_views(args.cubes)
    scores = baselines.run_baseline(args.method, views, args.ridge)
    cube.save_scores(scores, args.out)
    return {}


def cmd_eval(args) -> dict:
    scores = cube.load_scores(args.scores)
    mask = cube.load_mask(args.mask)
    try:
        curve = roc(scores, mask)
    except ValueError as exc:
        raise cube.FormatError(str(exc)) from exc
    if args.roc_out:
        write_roc_csv(curve, args.roc_out)
    print(f"auc={curve.auc:.6f}")
    return {}


def cmd_synth(args) -> dict:
    views, mask = synth_scene(_synth_spec(args))
    os.makedirs(args.out_dir, exist_ok=True)
    paths = [os.path.join(args.out_dir, f"view_{i}.hdr")
             for i in range(1, len(views.views) + 1)]
    for v, path in zip(views.views, paths):
        cube.save_cube(v, path)
    paths.append(os.path.join(args.out_dir, "mask.pgm"))
    cube.save_mask(mask, paths[-1])
    return {"outputs": paths}


def parse_grid(text: str) -> dict:
    """Parse "lambda2=0.1,1,10;lambda3=1,10" into {name: [values]}."""
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed grid entry {part!r}")
        name, values = part.split("=", 1)
        name = name.strip()
        caster = int if name in _INT_PARAMS else float
        try:
            grid[name] = [caster(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ValueError(f"malformed grid values for {name!r}") from None
    return grid


def cmd_sweep(args) -> dict:
    grid = parse_grid(args.grid)
    base_cfg = _detector_config(args)
    # every point is checked before the first one is solved
    for params in grid_points(grid):
        apply_params(base_cfg, params)
    rows = sweep(_load_views(args.cubes), cube.load_mask(args.mask),
                 base_cfg, grid)
    write_sweep_csv(rows, args.out)
    return {}


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


# what rerun needs of a manifest: key -> (container of strings, what it is)
_REPLAYED = {"argv": (list, "command line"), "outputs": (list, "output files"),
             "input_sha256": (dict, "input checksums"),
             "output_sha256": (dict, "output checksums")}


def _read_manifest(path: str) -> dict:
    """The manifest at path: a JSON object whose _REPLAYED keys hold strings
    in their containers, or else a FormatError that names it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # invalid JSON, or bytes that are not ASCII
        raise cube.FormatError(f"{path}: not a JSON manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise cube.FormatError(f"{path}: not a JSON object")
    for key, (kind, what) in _REPLAYED.items():
        value = manifest.get(key)
        items = value.values() if isinstance(value, dict) else value
        if not isinstance(value, kind) \
                or not all(isinstance(v, str) for v in items):
            raise cube.FormatError(f"{path}: records no {what} ({key})")
    return manifest


def cmd_rerun(args) -> int:
    manifest = _read_manifest(args.manifest)
    recorded = manifest["input_sha256"]
    for path, digest in recorded.items():
        if _sha256(path) != digest:
            raise cube.FormatError(
                f"{path}: sha256 differs from the one recorded in "
                f"{args.manifest}; the replay would not reproduce the run"
            )
    expected = manifest["output_sha256"]
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
    return _run(list(sys.argv[1:] if argv is None else argv), {})


def _run(argv: list, verified_sha256: dict, replay_dir=None) -> int:
    """Parse, run and time one command, write its manifest and return the
    exit code. A command returns its own manifest entries, or rerun the
    replay's exit code. `verified_sha256` maps input paths to digests the
    caller has just checked; the manifest reuses them. With a replay_dir,
    the command writes its outputs and manifest under it instead (see
    _replay_path)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    if replay_dir is not None:
        _redirect_outputs(args, replay_dir)
    try:
        start = time.monotonic()
        record = args.func(args)
        if isinstance(record, int):
            return record
        record["wall_time_s"] = time.monotonic() - start
        _write_manifest(args, argv, record, verified_sha256)
        return 0
    except (cube.FormatError, solver.SolverError, OSError) as exc:
        print(f"smsl: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"smsl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
