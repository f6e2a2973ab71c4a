import gc
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import smsl
from smsl import cli, cube, detector, evaluate, sketch, solver
from smsl.cli import main, parse_grid
from smsl.cube import load_scores, save_cube, save_mask
from smsl.detector import DetectorConfig
from smsl.evaluate import SynthSpec, synth_scene


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    views, mask = synth_scene(SynthSpec(height=10, width=10, bands=8,
                                        n_anomalies=5, seed=3))
    paths = []
    for i, v in enumerate(views.views, start=1):
        p = str(root / f"view_{i}.hdr")
        save_cube(v, p)
        paths.append(p)
    mask_path = str(root / "mask.pgm")
    save_mask(mask, mask_path)
    return {"dir": root, "cubes": paths, "mask": mask_path}


def detect_args(scene, out, extra=()):
    return ["detect", *scene["cubes"], "--out", out,
            "--sketch-size", "12", "--sketch-repeats", "2",
            "--max-iter", "15", *extra]


class TestDefaults:
    @pytest.mark.parametrize("argv", [
        ["detect", "A", "B", "--out", "O"],
        ["sweep", "A", "B", "--mask", "M", "--grid", "lambda2=1",
         "--out", "O"],
    ], ids=["detect", "sweep"])
    def test_detector_flags_default_to_library(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._detector_config(args) == DetectorConfig()

    def test_synth_flags_default_to_library(self):
        args = cli.build_parser().parse_args(["synth", "--out-dir", "D"])
        assert cli._synth_spec(args) == SynthSpec()


def _json_without(key):
    return lambda m: json.dumps({k: v for k, v in m.items()
                                 if k != key}).encode()


# manifests that rerun refuses, each made from a valid detect manifest
BAD_MANIFESTS = {
    "no_argv": _json_without("argv"),
    "no_outputs": _json_without("outputs"),
    "no_input_sha256": _json_without("input_sha256"),
    "no_output_sha256": _json_without("output_sha256"),
    "argv_not_strings": lambda m: json.dumps({**m, "argv": [1]}).encode(),
    "json_list": lambda m: json.dumps([m]).encode(),
    "invalid_json": lambda m: json.dumps(m).encode()[:-1],
    "not_ascii": lambda m: json.dumps({**m, "command": "détect"},
                                      ensure_ascii=False).encode(),
    "argv_does_not_parse": lambda m: json.dumps({**m, "argv": ["detect"]})
    .encode(),
    # the manifest of a detect lies beside its first output
    "argv_reruns_itself": lambda m: json.dumps(
        {**m, "argv": ["rerun", m["outputs"][0] + ".manifest.json"]}).encode(),
}
# what rerun says of some of them, after the manifest's path
BAD_MANIFEST_ERRORS = {
    "no_output_sha256": "records no output checksums",
    "argv_does_not_parse": "its command line does not parse (smsl detect: "
                           "error: the following arguments are required: "
                           "cubes, --out)",
    "argv_reruns_itself": "records a rerun",
}


class TestDetect:
    def test_produces_scores_and_manifest(self, scene, tmp_path):
        out = str(tmp_path / "scores.hdr")
        trace = str(tmp_path / "trace.csv")
        assert main(detect_args(scene, out, ["--trace", trace])) == 0
        scores = load_scores(out)
        assert scores.scores.shape == (10, 10)
        manifest = json.loads((tmp_path / "scores.hdr.manifest.json").read_text())
        assert manifest["command"] == "detect"
        assert manifest["params"]["seed"] == 0
        assert sorted(manifest["params"]) == [
            "command", "eps", "lambda1", "lambda2", "lambda3", "max_iter",
            "mu0", "mu_max", "rho", "seed", "sketch_average",
            "sketch_repeats", "sketch_size"]
        assert "convergence" in manifest
        with open(trace) as fh:
            assert fh.readline().startswith("iteration,")

    def test_missing_second_cube_usage_error(self, scene, tmp_path, capsys):
        code = main(["detect", scene["cubes"][0],
                     "--out", str(tmp_path / "s.hdr")])
        capsys.readouterr()
        assert code == 2  # single view fails ViewSet validation
        code = main(["detect", "--out", str(tmp_path / "s.hdr")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda2", "--lambda3",
                                      "--eps", "--rho", "--mu0", "--mu-max"])
    def test_nan_parameter_usage_error(self, scene, tmp_path, capsys, flag):
        code = main(detect_args(scene, str(tmp_path / "s.hdr"))
                    + [flag, "nan"])
        assert code == 2
        assert "smsl: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_max_iter_zero_rejected(self, scene, tmp_path, capsys):
        code = main(detect_args(scene, str(tmp_path / "s.hdr"))
                    + ["--max-iter", "0"])
        capsys.readouterr()
        assert code == 2

    def test_rerun_from_manifest_bit_identical(self, scene, tmp_path):
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        payload = Path(out[:-4] + ".raw").read_bytes()
        manifest_path = out + ".manifest.json"
        assert main(["rerun", manifest_path]) == 0
        assert Path(out[:-4] + ".raw").read_bytes() == payload


    def test_manifest_records_input_checksums(self, scene, tmp_path):
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        with open(out + ".manifest.json") as fh:
            sums = json.load(fh)["input_sha256"]
        payloads = [p[:-4] + ".raw" for p in scene["cubes"]]
        assert sorted(sums) == sorted(scene["cubes"] + payloads)
        with open(payloads[0], "rb") as fh:
            assert sums[payloads[0]] == hashlib.sha256(fh.read()).hexdigest()

    def test_rerun_rejects_changed_input(self, scene, tmp_path, capsys):
        cubes = []
        for p in scene["cubes"]:
            for src in (p, p[:-4] + ".raw"):
                shutil.copy(src, tmp_path)
            cubes.append(str(tmp_path / os.path.basename(p)))
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args({"cubes": cubes}, out)) == 0
        with open(cubes[1][:-4] + ".raw", "r+b") as fh:
            fh.seek(7)
            byte = fh.read(1)[0]
            fh.seek(7)
            fh.write(bytes([byte ^ 0x01]))
        capsys.readouterr()
        assert main(["rerun", out + ".manifest.json"]) == 1
        assert "view_2.raw: sha256 differs" in capsys.readouterr().err

    def test_rerun_hashes_each_input_once(self, scene, tmp_path,
                                          monkeypatch, capsys):
        cubes = []
        for p in scene["cubes"]:
            for src in (p, p[:-4] + ".raw"):
                shutil.copy(src, tmp_path)
            cubes.append(str(tmp_path / os.path.basename(p)))
        out = str(tmp_path / "scores.hdr")
        manifest_path = out + ".manifest.json"
        assert main(detect_args({"cubes": cubes}, out)) == 0
        with open(manifest_path) as fh:
            before = json.load(fh)
        hashed = []
        sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256",
                            lambda path: hashed.append(path) or sha256(path))
        assert main(["rerun", manifest_path]) == 0
        # each input once, then each file the replay writes once, in its
        # own directory
        n_inputs = len(before["input_sha256"])
        assert sorted(hashed[:n_inputs]) == sorted(before["input_sha256"])
        assert sorted(map(os.path.basename, hashed[n_inputs:])) == sorted(
            map(os.path.basename, before["output_sha256"]))
        assert not any(p.startswith(str(tmp_path)) for p in hashed[n_inputs:])
        with open(manifest_path) as fh:
            after = json.load(fh)
        assert after["input_sha256"] == before["input_sha256"]
        assert after["params"] == before["params"]

        hashed.clear()
        with open(cubes[0][:-4] + ".raw", "r+b") as fh:
            fh.seek(3)
            byte = fh.read(1)[0]
            fh.seek(3)
            fh.write(bytes([byte ^ 0x01]))
        capsys.readouterr()
        assert main(["rerun", manifest_path]) == 1
        assert "view_1.raw: sha256 differs" in capsys.readouterr().err
        assert len(hashed) == len(set(hashed))

    def test_manifest_records_output_checksums_and_telemetry(self, scene,
                                                               tmp_path):
        out = str(tmp_path / "scores.hdr")
        trace = str(tmp_path / "trace.csv")
        assert main(detect_args(scene, out, ["--trace", trace])) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        sums = manifest["output_sha256"]
        payload = out[:-4] + ".raw"
        assert sorted(sums) == sorted([out, payload, trace])
        with open(payload, "rb") as fh:
            assert sums[payload] == hashlib.sha256(fh.read()).hexdigest()
        convergence = manifest["convergence"]
        assert 0 <= convergence["svt_iterations"] \
            <= convergence["iterations_run"]
        assert len(convergence["w_nonzero_columns"]) == 2
        assert all(0 <= n <= 100 for n in convergence["w_nonzero_columns"])

    @pytest.mark.parametrize("settable", [True, False])
    def test_manifest_records_the_solve_threads(self, scene, tmp_path,
                                                monkeypatch, settable):
        # the block threads, the block width and the sketch's draw
        # threads, which the thread variables alone do not give: with
        # numpy's BLAS count settable, two block threads run blocks widened
        # to 48 columns (48, 48 and 4); without it, the blocks run on the
        # calling thread whatever the variables. The 2 repeats are drawn
        # on 2 threads either way
        handle = solver._blas_threads()
        if settable and handle is None:
            pytest.skip("numpy's BLAS thread count cannot be set")
        monkeypatch.setattr(solver, "_BLOCK_COLUMNS", 16)  # 7 blocks
        monkeypatch.setattr(solver, "_SMALL_BLOCK_BYTES", 0)
        monkeypatch.setattr(solver, "_available_cpus", lambda: 2)
        monkeypatch.setattr(sketch, "_available_cpus", lambda: 2)
        monkeypatch.setattr(solver, "_blas_threads",
                            lambda: handle if settable else None)
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, "1")
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["threads"] == (
            {"block_threads": 2, "block_columns": 48, "draw_threads": 2}
            if settable else
            {"block_threads": 1, "block_columns": 16, "draw_threads": 2})

    def test_manifest_records_every_solve(self, scene, tmp_path,
                                          monkeypatch):
        # under score averaging, convergence covers both solves: the most
        # iterations and the largest final residual of either
        solves = []

        def recorded(*args, **kwargs):
            result = solver.solve(*args, **kwargs)
            solves.append(result)
            return result

        monkeypatch.setattr(detector, "solve", recorded)
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out, ["--sketch-average", "scores",
                                             "--max-iter", "4"])) == 0
        convergence = json.loads(
            Path(out + ".manifest.json").read_text())["convergence"]
        finals = [r.residual_history[-1] for r in solves]
        assert len(solves) == 2 and finals[0] != finals[1]
        assert convergence["solves"] == 2
        assert convergence["final_max_residual"] == max(finals)
        assert convergence["iterations_run"] == 4
        assert convergence["converged"] is False
        assert convergence["w_nonzero_columns"] == [
            max(r.w_nonzero_columns[s] for r in solves) for s in range(2)]

    def test_manifest_records_the_solve_timings(self, scene, tmp_path,
                                                monkeypatch):
        # seconds on the calling thread in pass A, the J step, pass B and
        # the rest of the solve, summed over every solve (two when the maps
        # are averaged), beside
        # those of the load, the sketch, the scoring and the save, all
        # within the wall time; they enter no file that rerun compares
        solves = []

        def recorded(*args, **kwargs):
            result = solver.solve(*args, **kwargs)
            solves.append(result.timings)
            return result

        monkeypatch.setattr(detector, "solve", recorded)
        out = str(tmp_path / "scores.hdr")
        trace = str(tmp_path / "trace.csv")
        argv = detect_args(scene, out, ["--sketch-average", "scores",
                                        "--trace", trace])
        assert main(argv) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        timings = manifest["timings"]
        assert len(solves) == 2
        assert sorted(timings) == ["j_step_s", "load_s", "pass_a_s",
                                   "pass_b_s", "save_s", "score_s",
                                   "sketch_s", "solve_rest_s"]
        for name in solver._PASSES:
            assert timings[name] == solves[0][name] + solves[1][name]
        assert all(seconds >= 0 for seconds in timings.values())
        assert 0 < sum(timings.values()) <= manifest["wall_time_s"]
        assert main(["rerun", out + ".manifest.json"]) == 0
        assert len(solves) == 4

    @pytest.mark.parametrize("synth", [
        [], ["--height", "16", "--width", "16", "--bands", "224"],
    ], ids=["default", "bands_224"])
    def test_rerun_at_another_blas_thread_count(self, tmp_path, synth):
        # a detect run on one BLAS thread replays at the count OpenBLAS
        # picks for itself: on the default synth scene, the bits of the
        # sketch's 16 x 500 product moved with the count, and on the
        # 224-band one those of the solver's Gram SVD of [H', 1]
        assert main(["synth", "--out-dir", str(tmp_path), *synth]) == 0
        out = str(tmp_path / "scores.hdr")
        env = {k: v for k, v in os.environ.items()
               if k not in cli._THREAD_VARS}
        env["PYTHONPATH"] = str(Path(smsl.__file__).parents[1])

        def smsl_cli(*argv, **threads):
            return subprocess.run(
                [sys.executable, "-m", "smsl.cli", *argv],
                env={**env, **threads}, capture_output=True, text=True)

        run = smsl_cli("detect", str(tmp_path / "view_1.hdr"),
                       str(tmp_path / "view_2.hdr"), "--out", out,
                       "--max-iter", "4", "--trace",
                       str(tmp_path / "trace.csv"),
                       OPENBLAS_NUM_THREADS="1")
        assert run.returncode == 0, run.stderr
        replay = smsl_cli("rerun", out + ".manifest.json")
        assert replay.returncode == 0, replay.stderr

    def test_rerun_replays_beside_the_originals(self, scene, tmp_path):
        out = str(tmp_path / "scores.hdr")
        trace = str(tmp_path / "trace.csv")
        assert main(detect_args(scene, out, ["--trace", trace])) == 0
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                  for p in tmp_path.iterdir()}
        assert main(["rerun", out + ".manifest.json"]) == 0
        after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                 for p in tmp_path.iterdir()}
        assert after == before

    def test_rerun_outputs_of_one_name_in_two_directories(self, scene,
                                                           tmp_path):
        # the replay keeps each output's file name and its directory apart
        # from every other: d1/m.hdr and d2/m.hdr do not meet
        for d in ("d1", "d2"):
            (tmp_path / d).mkdir()
        out = str(tmp_path / "d1" / "m.hdr")
        trace = str(tmp_path / "d2" / "m.hdr")
        assert main(detect_args(scene, out, ["--trace", trace])) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")
                  if p.is_file()}
        assert main(["rerun", out + ".manifest.json"]) == 0
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == before

    def test_rerun_that_fails_at_run_time(self, scene, tmp_path, capsys):
        # a command line that parses but that the command rejects: the
        # replay's own exit code and message, and the originals untouched
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        manifest_path = Path(out + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        argv = manifest["argv"]
        argv[argv.index("--max-iter") + 1] = "0"
        manifest_path.write_text(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["rerun", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("smsl: ") and "max_iter" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rerun_rejects_changed_output(self, scene, tmp_path, capsys):
        # a map and its recorded digest as a build with other rounding
        # would have written them
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        payload = tmp_path / "scores.raw"
        changed = bytearray(payload.read_bytes())
        changed[0] ^= 0x01  # lowest mantissa bit of the first score
        payload.write_bytes(bytes(changed))
        manifest_path = Path(out + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        manifest["output_sha256"][str(payload)] = \
            hashlib.sha256(changed).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", out + ".manifest.json"]) == 1
        err = capsys.readouterr().err
        assert f"{payload}: the replay's sha256 differs" in err
        assert payload.read_bytes() == bytes(changed)

    @pytest.mark.parametrize("kept", ["none", "trace"])
    def test_rerun_rejects_an_output_the_manifest_does_not_record(
            self, scene, tmp_path, capsys, kept):
        # a manifest that records no digest, or only the trace's: the
        # replay writes the map too, so it exits 1 naming the manifest and
        # the map's header, the first output without a recorded digest
        out = str(tmp_path / "scores.hdr")
        trace = str(tmp_path / "trace.csv")
        assert main(detect_args(scene, out, ["--trace", trace])) == 0
        manifest_path = Path(out + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        sums = manifest["output_sha256"]
        manifest["output_sha256"] = {trace: sums[trace]} \
            if kept == "trace" else {}
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(manifest_path)]) == 1
        assert capsys.readouterr().err == (
            f"smsl: {manifest_path}: records no sha256 of {out}, which the "
            "replay writes\n")

    def test_rerun_names_the_env_fields_that_differ(self, scene, tmp_path,
                                                    capsys):
        # a recorded digest that the replay does not reproduce, from a run
        # on another number of CPUs: the message names the field and gives
        # both values
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        payload = str(tmp_path / "scores.raw")
        manifest_path = Path(out + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        cpus = manifest["env"]["cpus"]
        manifest["env"]["cpus"] = cpus + 1
        manifest["output_sha256"][payload] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert f"{payload}: the replay's sha256 differs" in err
        assert err.rstrip().endswith(
            "; env fields that differ, recorded -> replay: "
            f"cpus {cpus + 1} -> {cpus}")

    def test_rerun_reports_the_map_deviation(self, scene, tmp_path, capsys):
        # a recorded map one score away from what the replay writes: the
        # message gives max |replay - recorded| / max |recorded|
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        replayed = load_scores(out)
        changed = replayed.scores.copy()
        changed[7] *= 1.001
        cube.save_scores(cube.DetectionMap(replayed.height, replayed.width,
                                           changed), out)
        recorded = load_scores(out).scores
        payload = tmp_path / "scores.raw"
        manifest_path = Path(out + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        manifest["output_sha256"][str(payload)] = \
            hashlib.sha256(payload.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        expected = (np.abs(replayed.scores - recorded).max()
                    / np.abs(recorded).max())
        assert 1e-5 < expected < 1e-3
        capsys.readouterr()
        assert main(["rerun", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert f"{payload}: the replay's sha256 differs" in err
        assert f"max relative deviation of the map: {expected:.3g}" in err

    @pytest.mark.parametrize("case", BAD_MANIFESTS)
    def test_rerun_refuses_a_malformed_manifest(self, scene, tmp_path,
                                                monkeypatch, capsys, case):
        # exit 1 naming the manifest, before any replay; a manifest without
        # output checksums is one of them, and so is one whose command line
        # does not parse or replays a rerun (which would recurse)
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out)) == 0
        manifest_path = Path(out + ".manifest.json")
        manifest_path.write_bytes(
            BAD_MANIFESTS[case](json.loads(manifest_path.read_text())))
        payload = (tmp_path / "scores.raw").read_bytes()

        def detect(*args, **kwargs):
            raise AssertionError("the manifest was replayed")

        monkeypatch.setattr(cli, "detect_with_result", detect)
        capsys.readouterr()
        assert main(["rerun", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"smsl: {manifest_path}: "
                              + BAD_MANIFEST_ERRORS.get(case, ""))
        assert "usage:" not in err
        assert (tmp_path / "scores.raw").read_bytes() == payload

    def test_zero_ridge_rank_deficient_usage_error(self, scene, tmp_path,
                                                   capsys):
        # sketch size 12 > bands + 1 = 9: the D-system has no ridge to make
        # it invertible
        code = main(detect_args(scene, str(tmp_path / "s.hdr"))
                    + ["--lambda2", "0"])
        assert code == 2
        assert "singular" in capsys.readouterr().err

    def test_loads_close_their_files(self, scene, tmp_path):
        out = str(tmp_path / "scores.hdr")
        assert main(detect_args(scene, out, ["--max-iter", "1"])) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["eval", "--scores", out, "--mask",
                         scene["mask"]]) == 0
            assert main(detect_args(scene, out, ["--max-iter", "1"])) == 0
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


_DETECT = ["detect", "{s}/view_1.hdr", "{s}/view_2.hdr", "--sketch-size",
           "20", "--sketch-repeats", "2", "--max-iter", "3"]


class TestOutputPaths:
    # an output file that lands on a file the command reads or writes:
    # (argv, the file named, what it would overwrite)
    CASES = {
        "out_on_an_input_payload": (
            _DETECT + ["--out", "{s}/view_1.raw"], "view_1.raw",
            "an input file"),
        "out_payload_on_its_own_header": (
            _DETECT + ["--out", "{s}/map.raw"], "map.raw",
            "the --out header"),
        "trace_on_an_input_header": (
            _DETECT + ["--out", "{s}/map.hdr", "--trace", "{s}/view_2.hdr"],
            "view_2.hdr", "an input file"),
        "trace_on_the_out_payload": (
            _DETECT + ["--out", "{s}/map.hdr", "--trace", "{s}/map.raw"],
            "map.raw", "the --out payload"),
        "trace_under_the_manifest": (
            _DETECT + ["--out", "{s}/map.hdr", "--trace",
                       "{s}/map.hdr.manifest.json"],
            "map.hdr.manifest.json", "the --trace file"),
        "baseline_out_on_an_input_header": (
            ["baseline", "{s}/view_1.hdr", "{s}/view_2.hdr", "--method", "rx",
             "--out", "{s}/view_2.hdr"], "view_2.hdr", "an input file"),
        "roc_out_on_the_scores_payload": (
            ["eval", "--scores", "{s}/scores.hdr", "--mask", "{s}/mask.pgm",
             "--roc-out", "{s}/scores.raw"], "scores.raw", "an input file"),
        "roc_out_on_the_mask": (
            ["eval", "--scores", "{s}/scores.hdr", "--mask", "{s}/mask.pgm",
             "--roc-out", "{s}/mask.pgm"], "mask.pgm", "an input file"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_naming_it_and_writes_nothing(self, scene, tmp_path,
                                                  capsys, case):
        argv, named, owner = self.CASES[case]
        root = tmp_path / "s"
        shutil.copytree(scene["dir"], root)
        cube.save_scores(cube.DetectionMap(10, 10, np.arange(100.0)),
                         str(root / "scores.hdr"))
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        capsys.readouterr()
        assert main([a.format(s=root) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"{root / named}: " in err and owner in err
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_distinct_outputs_beside_the_inputs_run(self, scene, tmp_path):
        root = tmp_path / "s"
        shutil.copytree(scene["dir"], root)
        argv = _DETECT + ["--out", "{s}/map.hdr", "--trace", "{s}/map.csv"]
        assert main([a.format(s=root) for a in argv]) == 0
        assert main(["eval", "--scores", str(root / "map.hdr"), "--mask",
                     str(root / "mask.pgm")]) == 0


class TestBaseline:
    def test_rx_identical_views_zero(self, scene, tmp_path, capsys):
        out = str(tmp_path / "rx.hdr")
        code = main(["baseline", scene["cubes"][0], scene["cubes"][0],
                     "--method", "rx", "--ridge", "0.5", "--out", out])
        assert code == 0
        assert np.allclose(load_scores(out).scores, 0.0, atol=1e-12)

    def test_cc_runs(self, scene, tmp_path):
        out = str(tmp_path / "cc.hdr")
        assert main(["baseline", *scene["cubes"], "--method", "cc",
                     "--out", out]) == 0
        assert load_scores(out).scores.min() >= 0

    def test_negative_ridge_usage_error(self, scene, tmp_path, capsys):
        code = main(["baseline", *scene["cubes"], "--method", "rx",
                     "--ridge", "-1", "--out", str(tmp_path / "x.hdr")])
        assert code == 2
        assert "ridge must be nonnegative" in capsys.readouterr().err

    def test_nan_ridge_usage_error(self, scene, tmp_path, capsys):
        code = main(["baseline", *scene["cubes"], "--method", "rx",
                     "--ridge", "nan", "--out", str(tmp_path / "x.hdr")])
        assert code == 2
        assert "ridge must be nonnegative" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_method(self, scene, tmp_path, capsys):
        code = main(["baseline", *scene["cubes"], "--method", "kernel",
                     "--out", str(tmp_path / "x.hdr")])
        capsys.readouterr()
        assert code == 2


class TestEval:
    def fixture_scores(self, tmp_path, values, shape=(2, 2)):
        path = str(tmp_path / "s.hdr")
        cube.save_scores(cube.DetectionMap(shape[0], shape[1],
                                           np.asarray(values, float)), path)
        return path

    def fixture_mask(self, tmp_path, labels, shape=(2, 2)):
        path = str(tmp_path / "m.pgm")
        save_mask(cube.GroundTruthMask(shape[0], shape[1],
                                       np.asarray(labels)), path)
        return path

    def test_perfect_separation(self, tmp_path, capsys):
        s = self.fixture_scores(tmp_path, [4, 3, 1, 0])
        m = self.fixture_mask(tmp_path, [1, 1, 0, 0])
        assert main(["eval", "--scores", s, "--mask", m]) == 0
        assert "auc=1.000000" in capsys.readouterr().out

    def test_four_pixel_fixture(self, tmp_path, capsys):
        s = self.fixture_scores(tmp_path, [0.9, 0.4, 0.6, 0.1])
        m = self.fixture_mask(tmp_path, [1, 1, 0, 0])
        roc_out = str(tmp_path / "roc.csv")
        assert main(["eval", "--scores", s, "--mask", m,
                     "--roc-out", roc_out]) == 0
        assert "auc=0.750000" in capsys.readouterr().out
        with open(roc_out) as fh:
            assert fh.readline().strip() == "fpr,tpr"

    def test_negative_score_exit_1(self, tmp_path, capsys):
        s = self.fixture_scores(tmp_path, [4, 3, 1, 0])
        payload = tmp_path / "s.raw"
        payload.write_bytes(np.array([4, 3, -1, 0], dtype="<f4").tobytes())
        m = self.fixture_mask(tmp_path, [1, 1, 0, 0])
        assert main(["eval", "--scores", s, "--mask", m]) == 1
        err = capsys.readouterr().err
        assert f"payload {payload}: scores must be nonnegative" in err

    def test_mismatched_sizes_exit_1(self, tmp_path, capsys):
        s = self.fixture_scores(tmp_path, [1, 2, 3, 4], (2, 2))
        m = self.fixture_mask(tmp_path, [0, 1, 0, 1, 0, 1], (2, 3))
        code = main(["eval", "--scores", s, "--mask", m])
        capsys.readouterr()
        assert code == 1

    def test_non_positive_mask_dimensions_exit_1(self, tmp_path, capsys):
        s = self.fixture_scores(tmp_path, [4, 3, 1, 0])
        m = tmp_path / "m.pgm"
        m.write_bytes(b"P5\n-1 -1\n255\n\0")
        assert main(["eval", "--scores", s, "--mask", str(m)]) == 1
        assert f"{m}: non-positive PGM dimension" in capsys.readouterr().err


class TestSynth:
    def test_mask_positive_count(self, tmp_path):
        out = str(tmp_path / "scene")
        assert main(["synth", "--out-dir", out, "--height", "8",
                     "--width", "8", "--anomalies", "20"]) == 0
        mask = cube.load_mask(str(tmp_path / "scene" / "mask.pgm"))
        assert mask.labels.sum() == 20
        v1 = cube.load_cube(str(tmp_path / "scene" / "view_1.hdr"))
        assert v1.height == 8

    def test_rerun_into_a_directory(self, tmp_path):
        out_dir = tmp_path / "scene"
        assert main(["synth", "--out-dir", str(out_dir), "--height", "6",
                     "--width", "5", "--bands", "4", "--anomalies", "2"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(map(os.path.basename, manifest["output_sha256"])) == [
            "mask.pgm", "view_1.hdr", "view_1.raw", "view_2.hdr",
            "view_2.raw"]
        assert main(["rerun", str(out_dir / "manifest.json")]) == 0

    @pytest.mark.parametrize("flag", ["--magnitude", "--noise"])
    def test_nan_scale_exit_2(self, tmp_path, capsys, flag):
        for value in ("nan", "inf"):
            code = main(["synth", "--out-dir", str(tmp_path / "s"),
                         "--height", "12", "--width", "12", flag, value])
            assert code == 2
            assert "nonnegative" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

    def test_magnitude_beyond_float32_exit_1(self, tmp_path, capsys):
        # finite in float64, inf in the float32 payload: the anomalies are
        # planted in the second view
        out_dir = tmp_path / "s"
        code = main(["synth", "--out-dir", str(out_dir), "--height", "12",
                     "--width", "12", "--magnitude", "1e39"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{out_dir / 'view_2.hdr'}: a value exceeds the float32 " \
            "range" in err
        assert sorted(os.listdir(out_dir)) == ["view_1.hdr", "view_1.raw"]

    def test_infeasible_spec_exit_2(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path / "s"),
                     "--height", "2", "--width", "2", "--anomalies", "9"])
        capsys.readouterr()
        assert code == 2


class TestSweep:
    def test_grid_parsing(self):
        grid = parse_grid("lambda2=0.1,1,10;lambda3=1,10")
        assert grid == {"lambda2": [0.1, 1.0, 10.0], "lambda3": [1.0, 10.0]}
        assert parse_grid("sketch_size=50,100") == {"sketch_size": [50, 100]}
        grid = parse_grid("max_iter=5;repeats=2;seed=3;mu0=1")
        assert grid == {"max_iter": [5], "repeats": [2], "seed": [3],
                        "mu0": [1.0]}
        assert [type(v[0]) for v in grid.values()] == [int, int, int, float]

    def test_malformed_grid_exit_2(self, scene, tmp_path, monkeypatch,
                                   capsys):
        def detect(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(evaluate, "detect", detect)
        # malformed, a parameter without values, and no parameter at all
        for grid in ("nonsense", "lambda2=", ";"):
            code = main(["sweep", *scene["cubes"], "--mask", scene["mask"],
                         "--grid", grid, "--out", str(tmp_path / "o.csv")])
            capsys.readouterr()
            assert code == 2, grid
            assert not (tmp_path / "o.csv").exists()

    def test_invalid_later_value_exit_2_before_any_solve(
            self, scene, tmp_path, monkeypatch, capsys):
        def detect(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(evaluate, "detect", detect)
        out = tmp_path / "o.csv"
        code = main(["sweep", *scene["cubes"], "--mask", scene["mask"],
                     "--grid", "lambda2=1,10;max_iter=3000,0",
                     "--out", str(out)])
        assert code == 2
        assert "max_iter" in capsys.readouterr().err
        assert not out.exists()

    def test_mask_of_another_size_exit_1_before_any_solve(
            self, scene, tmp_path, monkeypatch, capsys):
        def detect(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(evaluate, "detect", detect)
        mask = str(tmp_path / "mask.pgm")
        save_mask(cube.GroundTruthMask(10, 9, np.zeros(90, np.uint8)), mask)
        out = tmp_path / "o.csv"
        code = main(["sweep", *scene["cubes"], "--mask", mask,
                     "--grid", "lambda2=1,10", "--out", str(out)])
        assert code == 1
        assert (f"smsl: {mask}: mask 10x9 does not match cubes 10x10"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_two_by_two_grid_rows(self, scene, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", *scene["cubes"], "--mask", scene["mask"],
                     "--grid", "lambda2=1,10;lambda3=1,10", "--out", out,
                     "--sketch-size", "12", "--sketch-repeats", "1",
                     "--max-iter", "10"])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "lambda2,lambda3,auc"
        assert len(lines) == 5


@pytest.mark.parametrize("command", ["detect", "baseline", "sweep"])
def test_cubes_of_different_shapes_exit_1(tmp_path, capsys, command):
    # an 8x8 and an 8x10 scene: bad input files, not a usage error
    rng = np.random.default_rng(8)
    cubes = [str(tmp_path / f"view_{i}.hdr") for i in (1, 2)]
    for path, width in zip(cubes, (8, 10)):
        save_cube(cube.HyperCube(4, 8, width,
                                 rng.random((4, 8, width))), path)
    mask = str(tmp_path / "mask.pgm")
    save_mask(cube.GroundTruthMask(8, 8, np.eye(8, dtype=np.uint8)), mask)
    out = str(tmp_path / "out.csv")
    argv = {"detect": ["detect", *cubes, "--out", out],
            "baseline": ["baseline", *cubes, "--method", "rx", "--out", out],
            "sweep": ["sweep", *cubes, "--mask", mask, "--grid",
                      "lambda2=1,10", "--out", out]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"smsl: {cubes[1]}: bands x height x width 4x8x10 differ from "
        f"4x8x8 of {cubes[0]}\n")
    assert not os.path.exists(out)


# each writing command: its argv, given the scene, a score map and an
# output stem, and the manifest that run writes
WRITING_RUNS = {
    "detect": lambda sc, s, o: (detect_args(sc, o + ".hdr"),
                                o + ".hdr.manifest.json"),
    "baseline": lambda sc, s, o: (
        ["baseline", *sc["cubes"], "--method", "rx", "--out", o + ".hdr"],
        o + ".hdr.manifest.json"),
    "eval": lambda sc, s, o: (
        ["eval", "--scores", s, "--mask", sc["mask"], "--roc-out",
         o + ".csv"], o + ".csv.manifest.json"),
    "synth": lambda sc, s, o: (
        ["synth", "--out-dir", o, "--height", "6", "--width", "5",
         "--bands", "4", "--anomalies", "2"],
        os.path.join(o, "manifest.json")),
    "sweep": lambda sc, s, o: (
        ["sweep", *sc["cubes"], "--mask", sc["mask"], "--grid", "lambda2=1,10",
         "--out", o + ".csv", "--sketch-size", "12", "--sketch-repeats", "1",
         "--max-iter", "3"], o + ".csv.manifest.json"),
}


@pytest.mark.parametrize("command", WRITING_RUNS)
def test_manifest_records_the_run(scene, tmp_path, monkeypatch, capsys,
                                  command):
    # every writing command is timed, records its environment and lists no
    # file argument among its parameters
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    scores = str(tmp_path / "scores.hdr")
    cube.save_scores(cube.DetectionMap(10, 10, np.linspace(0, 1, 100)),
                     scores)
    argv, manifest_path = WRITING_RUNS[command](scene, scores,
                                                str(tmp_path / "o"))
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["command"] == command
    assert manifest["wall_time_s"] > 0
    assert not set(manifest["params"]) & {
        "cubes", "scores", "mask", "out", "trace", "roc_out", "out_dir"}
    env = manifest["env"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {
        "smsl": smsl.__version__, "numpy": np.__version__,
        "python": sys.version.split()[0],
        "thread_vars": {v: os.environ.get(v) for v in cli._THREAD_VARS},
        "blas": {k: blas[k] for k in ("name", "version")},
        "cpus": env["cpus"]}
    assert env["thread_vars"]["MKL_NUM_THREADS"] == "1"
    assert 1 <= env["cpus"] <= (os.cpu_count() or 1)


def test_readme_cli_commands_parse():
    # every command of the README's CLI block, continuations joined, is
    # accepted by the parser: a removed or renamed flag fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"\n## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("smsl ")]
    assert [argv[0] for argv in commands] == [
        "synth", "detect", "baseline", "eval", "sweep", "rerun"]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_library_imports_exist():
    # every name the README's library example imports is exported, and
    # every export resolves: a removal that leaves either stale fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"from smsl import \((.*?)\)", readme, re.S).group(1)
    names = [n.strip() for n in block.split(",") if n.strip()]
    assert names
    assert not set(names) - set(smsl.__all__)
    for name in smsl.__all__:
        getattr(smsl, name)


def test_import_needs_no_scipy():
    # the package depends on numpy alone (pyproject.toml, README): no module
    # of it may import scipy, even where scipy is installed
    src = str(Path(smsl.__file__).parents[1])
    code = ("import pkgutil, importlib, sys, smsl\n"
            "for m in pkgutil.iter_modules(smsl.__path__):\n"
            "    importlib.import_module('smsl.' + m.name)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == "
            "'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
