import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from smsl import sketch
from smsl.cube import HyperCube, ViewSet
from smsl.evaluate import SynthSpec, synth_scene
from smsl.sketch import (SketchConfig, build_dictionaries, build_dictionary,
                         repeat_seed)


def normals(n, n_h, seed):
    """The n x n_h standard normals a repeat of this seed draws."""
    return np.random.default_rng(seed).standard_normal((n, n_h))


def jlt_matrix(n, n_h, seed):
    """The whole n x n_h projection R with i.i.d. N(0, 1/n_h) entries that
    the sketch streams for a repeat of this seed: the oracle for its
    products."""
    return normals(n, n_h, seed) / np.sqrt(n_h)


def _views(rng, bands=4, height=3, width=5, n=2):
    cubes = tuple(
        HyperCube(bands, height, width,
                  rng.standard_normal(bands * height * width))
        for _ in range(n)
    )
    return ViewSet(cubes)


def test_jlt_deterministic():
    a = jlt_matrix(30, 7, seed=123)
    b = jlt_matrix(30, 7, seed=123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, jlt_matrix(30, 7, seed=124))


def test_jlt_entry_statistics():
    r = jlt_matrix(10000, 100, seed=5)
    assert abs(r.mean()) < 0.01
    assert abs(r.var() - 1 / 100) < 0.1 / 100


def test_jlt_norm_preservation():
    rng = np.random.default_rng(9)
    r = jlt_matrix(300, 200, seed=11)
    xs = rng.standard_normal((300, 1000))
    xs /= np.linalg.norm(xs, axis=0)
    norms_sq = np.linalg.norm(r.T @ xs, axis=0) ** 2
    assert abs(norms_sq.mean() - 1.0) < 0.05


def test_build_dictionary_zero_views():
    z = HyperCube(3, 2, 2, np.zeros(12))
    h = build_dictionary(ViewSet((z, z)), SketchConfig(n_h=4, seed=0, repeats=1))
    assert np.array_equal(h, np.zeros((3, 4)))


def test_build_dictionary_matches_recomputation():
    rng = np.random.default_rng(2)
    vs = _views(rng)
    cfg = SketchConfig(n_h=6, seed=77, repeats=1)
    h = build_dictionary(vs, cfg)
    stacked = np.hstack(vs.matrices())
    expected = stacked @ jlt_matrix(stacked.shape[1], 6, seed=77)
    assert np.array_equal(h, expected)
    assert h.shape == (vs.bands, 6)


def test_dictionary_averaging_is_elementwise_mean():
    rng = np.random.default_rng(4)
    vs = _views(rng)
    cfg = SketchConfig(n_h=5, seed=3, repeats=2, average_mode="dictionary")
    h = build_dictionary(vs, cfg)
    singles = build_dictionaries(vs, replace(cfg, average_mode="scores"))
    assert len(singles) == 2
    # X mean_j(R_j) equals the mean of the X R_j up to rounding
    assert np.allclose(h, (singles[0] + singles[1]) / 2,
                       atol=0, rtol=1e-12)


def test_build_dictionaries_follow_the_average_mode():
    # a dictionary-mode detect solves with the one averaged dictionary; a
    # scores-mode config has no averaged dictionary to build
    vs = _views(np.random.default_rng(4))
    cfg = SketchConfig(n_h=5, seed=3, repeats=2, average_mode="dictionary")
    [h] = build_dictionaries(vs, cfg)
    assert np.array_equal(h, build_dictionary(vs, cfg))
    with pytest.raises(ValueError, match="average_mode is 'scores'"):
        build_dictionary(vs, replace(cfg, average_mode="scores"))


def test_repeat_seed_zero_is_identity():
    assert repeat_seed(42, 0) == 42
    seeds = {repeat_seed(42, j) for j in range(10)}
    assert len(seeds) == 10


def test_determinism_full_config():
    rng = np.random.default_rng(6)
    vs = _views(rng)
    cfg = SketchConfig(n_h=4, seed=1, repeats=3)
    assert np.array_equal(build_dictionary(vs, cfg),
                          build_dictionary(vs, cfg))


def test_n_h_exceeding_samples_rejected():
    rng = np.random.default_rng(7)
    vs = _views(rng, height=2, width=2)  # S*N = 8
    with pytest.raises(ValueError):
        build_dictionary(vs, SketchConfig(n_h=9, seed=0, repeats=1))


def test_averaged_dictionary_variance_shrinks():
    # averaging k independent draws shrinks entry variance by ~1/k
    z = HyperCube(1, 20, 50, np.ones(1000))
    vs = ViewSet((z, z))
    single = build_dictionary(vs, SketchConfig(n_h=2000, seed=0, repeats=1))
    avg = build_dictionary(vs, SketchConfig(n_h=2000, seed=0, repeats=4))
    ratio = avg.var() / single.var()
    assert 0.15 < ratio < 0.35


def _old_products(vs, cfg):
    """X R_j for every repeat, one full jlt_matrix draw each, on one BLAS
    thread as the sketch's own product."""
    stacked = np.hstack(vs.matrices())
    with sketch._one_blas_thread():
        return [stacked @ jlt_matrix(stacked.shape[1], cfg.n_h,
                                     repeat_seed(cfg.seed, j))
                for j in range(cfg.repeats)]


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _small_blocks(monkeypatch, block):
    monkeypatch.setattr(sketch, "_BLOCK_ENTRIES", block)


class TestStreamedBuild:
    @pytest.mark.parametrize("repeats", [1, 3, 10])
    def test_matches_per_repeat_builder(self, monkeypatch, repeats):
        # S*N = 30 rows of R in blocks of 4 rows (the last has 2)
        _small_blocks(monkeypatch, 20)
        vs = _views(np.random.default_rng(12))
        cfg = SketchConfig(n_h=5, seed=8, repeats=repeats)
        old = _old_products(vs, cfg)
        avg = build_dictionary(vs, cfg)
        assert _max_rel(avg, np.mean(old, axis=0)) < 1e-12
        singles = build_dictionaries(
            vs, SketchConfig(n_h=5, seed=8, repeats=repeats,
                             average_mode="scores"))
        assert len(singles) == repeats
        for d, h in zip(singles, old):
            assert _max_rel(d, h) < 1e-12

    def test_blocks_consume_the_stream_of_one_draw(self):
        # n_h = 1024 gives 256-row blocks at the real block size, so
        # S*N = 1100 takes 5 blocks (the last of 76 rows); each repeat's
        # blocks are then exactly the row blocks of its jlt_matrix, and its
        # dictionary the sum of their products in block order
        rng = np.random.default_rng(13)
        cubes = tuple(HyperCube(2, 22, 25, rng.standard_normal(1100))
                      for _ in range(2))
        vs = ViewSet(cubes)
        cfg = SketchConfig(n_h=1024, seed=5, repeats=3,
                           average_mode="scores")
        stacked = np.hstack(vs.matrices())
        for j, d in enumerate(build_dictionaries(vs, cfg)):
            r = jlt_matrix(1100, 1024, repeat_seed(cfg.seed, j))
            h = np.zeros((2, 1024))
            with sketch._one_blas_thread():
                for b0 in range(0, 1100, 256):
                    h += stacked[:, b0:b0 + 256] @ r[b0:b0 + 256]
            assert np.array_equal(d, h)

    @pytest.mark.parametrize("average", [True, False])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, average):
        _small_blocks(monkeypatch, 20)
        vs = _views(np.random.default_rng(14))
        cfg = SketchConfig(n_h=5, seed=2, repeats=4,
                           average_mode="dictionary" if average else "scores")
        results = []
        for workers in (1, 2, cfg.repeats):
            monkeypatch.setattr(sketch, "_draw_workers", lambda r, w=workers: w)
            results.append(build_dictionaries(vs, cfg))
        assert all(np.array_equal(r, results[0]) for r in results[1:])

    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_averaged_dictionary_matches_its_oracle(self, repeats):
        # the real block size: n_h = 1000 gives 262-row blocks, so
        # S*N = 1100 takes 5 blocks, the last of 52 rows. Each block of
        # mean_j R_j is its repeats' normals summed in repeat order, divided
        # by sqrt(n_h) and then by R, and the dictionary the sum of the
        # blocks' products in block order; at R = 1 no sum is carried
        rng = np.random.default_rng(16)
        vs = ViewSet(tuple(HyperCube(3, 22, 25, rng.standard_normal(1650))
                           for _ in range(2)))
        cfg = SketchConfig(n_h=1000, seed=9, repeats=repeats)
        draws = [normals(1100, 1000, repeat_seed(cfg.seed, j))
                 for j in range(cfg.repeats)]
        h = np.zeros((3, 1000))
        with sketch._one_blas_thread():
            for b0 in range(0, 1100, 262):
                blk = draws[0][b0:b0 + 262].copy()
                for r in draws[1:]:
                    blk += r[b0:b0 + 262]
                blk /= np.sqrt(1000)
                blk /= cfg.repeats
                h += vs.stacked[:, b0:b0 + 262] @ blk
        assert np.array_equal(build_dictionary(vs, cfg), h)

    @pytest.mark.parametrize("average", [True, False])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_each_repeat_draws_its_blocks_in_order_one_at_a_time(
            self, monkeypatch, average, workers):
        # S*N = 30 rows in blocks of 4 (the last of 2), R = 4: each
        # repeat's generator is wrapped to log its draws, and repeat 0's
        # draws sleep longest, so that the other threads run ahead into
        # its next block if it were submitted before this one is read
        _small_blocks(monkeypatch, 20)
        vs = _views(np.random.default_rng(17))
        cfg = SketchConfig(n_h=5, seed=4, repeats=4,
                           average_mode="dictionary" if average else "scores")
        expected = build_dictionaries(vs, cfg)
        repeat_of = {repeat_seed(cfg.seed, j): j for j in range(cfg.repeats)}
        rows = [[] for _ in range(cfg.repeats)]
        running = [0] * cfg.repeats
        overlaps = []
        lock = threading.Lock()
        default_rng = np.random.default_rng

        class Logged:
            def __init__(self, seed):
                self.j, self.rng = repeat_of[seed], default_rng(seed)

            def standard_normal(self, out):
                with lock:
                    running[self.j] += 1
                    if running[self.j] > 1:
                        overlaps.append(self.j)
                time.sleep(3e-3 if self.j == 0 else 2e-4)
                self.rng.standard_normal(out=out)
                rows[self.j].append(len(out))
                with lock:
                    running[self.j] -= 1

        monkeypatch.setattr(np.random, "default_rng", Logged)
        monkeypatch.setattr(sketch, "_draw_workers", lambda r: workers)
        assert np.array_equal(build_dictionaries(vs, cfg), expected)
        assert overlaps == []
        assert rows == [[4] * 7 + [2]] * cfg.repeats

    def test_a_failing_draw_raises_and_leaves_no_thread(self, monkeypatch):
        _small_blocks(monkeypatch, 20)
        vs = _views(np.random.default_rng(18))
        cfg = SketchConfig(n_h=5, seed=6, repeats=3)
        failing = repeat_seed(cfg.seed, 1)
        default_rng = np.random.default_rng

        class Failing:
            def __init__(self, seed):
                self.seed, self.rng, self.draws = seed, default_rng(seed), 0

            def standard_normal(self, out):
                self.draws += 1
                if self.seed == failing and self.draws == 3:
                    raise RuntimeError("draw failed")
                self.rng.standard_normal(out=out)

        monkeypatch.setattr(np.random, "default_rng", Failing)
        monkeypatch.setattr(sketch, "_draw_workers", lambda r: 2)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="draw failed"):
            build_dictionary(vs, cfg)
        assert set(threading.enumerate()) <= before

    def test_bit_identical_for_any_blas_thread_count(self):
        # the default synth scene's 16 x 500 dictionary, whose product's
        # bits moved with numpy's BLAS thread count before it was held
        handle = sketch._blas_threads()
        if handle is None:
            pytest.skip("numpy's BLAS thread count cannot be set")
        views, _ = synth_scene(SynthSpec())
        results = []
        for count in (1, 2):
            handle.set(count)
            results.append(build_dictionary(views, SketchConfig()))
            assert handle.get() == count
        assert np.array_equal(*results)

    def test_build_holds_nothing_the_size_of_the_scene(self):
        # 16 bands by 2 x 50,000 float32 pixels: the build allocates R row
        # blocks of 2 MB, their products and the dictionary, not a panel of
        # R's rows nor a float64 copy of X
        rng = np.random.default_rng(15)
        cubes = tuple(
            HyperCube(16, 250, 200,
                      rng.standard_normal(16 * 50_000, dtype=np.float32))
            for _ in range(2))
        vs = ViewSet(cubes)
        scene_bytes = vs.stacked.nbytes
        cfg = SketchConfig(n_h=64, seed=0, repeats=2)
        tracemalloc.start()
        try:
            build_dictionary(vs, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vs.stacked.shape == (16, 100_000)
        assert peak < scene_bytes

    def test_draw_workers_bounded_by_repeats(self):
        assert sketch._draw_workers(1) == 1
        assert 1 <= sketch._draw_workers(64) <= 64
