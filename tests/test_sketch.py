import numpy as np
import pytest

from smsl import sketch
from smsl.cube import HyperCube, ViewSet
from smsl.sketch import (SketchConfig, build_dictionaries, build_dictionary,
                         repeat_seed)


def jlt_matrix(n, n_h, seed):
    """The whole n x n_h projection R with i.i.d. N(0, 1/n_h) entries that
    the sketch streams for a repeat of this seed: the oracle for its
    products."""
    return np.random.default_rng(seed).standard_normal((n, n_h)) / np.sqrt(n_h)


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
    singles = build_dictionaries(vs, cfg)
    assert len(singles) == 2
    # X mean_j(R_j) equals the mean of the X R_j up to rounding
    assert np.allclose(h, (singles[0] + singles[1]) / 2,
                       atol=0, rtol=1e-12)


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
    """X R_j for every repeat, one full jlt_matrix draw each."""
    stacked = np.hstack(vs.matrices())
    return [stacked @ jlt_matrix(stacked.shape[1], cfg.n_h,
                                 repeat_seed(cfg.seed, j))
            for j in range(cfg.repeats)]


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _small_blocks(monkeypatch, block, panel):
    monkeypatch.setattr(sketch, "_BLOCK_ENTRIES", block)
    monkeypatch.setattr(sketch, "_PANEL_ENTRIES", panel)


class TestStreamedBuild:
    @pytest.mark.parametrize("repeats", [1, 3, 10])
    @pytest.mark.parametrize("panel", [1 << 24, 60])
    def test_matches_per_repeat_builder(self, monkeypatch, repeats, panel):
        # S*N = 30 rows of R in blocks of 4 rows (the last has 2); a 60-entry
        # panel holds 12 averaged rows (3 panels, the last ragged) or one
        # block of per-repeat rows
        _small_blocks(monkeypatch, 20, panel)
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
        # S*N = 1100 takes 5 blocks (the last of 76 rows) in one panel; each
        # repeat's panel is then exactly its jlt_matrix
        rng = np.random.default_rng(13)
        cubes = tuple(HyperCube(2, 22, 25, rng.standard_normal(1100))
                      for _ in range(2))
        vs = ViewSet(cubes)
        cfg = SketchConfig(n_h=1024, seed=5, repeats=3,
                           average_mode="scores")
        for d, h in zip(build_dictionaries(vs, cfg), _old_products(vs, cfg)):
            assert np.array_equal(d, h)

    @pytest.mark.parametrize("average", [True, False])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, average):
        _small_blocks(monkeypatch, 20, 60)
        vs = _views(np.random.default_rng(14))
        cfg = SketchConfig(n_h=5, seed=2, repeats=4,
                           average_mode="dictionary" if average else "scores")
        results = []
        for workers in (1, 2, cfg.repeats):
            monkeypatch.setattr(sketch, "_draw_workers", lambda r, w=workers: w)
            results.append(sketch._sketch(vs, cfg, average))
        assert all(np.array_equal(r, results[0]) for r in results[1:])

    def test_draw_workers_bounded_by_repeats(self):
        assert sketch._draw_workers(1) == 1
        assert 1 <= sketch._draw_workers(64) <= 64
