import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smsl import cube
from smsl.cube import (DetectionMap, FormatError, GroundTruthMask, HyperCube,
                       ViewSet, flatten, load_cube, load_mask, load_scores,
                       save_cube, save_mask, save_scores, unflatten)


def test_load_cube_band_major_layout(tmp_path):
    payload = np.array([1, 2, 3, 4], dtype="<f4").tobytes()
    (tmp_path / "c.raw").write_bytes(payload)
    (tmp_path / "c.hdr").write_text(
        "magic=smsl-cube\nversion=1\nbands=2\nheight=1\nwidth=2\n"
        "dtype=f32\nlayout=bsq\nbyte_order=little\npayload=c.raw\n"
    )
    c = load_cube(str(tmp_path / "c.hdr"))
    assert np.array_equal(flatten(c), [[1, 2], [3, 4]])


def test_load_cube_truncated_payload(tmp_path):
    (tmp_path / "c.raw").write_bytes(b"\x00" * 15)
    (tmp_path / "c.hdr").write_text(
        "magic=smsl-cube\nversion=1\nbands=2\nheight=1\nwidth=2\n"
        "dtype=f32\nlayout=bsq\nbyte_order=little\npayload=c.raw\n"
    )
    with pytest.raises(FormatError, match="15 bytes"):
        load_cube(str(tmp_path / "c.hdr"))


def test_load_cube_overlong_payload(tmp_path):
    payload = np.array([1, 2, 3, 4, 5], dtype="<f4").tobytes()
    (tmp_path / "c.raw").write_bytes(payload)
    (tmp_path / "c.hdr").write_text(
        "magic=smsl-cube\nversion=1\nbands=2\nheight=1\nwidth=2\n"
        "dtype=f32\nlayout=bsq\nbyte_order=little\npayload=c.raw\n"
    )
    with pytest.raises(FormatError, match="payload is 20 bytes, expected 16"):
        load_cube(str(tmp_path / "c.hdr"))


def test_load_cube_rejects_non_finite(tmp_path):
    payload = np.array([1.0, np.nan], dtype="<f4").tobytes()
    (tmp_path / "c.raw").write_bytes(payload)
    (tmp_path / "c.hdr").write_text(
        "magic=smsl-cube\nversion=1\nbands=1\nheight=1\nwidth=2\n"
        "dtype=f32\nlayout=bsq\nbyte_order=little\npayload=c.raw\n"
    )
    with pytest.raises(FormatError, match="index 1") as caught:
        load_cube(str(tmp_path / "c.hdr"))
    assert str(tmp_path / "c.raw") in str(caught.value)


def test_hypercube_rejects_non_finite_in_memory():
    for bad in (np.nan, np.inf):
        with pytest.raises(FormatError, match="index 2"):
            HyperCube(1, 2, 2, np.array([0.0, 1.0, bad, 3.0]))


def test_loaded_views_are_scanned_once(tmp_path, monkeypatch):
    # the type scans a view for non-finite values; neither reading the
    # payload nor stacking the view into a ViewSet scans it again
    paths = []
    for s in range(2):
        paths.append(str(tmp_path / f"view_{s}.hdr"))
        save_cube(HyperCube(3, 4, 5, np.arange(60.0) + s), paths[-1])
    scanned = []
    check = cube._check_finite
    monkeypatch.setattr(cube, "_check_finite",
                        lambda arr, what: scanned.append(arr.size)
                        or check(arr, what))
    ViewSet(tuple(load_cube(p) for p in paths))
    assert scanned == [60, 60]


def test_load_cube_bad_magic(tmp_path):
    (tmp_path / "c.hdr").write_text("magic=nope\nversion=1\n")
    with pytest.raises(FormatError, match="magic"):
        load_cube(str(tmp_path / "c.hdr"))


def test_cube_round_trip_random(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal(3 * 4 * 5)
    c = HyperCube(3, 4, 5, data)
    save_cube(c, str(tmp_path / "c.hdr"))
    back = load_cube(str(tmp_path / "c.hdr"))
    assert np.array_equal(back.data, data.astype(np.float32).astype(np.float64)
                          .reshape(3, 4, 5))


def test_cube_round_trip_zero(tmp_path):
    c = HyperCube(2, 2, 2, np.zeros(8))
    save_cube(c, str(tmp_path / "z.hdr"))
    assert np.array_equal(load_cube(str(tmp_path / "z.hdr")).data, c.data)


def test_save_cube_unwritable():
    c = HyperCube(1, 1, 1, [0.0])
    with pytest.raises(OSError):
        save_cube(c, "/nonexistent-dir/x.hdr")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_round_trip_exact_at_f32(tmp_path_factory, bands, h, w, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(bands * h * w).astype(np.float32)
    c = HyperCube(bands, h, w, data.astype(np.float64))
    path = str(tmp_path_factory.mktemp("rt") / "c.hdr")
    save_cube(c, path)
    assert np.array_equal(load_cube(path).data, c.data)


def test_flatten_single_band():
    c = HyperCube(1, 2, 2, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(flatten(c), [[1, 2, 3, 4]])


def test_flatten_single_pixel():
    c = HyperCube(2, 1, 1, [5.0, 6.0])
    assert np.array_equal(flatten(c), [[5], [6]])


def test_flatten_unflatten_identity():
    rng = np.random.default_rng(0)
    c = HyperCube(3, 4, 5, rng.standard_normal(60))
    assert np.array_equal(unflatten(flatten(c), 4, 5).data, c.data)


def test_viewset_requires_matching_shapes():
    a = HyperCube(2, 2, 2, np.zeros(8))
    b = HyperCube(2, 2, 3, np.zeros(12))
    with pytest.raises(ValueError):
        ViewSet((a, b))
    with pytest.raises(ValueError):
        ViewSet((a,))


def test_viewset_matrices_shapes():
    a = HyperCube(2, 2, 2, np.arange(8, dtype=float))
    vs = ViewSet((a, a, a))
    mats = vs.matrices()
    assert len(mats) == 3 and all(m.shape == (2, 4) for m in mats)


def test_mask_round_trip(tmp_path):
    labels = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    save_mask(GroundTruthMask(2, 2, labels), str(tmp_path / "m.pgm"))
    back = load_mask(str(tmp_path / "m.pgm"))
    assert np.array_equal(back.labels, labels)


def test_mask_rejects_intermediate_values(tmp_path):
    (tmp_path / "m.pgm").write_bytes(b"P5\n2 1\n255\n" + bytes([0, 7]))
    with pytest.raises(FormatError, match="7"):
        load_mask(str(tmp_path / "m.pgm"))


def test_mask_bad_magic(tmp_path):
    (tmp_path / "m.pgm").write_bytes(b"P2\n2 1\n255\n" + bytes([0, 1]))
    with pytest.raises(FormatError):
        load_mask(str(tmp_path / "m.pgm"))


def test_scores_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    scores = rng.random((3, 4)).astype(np.float32).astype(np.float64)
    save_scores(DetectionMap(3, 4, scores), str(tmp_path / "s.hdr"))
    back = load_scores(str(tmp_path / "s.hdr"))
    assert np.array_equal(back.scores, scores)


def test_detection_map_rejects_negative():
    with pytest.raises(ValueError):
        DetectionMap(1, 2, np.array([1.0, -0.5]))


def test_hypercube_keeps_float32_and_widens_other_dtypes():
    f32 = np.arange(8, dtype=np.float32)
    assert HyperCube(2, 2, 2, f32).data.dtype == np.float32
    for data in (np.arange(8), np.arange(8, dtype=np.uint8),
                 np.arange(8, dtype=np.float16), list(range(8))):
        c = HyperCube(2, 2, 2, data)
        assert c.data.dtype == np.float64
        assert np.array_equal(c.data.reshape(-1), np.arange(8))


def test_load_cube_keeps_the_payload_as_float32(tmp_path):
    data = np.random.default_rng(5).standard_normal(24).astype(np.float32)
    save_cube(HyperCube(2, 3, 4, data), str(tmp_path / "c.hdr"))
    back = load_cube(str(tmp_path / "c.hdr"))
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data.reshape(-1), data)


def test_viewset_holds_the_scene_once(tmp_path):
    # loaded views are copied once into one float32 L x (S*N) buffer, and
    # nothing else of the scene stays allocated
    bands, height, width, n_views = 32, 64, 64, 2
    rng = np.random.default_rng(8)
    paths = []
    for s in range(n_views):
        paths.append(str(tmp_path / f"view_{s}.hdr"))
        save_cube(HyperCube(bands, height, width,
                            rng.random(bands * height * width)), paths[-1])
    scene_bytes = bands * n_views * height * width * 4
    tracemalloc.start()
    try:
        views = ViewSet(tuple(load_cube(p) for p in paths))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= scene_bytes + scene_bytes // 8
    assert views.stacked.dtype == np.float32
    assert views.stacked.shape == (bands, n_views * height * width)
    for s, (m, v) in enumerate(zip(views.matrices(), views.views)):
        assert np.shares_memory(m, views.stacked)
        assert np.array_equal(m, load_cube(paths[s]).data.reshape(bands, -1))
        assert v.data.dtype == np.float32


def test_viewset_stacks_in_the_views_common_dtype():
    a = HyperCube(2, 2, 2, np.arange(8, dtype=np.float32))
    b = HyperCube(2, 2, 2, np.arange(8, 16, dtype=np.float64))
    vs = ViewSet((a, b))
    assert vs.stacked.dtype == np.float64
    assert np.array_equal(vs.stacked, np.arange(16).reshape(2, 2, 4)
                          .transpose(1, 0, 2).reshape(2, 8))
    assert [v.data.dtype for v in vs.views] == [np.float64] * 2
