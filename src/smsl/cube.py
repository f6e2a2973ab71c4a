"""Hyperspectral cube, mask and score-map containers plus their on-disk formats.

Cubes and score maps are stored as a small text header next to a raw
little-endian float32 payload in band-sequential (BSQ) layout with row-major
pixel order. Masks are binary PGM (P5, maxval 255, only 0/255 allowed).
A loaded cube keeps its payload as float32, as stored; a cube built from
data of any other dtype, and every score map, is float64 in memory. A
ViewSet holds its views once, as column slices of one buffer.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field

import numpy as np

CUBE_MAGIC = "smsl-cube"
SCORES_MAGIC = "smsl-scores"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed or inconsistent on-disk data."""


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        idx = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        raise FormatError(f"{what} contains non-finite value at flat index {idx}")


@dataclass(frozen=True)
class HyperCube:
    """One acquisition: ``bands x height x width`` array, BSQ order. float32
    data stays float32 (a loaded cube's payload, as stored); data of any
    other dtype is widened to float64."""

    bands: int
    height: int
    width: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.bands < 1 or self.height < 1 or self.width < 1:
            raise ValueError("cube dimensions must be positive")
        data = np.asarray(self.data)
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        if data.size != self.bands * self.height * self.width:
            raise ValueError(
                f"data length {data.size} != bands*height*width "
                f"{self.bands * self.height * self.width}"
            )
        _check_finite(data, "cube data")
        object.__setattr__(
            self, "data", data.reshape(self.bands, self.height, self.width)
        )

    @property
    def n_pixels(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class ViewSet:
    """Ordered co-registered acquisitions of one scene (the multi-view input).

    The views are copied once into ``stacked``, one L x (S*N) array of their
    common dtype with view s in columns s*N to (s+1)*N, and ``views`` holds
    cubes whose data are those column slices: the set holds the scene once,
    and the input cubes are not referenced.
    """

    views: tuple
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        views = tuple(self.views)
        if len(views) < 2:
            raise ValueError("a ViewSet needs at least 2 views")
        ref = views[0]
        for v in views[1:]:
            if (v.bands, v.height, v.width) != (ref.bands, ref.height, ref.width):
                raise ValueError("all views must share bands/height/width")
        n = ref.n_pixels
        stacked = np.empty((ref.bands, len(views) * n),
                           dtype=np.result_type(*(v.data for v in views)))
        # copies of the views take their slices without running
        # HyperCube.__post_init__ again: the values passed it already
        views = tuple(map(copy.copy, views))
        for s, v in enumerate(views):
            stacked[:, s * n:(s + 1) * n] = flatten(v)
            object.__setattr__(v, "data", stacked[:, s * n:(s + 1) * n]
                               .reshape(v.data.shape))
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "views", views)

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def bands(self) -> int:
        return self.views[0].bands

    @property
    def height(self) -> int:
        return self.views[0].height

    @property
    def width(self) -> int:
        return self.views[0].width

    @property
    def n_pixels(self) -> int:
        return self.views[0].n_pixels

    def matrices(self) -> list:
        return [flatten(v) for v in self.views]


@dataclass(frozen=True)
class GroundTruthMask:
    """Per-pixel binary change labels (1 = anomalous change)."""

    height: int
    width: int
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.uint8).reshape(
            self.height, self.width
        )
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("mask labels must be 0 or 1")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class DetectionMap:
    """Per-pixel nonnegative anomalous-change scores on the scene grid."""

    height: int
    width: int
    scores: np.ndarray = field(repr=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64).reshape(
            self.height, self.width
        )
        _check_finite(scores, "scores")
        if (scores < 0).any():
            raise ValueError("scores must be nonnegative")
        object.__setattr__(self, "scores", scores)


def flatten(cube: HyperCube) -> np.ndarray:
    """Cube -> L x N matrix; column i is the spectrum of pixel i (row-major)."""
    return cube.data.reshape(cube.bands, cube.n_pixels)


def unflatten(matrix: np.ndarray, height: int, width: int) -> HyperCube:
    """Inverse of :func:`flatten`."""
    matrix = np.asarray(matrix)
    return HyperCube(matrix.shape[0], height, width, matrix.reshape(-1))


# ---------------------------------------------------------------------------
# header + raw payload I/O


def _save(header_path: str, magic: str, bands: int, height: int, width: int,
          data: np.ndarray) -> None:
    """Write a header and the raw f32 payload it names, <stem>.raw."""
    base = os.path.basename(header_path)
    name = (base.rsplit(".", 1)[0] if "." in base else base) + ".raw"
    lines = [f"magic={magic}", f"version={FORMAT_VERSION}", f"bands={bands}",
             f"height={height}", f"width={width}", "dtype=f32", "layout=bsq",
             "byte_order=little", f"payload={name}"]
    with open(header_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(os.path.dirname(header_path), name), "wb") as fh:
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def _read_header(path: str, expected_magic: str) -> dict:
    fields = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}: malformed header line {line!r}")
                key, value = line.split("=", 1)
                fields[key] = value
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: header is not ASCII text") from exc
    if fields.get("magic") != expected_magic:
        raise FormatError(
            f"{path}: expected magic {expected_magic!r}, got {fields.get('magic')!r}"
        )
    if fields.get("version") != str(FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported version {fields.get('version')!r}")
    for key in ("bands", "height", "width", "payload"):
        if key not in fields:
            raise FormatError(f"{path}: header missing field {key!r}")
    if fields.get("dtype") != "f32" or fields.get("layout") != "bsq" \
            or fields.get("byte_order") != "little":
        raise FormatError(f"{path}: unsupported dtype/layout/byte_order")
    try:
        for key in ("bands", "height", "width"):
            fields[key] = int(fields[key])
            if fields[key] < 1:
                raise ValueError
    except ValueError:
        raise FormatError(f"{path}: non-positive or non-integer dimension") from None
    return fields


def _payload_path(header_path: str, fields: dict) -> str:
    return os.path.join(os.path.dirname(header_path), fields["payload"])


def _read_payload(header_path: str, fields: dict, container, *dims):
    """``container(*dims, data)`` of the payload a header names; a ValueError
    of the container (a non-finite value, say) is a FormatError naming it."""
    payload_path = _payload_path(header_path, fields)
    n = fields["bands"] * fields["height"] * fields["width"]
    try:
        fh = open(payload_path, "rb")
    except OSError as exc:
        raise FormatError(f"missing payload {payload_path}: {exc}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 4 * n:
            raise FormatError(
                f"{payload_path}: payload is {size} bytes, expected {4 * n}"
            )
        data = np.fromfile(fh, dtype="<f4", count=n)
    try:
        return container(*dims, data)
    except ValueError as exc:
        raise FormatError(f"payload {payload_path}: {exc}") from exc


def input_files(path: str) -> list:
    """The files that loading `path` reads: a cube or score-map header and
    the payload it names, or a mask on its own."""
    for magic in (CUBE_MAGIC, SCORES_MAGIC):
        try:
            fields = _read_header(path, magic)
        except FormatError:
            continue
        return [path, _payload_path(path, fields)]
    return [path]


def load_cube(header_path: str) -> HyperCube:
    """Read a cube (header + raw f32 BSQ payload) from disk; its data stay
    float32."""
    fields = _read_header(header_path, CUBE_MAGIC)
    return _read_payload(header_path, fields, HyperCube, fields["bands"],
                         fields["height"], fields["width"])


def save_cube(cube: HyperCube, header_path: str) -> None:
    """Write a cube so that :func:`load_cube` inverts it at f32 precision."""
    _save(header_path, CUBE_MAGIC, cube.bands, cube.height, cube.width,
          cube.data)


def load_scores(header_path: str) -> DetectionMap:
    """Read a score map (same header convention as cubes, bands=1)."""
    fields = _read_header(header_path, SCORES_MAGIC)
    if fields["bands"] != 1:
        raise FormatError(f"{header_path}: score maps must have bands=1")
    return _read_payload(header_path, fields, DetectionMap, fields["height"],
                         fields["width"])


def save_scores(scores: DetectionMap, header_path: str) -> None:
    _save(header_path, SCORES_MAGIC, 1, scores.height, scores.width,
          scores.scores)


def load_mask(path: str) -> GroundTruthMask:
    """Read a binary PGM (P5) change mask; 0 -> background, 255 -> change."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = []
    i = 0
    # P5 header: magic, width, height, maxval; '#' starts a comment
    while len(tokens) < 4 and i < len(raw):
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        if i < len(raw) and raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(raw) and not raw[i : i + 1].isspace():
            i += 1
        if i > start:
            tokens.append(raw[start:i])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError(f"{path}: malformed PGM header") from None
    if maxval != 255:
        raise FormatError(f"{path}: PGM maxval must be 255, got {maxval}")
    i += 1  # single whitespace byte after maxval
    pixels = np.frombuffer(raw[i : i + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise FormatError(f"{path}: truncated PGM payload")
    bad = ~np.isin(pixels, (0, 255))
    if bad.any():
        raise FormatError(
            f"{path}: mask value {int(pixels[bad][0])} is not 0 or 255"
        )
    return GroundTruthMask(height, width, (pixels == 255).astype(np.uint8))


def save_mask(mask: GroundTruthMask, path: str) -> None:
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write((mask.labels.reshape(-1) * np.uint8(255)).tobytes())

