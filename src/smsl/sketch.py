"""Random-projection dictionary built from the concatenated views.

The dictionary is ``H = [X^1, ..., X^S] R`` where R has i.i.d. N(0, 1/n_h)
entries. Sampling uses numpy's PCG64 generator (ziggurat standard normals),
so equal seeds reproduce equal matrices on any platform; tests check
statistics rather than bit streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cube import ViewSet

AVERAGE_MODES = ("dictionary", "scores")

# salt sequence for per-repeat seeds: seed XOR (j * odd 64-bit constant)
_REPEAT_SALT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SketchConfig:
    n_h: int = 500
    seed: int = 0
    repeats: int = 10
    average_mode: str = "dictionary"

    def __post_init__(self):
        if self.n_h < 1:
            raise ValueError("n_h must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.average_mode not in AVERAGE_MODES:
            raise ValueError(f"average_mode must be one of {AVERAGE_MODES}")


@dataclass(frozen=True)
class SketchedDictionary:
    h: np.ndarray = field(repr=False)
    config: SketchConfig = SketchConfig()

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        if h.ndim != 2:
            raise ValueError("dictionary must be a 2-D matrix")
        if not np.all(np.isfinite(h)):
            raise ValueError("dictionary contains non-finite entries")
        object.__setattr__(self, "h", h)


def repeat_seed(seed: int, j: int) -> int:
    """Derived seed for repeat j; j=0 maps to the base seed itself."""
    return (seed ^ ((j * _REPEAT_SALT) & _MASK64)) & _MASK64


def jlt_matrix(n: int, n_h: int, seed: int) -> np.ndarray:
    """n x n_h matrix with i.i.d. N(0, 1/n_h) entries, deterministic per seed."""
    if n < 1 or n_h < 1:
        raise ValueError("jlt_matrix requires n >= 1 and n_h >= 1")
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n_h))
    r /= np.sqrt(n_h)
    return r


def _single_dictionary(stacked: np.ndarray, n_h: int, seed: int) -> np.ndarray:
    return stacked @ jlt_matrix(stacked.shape[1], n_h, seed)


def build_dictionaries(views: ViewSet, cfg: SketchConfig) -> list:
    """One dictionary per repeat, each from its derived seed."""
    stacked = np.hstack(views.matrices())
    if cfg.n_h > stacked.shape[1]:
        raise ValueError(
            f"n_h={cfg.n_h} exceeds total sample count {stacked.shape[1]}"
        )
    return [
        SketchedDictionary(
            _single_dictionary(stacked, cfg.n_h, repeat_seed(cfg.seed, j)),
            replace(cfg, repeats=1, seed=repeat_seed(cfg.seed, j)),
        )
        for j in range(cfg.repeats)
    ]


def build_dictionary(views: ViewSet, cfg: SketchConfig) -> SketchedDictionary:
    """The dictionary used by a single solve.

    For average_mode="dictionary" this is the elementwise mean over the
    repeats; for average_mode="scores" averaging happens over detection maps
    instead, so each solve should use one entry of :func:`build_dictionaries`.
    """
    dicts = build_dictionaries(views, cfg)
    if len(dicts) == 1:
        return SketchedDictionary(dicts[0].h, cfg)
    h = np.mean([d.h for d in dicts], axis=0)
    return SketchedDictionary(h, cfg)
