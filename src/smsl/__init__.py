"""Sketched multi-view subspace learning for hyperspectral anomalous change
detection, with classical baselines and ROC evaluation."""

from .cube import (DetectionMap, GroundTruthMask, HyperCube, ViewSet, flatten,
                   load_cube, load_mask, load_scores, save_cube, save_mask,
                   save_scores, unflatten)
from .detector import DetectorConfig, detect, score_multiview
from .evaluate import RocCurve, SynthSpec, roc, sweep, synth_scene
from .sketch import SketchConfig, build_dictionary
from .solver import SolveResult, SolverConfig, SolverState, solve

__version__ = "0.1.0"

__all__ = [
    "DetectionMap", "GroundTruthMask", "HyperCube", "ViewSet", "flatten",
    "unflatten", "load_cube", "save_cube", "load_mask", "save_mask",
    "load_scores", "save_scores", "SketchConfig", "build_dictionary",
    "SolverConfig", "SolverState", "SolveResult", "solve", "DetectorConfig",
    "detect", "score_multiview", "RocCurve", "SynthSpec", "roc",
    "synth_scene", "sweep", "__version__",
]
