"""Spans around the smsl functions that `smsl detect` calls.

Each wrapper replaces a module attribute at the point where the caller
looks it up (for instance `detector.solve`, not `solver.solve`), records a
span with an id, its parent's id, a name and start/end times, and keeps it in
memory. The child process writes the spans out when it exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time

# (module under smsl, attribute the detect path looks up, span name)
PATCHES = (
    ("cube", "load_cube", "cube.load_cube"),
    ("cube", "save_scores", "cube.save_scores"),
    ("detector", "build_dictionary", "sketch.build_dictionary"),
    ("detector", "build_dictionaries", "sketch.build_dictionary"),
    ("sketch", "jlt_matrix", "sketch.jlt_matrix"),
    ("detector", "solve", "solver.solve"),
    ("solver", "svt", "prox.svt"),
    ("solver", "cho_factor", "solver.cho_factor"),
    ("solver", "cho_solve", "solver.cho_solve"),
    ("solver", "update_e", "solver.update_e"),
    ("solver", "update_w", "solver.update_w"),
    ("solver", "residuals", "solver.residuals"),
    ("solver", "update_multipliers", "solver.update_multipliers"),
    ("detector", "score_multiview", "detector.score_multiview"),
)


def _solve_attrs(result) -> dict:
    """Iterations, final residual and state size of a SolveResult."""
    state = result.state
    arrays = [state.c, state.j, state.y4, *state.d, *state.e, *state.w,
              *state.y1, *state.y2, *state.y3]
    return {"iterations": result.iterations_run,
            "final_max_residual": float(result.residual_history[-1]),
            "state_bytes": sum(a.nbytes for a in arrays)}


ANNOTATE = {"solver.solve": _solve_attrs}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": next(self._ids),
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "name": name}
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if annotate is not None:
                span["attrs"] = annotate(result)
            return result

        return wrapper

    def install(self, package: str = "smsl") -> list:
        """Patch every attribute in PATCHES that exists; returns the names
        of those that do not, so a renamed layer shows up as missing."""
        missing = []
        for mod_name, attr, span_name in PATCHES:
            module = importlib.import_module(f"{package}.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(span_name, fn))
        return missing


def layer_totals(spans: list) -> dict:
    """name -> {"s": total duration, "self_s": duration not covered by child
    spans, "calls": count}."""
    child_time = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] = child_time.get(sp["parent"], 0.0) \
                + sp["end"] - sp["start"]
    totals = {}
    for sp in spans:
        dur = sp["end"] - sp["start"]
        t = totals.setdefault(sp["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += dur
        t["self_s"] += dur - child_time.get(sp["id"], 0.0)
        t["calls"] += 1
    return totals
