"""Span recording for the traced run, from outside the program.

The traced run replaces the bindings that callers look up (module
attributes such as ``skewhowe.kernel`` and ``glmodules.kernel``, and the
two ``EchelonBasis`` methods) with wrappers that record one span per
call.  Nothing under ``src/`` is edited: the layers are measured at the
calls into their public functions.

A span is ``(id, parent, job, name, start, end, attr)``; ``attr`` is an
exact size read from the arguments or the result (see ``BOUNDARIES``).
Spans are kept in memory and handed back when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time


def _slice_cols(args, kwargs, result):
    return len(result.slice_indices)


def _kernel_cells(args, kwargs, result):
    rows, ncols = args[0], args[1]
    return len(rows) * ncols


def _grew(args, kwargs, result):
    return 0 if result is None else 1


def _primes(args, kwargs, result):
    return [result.degree + 2, len(result.evaluations)]


def _value(args, kwargs, result):
    return result


def _dim(args, kwargs, result):
    return result.dim


# (module, attribute, span name, attribute reader).  Every binding a
# caller looks up is listed, so a call is traced whichever route it takes:
# cli reaches the layers through module attributes, and the layers reach
# each other through names imported into their own namespaces.
BOUNDARIES = (
    ("weylworks.skewhowe", "build_bimodule", "skewhowe.build_bimodule", _dim),
    ("weylworks.skewhowe", "hom_space", "skewhowe.hom_space", _slice_cols),
    ("weylworks.linalg", "kernel", "linalg.kernel", _kernel_cells),
    ("weylworks.skewhowe", "kernel", "linalg.kernel", _kernel_cells),
    ("weylworks.glmodules", "kernel", "linalg.kernel", _kernel_cells),
    ("weylworks.linalg.EchelonBasis", "insert", "linalg.echelon.insert", _grew),
    ("weylworks.linalg.EchelonBasis", "coords", "linalg.echelon.coords", None),
    ("weylworks.springercount", "point_count_table",
     "springercount.point_count_table", _primes),
    ("weylworks.springercount", "count_fiber_points",
     "springercount.count_fiber_points", None),
    ("weylworks.springercount", "interpolate", "springercount.interpolate", None),
    ("weylworks.characters", "kostka", "characters.kostka", _value),
    ("weylworks.springercount", "kostka", "characters.kostka", _value),
    ("weylworks.characters", "dim_irrep", "characters.dim_irrep", None),
    ("weylworks.glmodules", "dim_irrep", "characters.dim_irrep", None),
    ("weylworks.skewhowe", "dim_irrep", "characters.dim_irrep", None),
    ("weylworks.glmodules", "irrep_plucker", "glmodules.irrep_plucker", _dim),
    ("weylworks.glmodules", "tensor", "glmodules.tensor", _dim),
    ("weylworks.glmodules", "highest_weight_vectors",
     "glmodules.highest_weight_vectors", None),
    ("weylworks.lattice", "mv_cycle_count", "lattice.mv_cycle_count", None),
)


def _resolve(path: str):
    """Module or class named by a dotted path inside the package."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        owner, _, name = path.rpartition(".")
        return getattr(importlib.import_module(owner), name)


class Tracer:
    """Collects spans; one instance per traced child process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str, read=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.job, name, start, end, None)
            if read is not None:
                spans[sid] = spans[sid][:6] + (read(args, kwargs, result),)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding in BOUNDARIES; undone by uninstall()."""
        for path, attr, name, read in BOUNDARIES:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, read))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Calls run on one thread, so children of one span never overlap and
    the part of the interval they cover is the sum of their durations.
    """
    own = [end - start for (_, _, _, _, start, end, _) in spans]
    for _, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name, so that inclusive
    times of a name that calls itself are not counted twice."""
    flags = []
    for span in spans:
        name = span[3]
        parent = span[1]
        while parent >= 0 and spans[parent][3] != name:
            parent = spans[parent][1]
        flags.append(parent < 0)
    return flags


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive s (outermost calls), self_s, and
    the sum and maximum of the recorded attribute."""
    own = self_times(spans)
    top = outermost(spans)
    out: dict[str, dict] = {}
    for span, self_s, is_top in zip(spans, own, top):
        _, _, _, name, start, end, attr = span
        entry = out.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attr": None, "attr_max": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += self_s
        if is_top:
            entry["s"] += end - start
        if isinstance(attr, list):
            prev = entry["attr"] or [0] * len(attr)
            entry["attr"] = [a + b for a, b in zip(prev, attr)]
        elif attr is not None:
            entry["attr"] = (entry["attr"] or 0) + attr
            entry["attr_max"] = max(entry["attr_max"], attr)
    return out
