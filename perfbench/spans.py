"""Span tracing of begrates from outside the package.

A traced run replaces each public function named in ``TARGETS`` by a wrapper
that records a span (name, start, end, parent, info).  The wrapper is set in
every begrates module namespace where the function is looked up, because the
package binds names with ``from .x import f``; methods are wrapped on their
class.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct children cover (calls are nested and
single-threaded, so the children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _atoms(result):
    return (result.n + 1) * (result.n + 2) // 2  # (n+, n-, n0) compositions = (s, M) classes


def _envelope_cells(result):
    return result.grid_spec["points"] ** 2


def _chain_updates(result):
    return result.n * result.sweeps


def _rungs(result):
    return (len(result.ladder) + len(result.skipped), len(result.skipped))


# (span name, module, attribute, count taken from the result or None)
TARGETS = [
    ("exact.build_joint_law", "begrates.exact", "build_joint_law", _atoms),
    ("exact.moment", "begrates.exact", "moment", None),
    ("exact.kolmogorov_distance", "begrates.exact", "kolmogorov_distance", None),
    ("exact.hs_check", "begrates.exact", "hs_check", None),
    ("exact.pair_covariance", "begrates.exact", "pair_covariance", None),
    ("density.normalize_density", "begrates.density", "normalize_density", None),
    ("density.estimate_stein_constants", "begrates.density", "estimate_stein_constants",
     _envelope_cells),
    ("density.cdf_at_sorted", "begrates.density", "PolyDensity.cdf_at_sorted", None),
    ("cases.comparison_density", "begrates.cases", "comparison_density", None),
    ("stein.evaluate_bound", "begrates.stein", "evaluate_bound", None),
    ("stein.regression_decompose", "begrates.stein", "regression_decompose", None),
    ("stein.variance_term", "begrates.stein", "variance_term", None),
    ("rates.run_case", "begrates.rates", "run_case", _rungs),
    ("rates.run_all", "begrates.rates", "run_all", None),
    ("cli.main", "begrates.cli", "main", None),
    ("mcmc.run_chain", "begrates.mcmc", "run_chain", _chain_updates),
]


class Tracer:
    """Records spans while installed; ``install`` returns an undo callable."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][4] = info(result)
            return result

        return wrapper

    def install(self):
        undo = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "begrates" or k.startswith("begrates.")]
        for name, module, attr, info in TARGETS:
            owner = importlib.import_module(module)
            cls_name, _, attr = attr.rpartition(".")
            holders = [getattr(owner, cls_name)] if cls_name else modules
            original = (holders[0] if cls_name else owner).__dict__[attr]
            wrapper = self._wrap(name, original, info)
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))

        def restore():
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

        return restore


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and summed info."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                "info": None})
    for (name, start, end, _, info), kids in zip(spans, child_time):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - kids
        if info is not None:
            if isinstance(info, tuple):
                prev = row["info"] or (0,) * len(info)
                row["info"] = tuple(a + b for a, b in zip(prev, info))
            else:
                row["info"] = (row["info"] or 0) + info
    return dict(out)
