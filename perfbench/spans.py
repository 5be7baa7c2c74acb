"""In-memory span recorder around the public functions of ttp2's modules.

Each wrapped call records one span: function name, start, end, parent span
and op id.  Wrapping replaces the function object wherever it is bound in a
``ttp2`` or ``ttp2.*`` namespace, so calls made inside the package (and
names imported with ``from .x import f``) are captured too.  Private helpers
(leading underscore) stay unwrapped: some run thousands of times per call
of their public caller and would swamp the measurement.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "ttp2"
LAYERS = ("instance", "matching", "even", "odd", "ordering", "schedule", "cli")

# Passes whose (ordering, improved) result is counted for improved_frac.
IMPROVE_COUNTED = ("ordering.swap_super_teams_pass", "ordering.swap_within_pass")


def public_functions() -> dict[str, object]:
    """`<module>.<fn>` -> function, for public functions defined in LAYERS."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


class SpanRecorder:
    """Records nested spans of wrapped calls; install() / uninstall() swap them in."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.raised: list[bool] = []
        self.improved: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        rec = self
        counted = name in IMPROVE_COUNTED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ops.append(rec.op_id)
            rec.raised.append(False)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            rec.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.raised[idx] = True
                raise
            finally:
                rec.ends[idx] = time.perf_counter()
                rec._stack.pop()
            if counted:
                tally = rec.improved[name]
                tally[0] += 1
                tally[1] += bool(out[1])
            return out

        return span

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions().items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self, first: int = 0) -> np.ndarray:
        """Per-span duration minus the time its direct children cover."""
        starts = np.array(self.starts[first:])
        dur = np.array(self.ends[first:]) - starts
        parents = np.array(self.parents[first:], dtype=np.int64) - first
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """`<module>.<fn>` -> {self_ms, calls, errors} over spans[first:]."""
        own = self.self_times(first)
        out: dict[str, dict[str, float]] = {}
        for name, t, bad in zip(self.names[first:], own, self.raised[first:]):
            row = out.setdefault(name, {"self_ms": 0.0, "calls": 0, "errors": 0})
            row["self_ms"] += 1000.0 * t
            row["calls"] += 1
            row["errors"] += bad
        return out

    def top_level_s(self, first: int = 0) -> float:
        """Seconds covered by spans that have no parent span."""
        return sum(
            e - s
            for s, e, p in zip(self.starts[first:], self.ends[first:], self.parents[first:])
            if p < 0
        )

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, op, raised."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops, self.raised):
                fh.write(json.dumps(row) + "\n")
