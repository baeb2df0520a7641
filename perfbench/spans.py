"""In-memory span recorder for the traced benchmark run.

The benchmark wraps every module-level function of the qarfcs layers, from
outside the package, so that each call records a span: name, start, end and
the span that caused it. Spans stay in memory and are written once, when the
run ends. A layer's self time is its span's duration minus the time covered
by its child spans; calls are single-threaded, so children never overlap and
the covered time is the sum of their durations.

Only calls made while ``Recorder.active`` is true are recorded, so input
generation and the correctness gates never show up in the layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

PACKAGE = "qarfcs"
LAYERS = ("model", "liouvillian", "fcs", "analytic", "oracle", "scan", "cli")

# Raw spans kept for the written trace; the per-layer aggregates always cover
# every span, so the cap bounds memory without changing any metric.
MAX_KEPT_SPANS = 50_000


class Recorder:
    """Collects spans and aggregates calls and self time per span name."""

    def __init__(self, clock=time.perf_counter, max_kept: int = MAX_KEPT_SPANS):
        self.clock = clock
        self.max_kept = max_kept
        self.active = False
        self.context = ""
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls_in_context: Counter[tuple[str, str]] = Counter()
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._next_id = 0
        # open spans: [id, name, parent id, child time, start]
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, name, parent, 0.0, self.clock()])

    def exit(self) -> None:
        end = self.clock()
        sid, name, parent, child, start = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if self.context:
            self.calls_in_context[self.context, name] += 1
        if len(self.spans) < self.max_kept:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON: one [id, name, start, end, parent] row each."""
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": sorted(self.spans),
            "dropped": self.dropped,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    return traced


def instrument(recorder: Recorder) -> tuple[list[str], Callable[[], None]]:
    """Wrap the layers' module-level functions; return span names and an undo.

    A function is wrapped once, under the name ``<layer>.<function>``, and the
    wrapper replaces every binding of it in every loaded qarfcs module:
    ``from .fcs import charpoly`` leaves a second reference in ``analytic``
    and ``cli`` that patching ``fcs`` alone would miss.
    """
    wrappers: dict[int, tuple[object, object]] = {}
    names = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(value)] = (value, _wrap(recorder, name, value))
                names.append(name)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                patched.append((mod, attr, value))

    def undo() -> None:
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return names, undo
