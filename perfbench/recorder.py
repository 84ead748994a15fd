"""Call recording around the program's module functions.

The program itself is not instrumented.  A Recorder rebinds chosen
functions of the mimoloc modules to wrappers, everywhere they are bound
(every mimoloc module namespace, or the class for methods), and restores
the originals on exit.

Every recorder keeps a trial clock: one function is the trial boundary,
and each return from it closes a trial window that runs from the end of
the previous window (or the start of the pass) to now.  So the windows of
a pass tile its wall time.  A tracing recorder also wraps the layer calls
and keeps one span per call in memory: name, start, end, parent span and
the trial it started in (-1 before the first pass).
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

SETUP = -1


class Recorder:
    def __init__(self, boundary: str, calls, hooks=None, trace: bool = False):
        """boundary: span name of the trial-boundary call.
        calls: (span name, module, attribute) rows; attribute may be
        "Class.method".  Without trace only the boundary is wrapped.
        hooks: span name -> hook(arguments, result, counts), run after
        the call with its bound arguments, to count work done."""
        self.trace = trace
        self.boundary = boundary
        if boundary not in {c[0] for c in calls}:
            raise ValueError(f"boundary {boundary!r} is not a known call")
        self.calls = [c for c in calls if trace or c[0] == boundary]
        self.hooks = hooks or {}
        self.spans: list = []
        self.windows: list[tuple[float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.trial = SETUP
        self._stack: list[int] = []
        self._window_start = None
        self._restore = []

    # --- installation ---------------------------------------------------

    def __enter__(self):
        for name, module, attr in self.calls:
            owner = sys.modules[f"mimoloc.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[leaf]
                self._rebind(owner, leaf, self._wrap(name, original))
            else:
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                for mod in [m for n, m in sys.modules.items()
                            if n == "mimoloc" or n.startswith("mimoloc.")]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    def _rebind(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        is_boundary = name == self.boundary
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        if not self.trace:
            @functools.wraps(fn)
            def clocked(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._close_window()
                return out
            return clocked

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            trial = self.trial
            self._stack.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span] = (name, start, end, parent, trial)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, out, self.counts)
            if is_boundary:
                self._close_window()
            return out
        return traced

    # --- trial clock ----------------------------------------------------

    def start_pass(self):
        self._window_start = time.perf_counter()
        if self.trial == SETUP:
            self.trial = 0

    def _close_window(self):
        now = time.perf_counter()
        if self._window_start is None:
            raise RuntimeError("trial boundary reached outside a pass")
        self.windows.append((self._window_start, now))
        self._window_start = now
        self.trial += 1

    def trial_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in self.windows]

    # --- span summaries -------------------------------------------------

    def totals(self, phase: str):
        """Per span name: (calls, inclusive seconds, self seconds) over the
        setup spans (phase "setup") or the trial spans (phase "trials").
        Self time is the duration minus that of direct child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, trial) in enumerate(self.spans):
            if (trial == SETUP) != (phase == "setup"):
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def uncovered_ms(self, envelopes) -> list[float]:
        """Per trial window, the time no span covers, ignoring the
        envelope spans (calls that enclose whole trials)."""
        iv = sorted((s, e) for name, s, e, _, trial in self.spans
                    if trial != SETUP and name not in envelopes)
        merged = []
        for s, e in iv:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        ms = np.array(merged).reshape(-1, 2)
        out = []
        for a, b in self.windows:
            cover = np.clip(np.minimum(ms[:, 1], b) - np.maximum(ms[:, 0], a),
                            0.0, None).sum()
            out.append((b - a - cover) * 1e3)
        return out

    def write_spans(self, path, origin: float):
        """One JSON object per line: the trial windows as spans named
        "trial", then every layer span; times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (a, b) in enumerate(self.windows):
                fh.write(json.dumps({"id": f"t{k}", "name": "trial",
                                     "start": a - origin, "end": b - origin,
                                     "parent": None, "trial": k}) + "\n")
            for i, (name, a, b, parent, trial) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": a - origin, "end": b - origin,
                                     "parent": parent, "trial": trial})
                         + "\n")
