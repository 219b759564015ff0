"""Spans recorded from outside the library.

The library has no timing hooks, so a traced pass replaces every public
function of each layer module with a wrapper. A function is replaced at every
module attribute that binds it (``bounds.validate`` and ``cli.validate`` are
``params.validate`` imported by name) and inside module-level tuples that
hold it (``verify.SUITES``), so that no call site bypasses the wrapper. Each
wrapper appends a span (name, start, end, parent) and marks it when the call
raised. ``numpy.fft.fftn`` and ``ifftn`` get kernel spans named
``lattice.fft`` while a lattice span is open.

A span's self time is its duration minus the durations of its direct
children; children of one span never overlap because the library is
single-threaded.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

PACKAGE = "qram_bounds"
LAYERS = ("params", "bounds", "lattice", "gates", "qram", "verify", "cli")
FFT_SPAN = "lattice.fft"

# span record fields
NAME, START, END, PARENT, ERROR, POINTS, BYTES = range(7)


class Tracer:
    """Wraps the layer functions while installed and keeps their spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._lattice_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        in_lattice = name.startswith("lattice.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            if in_lattice:
                self._lattice_depth += 1
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
                if in_lattice:
                    self._lattice_depth -= 1

        return wrapper

    def _wrap_fft(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self._lattice_depth:
                return fn(a, *args, **kwargs)
            record = [FFT_SPAN, 0.0, 0.0, stack[-1], False, 0, 0]
            spans.append(record)
            record[START] = clock()
            try:
                out = fn(a, *args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = clock()
            record[POINTS] = out.size
            # bytes computed from array sizes: one read of the input and
            # one write of the output, cache behaviour not included
            record[BYTES] = np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)

        def swap(obj):
            if inspect.isfunction(obj):
                return wrappers.get(obj, obj)
            if isinstance(obj, tuple):
                items = tuple(swap(item) for item in obj)
                return obj if all(a is b for a, b in zip(items, obj)) else items
            return obj

        owners = [importlib.import_module(PACKAGE), *modules.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                new = swap(obj)
                if new is not obj:
                    self._patch(owner, attr, new)
        for attr in ("fftn", "ifftn"):
            self._patch(np.fft, attr, self._wrap_fft(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list[list]) -> tuple[dict[str, dict], float]:
    """Per-name calls, self and inclusive seconds, errors, FFT points and
    bytes; plus the seconds covered by top-level spans."""
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]
    stats: dict[str, dict] = {}
    top_s = 0.0
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        if rec[PARENT] < 0:
            top_s += dur
        s = stats.setdefault(rec[NAME], dict(calls=0, self_s=0.0, total_s=0.0,
                                             errors=0, points=0, bytes=0))
        s["calls"] += 1
        s["self_s"] += dur - child_s[i]
        s["total_s"] += dur
        s["errors"] += rec[ERROR]
        s["points"] += rec[POINTS]
        s["bytes"] += rec[BYTES]
    return stats, top_s
