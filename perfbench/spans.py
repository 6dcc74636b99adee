"""In-memory span tracer for the package's public functions.

A traced function is replaced, for the duration of a traced pass, at every
module attribute of the package that is bound to it -- its own module and
each module that imported it by name -- so calls are seen wherever the
caller looks the name up.  The package's source files are not touched.

Each call records a span ``(key, start_ns, end_ns, parent, work)``: ``parent``
is the index of the enclosing span (``-1`` at the root) and ``work`` the
units of work the target's ``work`` function reads off the call.  Spans stay
in memory; ``write`` stores them when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str  # submodule of the package, e.g. "solver"
    name: str
    work: Optional[Callable] = None  # (args, result) -> int

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def install(self, targets) -> None:
        """Wrap every target; a name the package no longer has is recorded
        in ``absent`` and left alone."""
        self.absent = []
        for target in targets:
            try:
                module = importlib.import_module(f"{self.package}.{target.module}")
            except ImportError:
                self.absent.append(target.key)
                continue
            original = getattr(module, target.name, None)
            if not callable(original):
                self.absent.append(target.key)
                continue
            wrapper = self._wrap(target, original)
            for mod in self._package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, key: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        index, parent, start = self._open()
        try:
            yield
        finally:
            self._close(index, key, start, parent, 0)

    def write(self, path) -> None:
        keys = sorted({s[0] for s in self.spans if s is not None})
        ids = {k: i for i, k in enumerate(keys)}
        rows = [
            [ids[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans if s is not None
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["key", "start_ns", "end_ns", "parent", "work"],
                    "keys": keys,
                    "absent": self.absent,
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, time.perf_counter_ns()

    def _close(self, index, key, start, parent, work) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (key, start, end, parent, work)

    def _wrap(self, target: Target, fn):
        key, work = target.key, target.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent, start = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                units = work(args, result) if work and result is not None else 0
                self._close(index, key, start, parent, units)

        return traced


def summarize(spans) -> dict:
    """Per key: calls, self and total nanoseconds, and summed work.

    A span's self time is its duration minus the durations of its direct
    children, i.e. the part of its interval no child span covers (children
    of one span never overlap in a single thread).  Spans left unfinished by
    an interrupted call (``None``) are skipped.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s is not None and s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    out: dict = {}
    for i, s in enumerate(spans):
        if s is None:
            continue
        key, start, end, _, work = s
        row = out.setdefault(key, {"calls": 0, "self_ns": 0, "total_ns": 0, "work": 0})
        row["calls"] += 1
        row["self_ns"] += end - start - child_ns[i]
        row["total_ns"] += end - start
        row["work"] += work
    return out
