"""Span tracing around the package's public functions, from outside.

``Tracer.install`` replaces a function at every module attribute that
binds it (``runtime.scored_keypoints`` is also reached as
``detectors.scored_keypoints``) or a method on its class, records one span
per call and restores everything on ``uninstall``. A target that no longer
exists is skipped and listed in ``missing``; its span is simply absent.

Spans are kept in memory as (name, start, end, parent) rows. A layer's
total time counts only its outermost spans; its self time subtracts the
time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "cornerforge"
_INHERITED = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.values: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.values.clear()
        self._stack.clear()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def note(self, name: str, value) -> None:
        self.values.setdefault(name, []).append(value)

    def _wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for k, m in sorted(sys.modules.items())
                if k.startswith(prefix) and m is not None]

    def install(self, target: str, name: str, count=None) -> bool:
        """Trace ``target``: "module.function" or "module.Class.method"."""
        parts = target.split(".")
        try:
            mod = importlib.import_module(f"{PACKAGE}.{parts[0]}")
        except ImportError:
            self.missing.append(target)
            return False
        owner = mod
        for attr in parts[1:-1]:
            owner = getattr(owner, attr, None)
        fn = getattr(owner, parts[-1], None) if owner is not None else None
        if fn is None or not callable(fn):
            self.missing.append(target)
            return False
        wrapper = self._wrap(name, fn, count)
        if isinstance(owner, type):
            self._patch(owner, parts[-1], wrapper)
            return True
        for m in self._modules():
            for attr, val in list(vars(m).items()):
                if val is fn:
                    self._patch(m, attr, wrapper)
        return True

    def _patch(self, owner, attr: str, new) -> None:
        # A method a class inherits has no entry of its own: restore by
        # deleting the wrapper.
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if old is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def totals(self) -> dict[str, float]:
        """Seconds per span name, counting nested spans of one name once."""
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name with the time of child spans removed."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out
