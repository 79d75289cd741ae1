"""Span recorder that wraps piavae functions from outside the package.

A traced function is replaced, for the duration of a run, by a wrapper
that records one span per call: name, start, end and the span that was
open when it was called. A function is patched under every name a loaded
``piavae`` module binds it to (``piavae.model.adam_step``,
``piavae.suites.fit``, ``piavae.geometry.encode`` ...), so calls are seen
whichever module makes them. A target that no longer exists is recorded
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, targets: dict[str, str]):
        """Patch each ``span name -> "module:Qual.name"`` target, then undo.

        A module-level function is replaced in every loaded piavae module
        that binds it; a method is replaced on its class.
        """
        try:
            for name, target in targets.items():
                self._install(name, target)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self, name: str, target: str) -> None:
        module_name, qualname = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapped = self.wrap(name, original)
        if path:
            self._patch(owner, attr, original, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "piavae" or mod_name.startswith("piavae.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total seconds ``s`` and ``self_s``,
        a span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - child_time[index]
        return out
