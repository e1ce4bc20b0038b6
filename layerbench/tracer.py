"""In-memory span tracer that wraps the program's public entry points.

The benchmark never edits the program.  For a traced pass it replaces
selected functions and methods with wrappers that record a span (layer,
name, start, end, parent span, op id) and, where a layer has a natural
work count, bump a counter.  Spans stay in memory and are reduced to
per-layer self times at the end of the pass; :func:`uninstall` restores
every original object so untraced passes run the unmodified program.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Time inside an op that no wrapped call covers is the
op span's own self time and is reported as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span record fields, stored as lists for speed: layer, name, start, end,
#: parent span index (-1 for an op root), op id.
LAYER, NAME, START, END, PARENT, OP = range(6)

OP_LAYER = "op"


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.op: Optional[int] = None

    # ------------------------------------------------------------------
    def op_span(self, op: int, fn: Callable[[], object]):
        """Run one op as a root span and return its result."""
        self.op = op
        record = [OP_LAYER, "op", 0.0, 0.0, -1, op]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record[START] = time.perf_counter()
        try:
            return fn()
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, layer: str, name: str,
             count: Optional[Callable] = None) -> Callable:
        """A wrapper around ``fn`` recording one span per call.

        ``count(counts, args, kwargs, result)`` runs after the call to add
        work counts.  Calls made outside an op (no open span) are passed
        through untraced.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            record = [layer, name, 0.0, 0.0, stack[-1], tracer.op]
            index = len(tracer.spans)
            tracer.spans.append(record)
            stack.append(index)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def patch_function(self, module: str, attr: str, layer: str, name: str,
                       count: Optional[Callable] = None) -> None:
        """Wrap a module-level function everywhere it was imported.

        ``from a import f`` binds ``f`` in the importing module too, so
        every loaded ``repro`` module holding the same object is patched.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(original, layer, name, count)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not mod_name.startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, module: str, cls_name: str, attr: str,
                     layer: str, name: str,
                     count: Optional[Callable] = None) -> None:
        """Wrap a method on the class that defines it."""
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, layer, name, count))

    def uninstall(self) -> None:
        """Restore every patched object (last patched first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer self seconds and per-name busy seconds.

        Busy time of a name counts only its outermost calls, so a
        recursive or re-entrant function is not counted twice; the busy
        map also holds ``<name>.self``, the name's summed self time.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            parent = record[PARENT]
            if parent >= 0:
                child_time[parent] += record[END] - record[START]
        layer_self: Dict[str, float] = defaultdict(float)
        busy: Dict[str, float] = defaultdict(float)
        self_by_name: Dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            duration = record[END] - record[START]
            own = duration - child_time[index]
            layer_self[record[LAYER]] += own
            self_by_name[record[NAME]] += own
            if not self._has_ancestor_named(record):
                busy[record[NAME]] += duration
        busy.update({name + ".self": value
                     for name, value in self_by_name.items()})
        return dict(layer_self), dict(busy)

    def _has_ancestor_named(self, record: list) -> bool:
        parent = record[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == record[NAME]:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def op_seconds(self) -> float:
        """Summed duration of every op root span."""
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0)
