"""An in-memory span and counter recorder for the benchmark's traced runs.

Spans are opened by wrappers the benchmark installs around the public
functions of each layer (see ``layers.py``); nothing inside the program is
changed.  Every span keeps its name, start, end and the span that was open
on the same thread when it started.  A span's *self time* is its duration
minus the durations of its direct children, so the self times of one tree
add up to the duration of its root.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

#: ``counter(args, kwargs, result) -> int``: the amount one call adds.
Counter = Callable[[tuple, dict, object], int]


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patches: list[tuple[object, str, bool, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and count (installed wrappers stay)."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack().pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        counts: Optional[dict[str, Counter]] = None,
        before: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``counts`` maps a counter name to the amount each call adds;
        ``before(args)`` runs ahead of the span.  :meth:`uninstall` puts the
        original back.
        """
        had = attr in vars(owner)
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        tracer = self
        counters = tuple((counts or {}).items())

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            for key, counter in counters:
                tracer.counts[key] += counter(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, had, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, had, raw = self._patches.pop()
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    def self_seconds(self) -> list[float]:
        """Self time of every recorded span, in recording order."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def self_ms_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in zip(self.names, self.self_seconds()):
            totals[name] += seconds * 1000.0
        return dict(totals)

    def to_json(self) -> dict:
        """Columnar dump of the recorded spans (times in ms from the first)."""
        origin = self.starts[0] if self.starts else 0.0
        return {
            "name": self.names,
            "start_ms": [(s - origin) * 1000.0 for s in self.starts],
            "end_ms": [(e - origin) * 1000.0 for e in self.ends],
            "parent": self.parents,
            "self_ms": [s * 1000.0 for s in self.self_seconds()],
            "counts": dict(self.counts),
        }


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._index = self._tracer.open(self._name)

    def __exit__(self, *exc) -> None:
        self._tracer.close(self._index)
