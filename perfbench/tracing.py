"""Spans and counts recorded around calls into svdstop's modules.

A :class:`Tracer` replaces public functions at the name their caller
resolves (``harness.stop_index`` is what ``harness`` calls, so that is
the name wrapped) and restores them on exit. Each call records a span
``[name, start, end, parent]`` in memory; a callback may add counts
measured at the same boundary. A span's self time is its duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``note(tracer, span, args, result)`` runs after a call that returned.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                note(self, span, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def self_times(self) -> Counter:
        """Total self time per span name, in seconds."""
        covered = Counter()
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return totals

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)
