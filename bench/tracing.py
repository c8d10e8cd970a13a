"""In-memory spans and counts, recorded from the benchmark around calls into
the library, and the self times derived from them."""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans are [id, name, start, end, parent id, request id]; they stay in
    memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, perf_counter(), None, self._stack[-1] if self._stack else None, self.request]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def child_time(self) -> list[float]:
        """Per span, the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's share."""
        covered = self.child_time()
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - covered[sid]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]
