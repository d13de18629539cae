"""In-memory spans around the benchmark's calls into modp modules.

A span records its name (``module.function``), start and end
(``time.perf_counter`` seconds), the index of its parent span and the id of
the benchmark op it belongs to.  A disabled tracer hands out a shared
``nullcontext``, so untraced runs pay one attribute lookup per call site.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op_id = None
        self._stack: list[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return self._span(name) if self.enabled else self._null

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        """Summed duration of the spans with this name."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children."""
        total = 0.0
        for idx, s in enumerate(self.spans):
            if s["name"] != name:
                continue
            kids = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == idx)
            total += (s["end"] - s["start"]) - kids
        return total

    def children(self, name: str, child: str) -> list[dict]:
        parents = {i for i, s in enumerate(self.spans) if s["name"] == name}
        return [s for s in self.spans if s["name"] == child and s["parent"] in parents]
