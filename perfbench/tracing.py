"""In-memory spans recorded around calls into the program's layers.

A span is ``[name, start, end, parent, request_id]`` with ``perf_counter``
times; ``parent`` is the index of the enclosing span (or -1). Spans stay
in memory while the workload runs and are written out as JSON lines when
it ends. A layer's self time is its span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs a branch."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []

    def open(self, name: str, rid=None, parent: int = -1) -> int:
        """Start a span; returns its id (-1 when disabled)."""
        if not self.enabled:
            return -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, rid])
        return len(self.spans) - 1

    def close(self, sid: int) -> float:
        """End a span; returns its duration in seconds."""
        if sid < 0:
            return 0.0
        span = self.spans[sid]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    def add(self, name: str, start: float, end: float, rid=None,
            parent: int = -1) -> int:
        """Record a span whose times were taken elsewhere (another thread)."""
        if not self.enabled:
            return -1
        self.spans.append([name, start, end, parent, rid])
        return len(self.spans) - 1

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)``."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out: dict[str, list] = {}
        for sid, (name, start, end, _parent, _rid) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as handle:
            for sid, (name, start, end, parent, rid) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid,
                }) + "\n")
