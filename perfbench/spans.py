"""In-memory span recorder of the benchmark.

Every call the benchmark makes into a ``repro`` module goes through
:meth:`Tracer.call`.  With tracing off the call is made directly and nothing
is recorded, so a traced and an untraced run make the same sequence of
public calls and differ only by the recording cost.  With tracing on each
call becomes a span: name, start, end, parent span and run id.  Spans are
kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    """Records spans around the benchmark's calls into the program."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[int]]:
        """Record one span around the body; yields its id (``None`` with
        tracing off, when nothing is recorded)."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, layer: str, function: Callable, /, *args: Any, **kwargs: Any) -> Any:
        """``function(*args, **kwargs)`` inside a span called ``layer``."""
        if not self.enabled:
            return function(*args, **kwargs)
        with self.span(layer):
            return function(*args, **kwargs)

    def children(self, parent: Optional[int]) -> List[Dict[str, Any]]:
        """The spans whose parent is ``parent`` (``None``: the roots)."""
        return [span for span in self.spans if span["parent"] == parent]

    def self_times(self, root: int) -> Dict[str, float]:
        """Self time per span name, summed over the subtree below ``root``.

        A span's self time is its duration minus the time its direct
        children cover; ``root`` itself is left out.
        """
        totals: Dict[str, float] = {}
        pending = [span["id"] for span in self.children(root)]
        while pending:
            span = self.spans[pending.pop()]
            kids = self.children(span["id"])
            covered = sum(kid["end"] - kid["start"] for kid in kids)
            duration = span["end"] - span["start"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration - covered
            pending.extend(kid["id"] for kid in kids)
        return totals

    def unattributed(self, root: int) -> float:
        """Time of ``root`` that none of its top-level child spans covers."""
        span = self.spans[root]
        covered = sum(kid["end"] - kid["start"] for kid in self.children(root))
        return (span["end"] - span["start"]) - covered

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
