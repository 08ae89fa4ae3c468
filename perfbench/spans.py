"""Spans recorded from outside hermgrass, around calls into its modules.

A span has a name, a start, an end, the id of the span open when it began
and the run id.  Spans stay in memory until the run writes them out.
Functions of the package are traced by replacing the module attribute the
caller looks up with a wrapper for the duration of a `patched` block.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Records nothing; used for the untraced, measured runs."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    @contextmanager
    def patched(self, targets):
        """Trace calls to each (module, attribute, span name) target."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        for (module, attr, original), (_, _, name) in zip(saved, targets):
            setattr(module, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _within(self, record, ancestor):
        parent = record["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def durations(self, names, within=None) -> list:
        """Durations of the spans named in `names` (a name or a tuple of
        names), optionally only those below a span named `within`."""
        names = (names,) if isinstance(names, str) else names
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] in names and (within is None or self._within(s, within))
        ]

    def records(self) -> list:
        """Every span with its duration and self time (duration minus the
        time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = []
        for s, covered in zip(self.spans, child_time):
            seconds = s["end"] - s["start"]
            out.append({**s, "seconds": seconds, "self_s": seconds - covered})
        return out

    def summary(self) -> dict:
        """Per span name: count, total seconds and self seconds."""
        out = {}
        for s in self.records():
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s["seconds"]
            row["self_s"] += s["self_s"]
        return out
