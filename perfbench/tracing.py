"""Spans around the package's layer entry points, recorded from outside.

``Tracer.install`` replaces module attributes such as
``quadcolor.census.classify`` with wrappers that record one span per call:
name, start, end and the enclosing span.  The program resolves those names
at call time, so its own calls go through the wrappers; ``uninstall`` puts
the originals back.  Spans stay in memory in flat arrays and are written
once, by ``write``, when the run ends.

Alongside the spans the tracer keeps, per layer, its self time (span
duration minus the time covered by its direct child spans), its call count
and a hit count for layers whose result says whether the call was useful.
``snapshot`` hands those totals out and starts new ones, one set per
repetition of a workload.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, layers):
        """layers: (owner, attribute, span name, outcome) tuples; outcome is
        None or a predicate on the call's result that counts as a hit."""
        self.layers = list(layers)
        self.names = [name for _, _, name, _ in self.layers]
        self.span_name = array("B")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_rep = array("L")
        self.rep = 0
        self._stack: list = []  # open spans as [index, time covered by children]
        self._originals: list = []
        self._reset_totals()

    def _reset_totals(self) -> None:
        k = len(self.names)
        self.self_s = [0.0] * k
        self.calls = [0] * k
        self.hits = [0] * k

    def install(self) -> None:
        for name_id, (owner, attr, _, outcome) in enumerate(self.layers):
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name_id, outcome))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name_id: int, outcome):
        stack = self._stack
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_rep.append(self.rep)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[index] = t1
                duration = t1 - t0
                self.self_s[name_id] += duration - frame[1]
                self.calls[name_id] += 1
                if stack:
                    stack[-1][1] += duration
            if outcome is not None and outcome(result):
                self.hits[name_id] += 1
            return result

        return traced

    def snapshot(self) -> dict:
        """Per-layer (self seconds, calls, hits) since the last snapshot."""
        out = {
            name: (self.self_s[i], self.calls[i], self.hits[i])
            for i, name in enumerate(self.names)
        }
        self._reset_totals()
        self.rep += 1
        return out

    def write(self, path: str) -> None:
        """All spans as columns; parent is a row number, -1 for a root span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                    "rep": self.span_rep.tolist(),
                },
                fh,
            )
