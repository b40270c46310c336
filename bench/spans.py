"""In-memory spans and counts for the traced run.

A span records its name, the input dimension it concerns (or None), its
start and end, its parent span and the pass it belongs to.  Spans stay in
memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._origin = perf_counter()

    def next_pass(self):
        self.pass_id += 1

    @contextlib.contextmanager
    def span(self, name: str, dim: int | None = None):
        rec = {"id": len(self.spans), "name": name, "dim": dim,
               "parent": self._stack[-1] if self._stack else None,
               "pass": self.pass_id, "start": None, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter() - self._origin
        try:
            yield
        finally:
            rec["end"] = perf_counter() - self._origin
            self._stack.pop()

    def count(self, name: str, value: int, dim: int | None = None):
        self.counts.append({"name": name, "dim": dim, "pass": self.pass_id,
                            "value": value})

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def per_pass(self) -> dict[int, dict[str, float]]:
        """For every pass: span time per metric name in ms, self time per
        module in ms, the pass span in s, and every count."""
        out: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        for rec in self.spans:
            values = out[rec["pass"]]
            dur = rec["end"] - rec["start"]
            name = rec["name"]
            if name == "pass":
                values["trace.pass_s"] += dur
            elif "." in name:
                values[metric_name(name + "_ms", rec["dim"])] += 1000 * dur
            module = name.split(".")[0] if "." in name else "bench"
            values[f"{module}.self_ms"] += 1000 * (dur - child_time[rec["id"]])
        for rec in self.counts:
            key = metric_name(rec["name"], rec["dim"])
            out[rec["pass"]][key] += rec["value"]
        return out


def metric_name(name: str, dim: int | None) -> str:
    return name if dim is None else f"{name}.d{dim}"
