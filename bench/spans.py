"""In-memory spans recorded around calls into the program's modules.

A span has a name (``module.function``), a start and an end from
``time.perf_counter``, the id and key of the op that caused it and a phase: ``op``
for the timed call itself, ``attribution`` for the extra stage calls a traced
run makes after the op, ``setup`` for document loading.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    """Collects spans; one instance per traced run or probe."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[tuple[str, float, float, int, str, str]] = []
        self.op_id = -1
        self.op_key = ""
        self.phase = "setup"

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op_id, self.op_key,
                               self.phase))

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        """Durations in seconds of every span with this name (and phase)."""
        return [end - start for n, start, end, _, _, ph in self.spans
                if n == name and (phase is None or ph == phase)]

    def write(self, fh) -> None:
        for name, start, end, op_id, op_key, phase in self.spans:
            fh.write(json.dumps({"run": self.label, "name": name, "start_s": start, "end_s": end,
                                 "op": op_id, "key": op_key, "phase": phase}) + "\n")


class NullTracer:
    """The untraced run's tracer: records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
