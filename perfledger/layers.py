"""Per-layer timing: the benchmark's own spans, and the program's
telemetry read back from its JSONL event file.

The benchmark times layers from outside, around public calls
(:class:`Spans`), and reads the spans and counters the program already
emits when telemetry is on (:func:`traced_events`).  Nothing here
changes what the program computes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Spans:
    """Nested spans in one thread, accumulating self-time per name.

    A span's self-time is its duration minus the part its child spans
    cover, so the self-times of one op add up to the time of its
    outermost span.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    @contextmanager
    def __call__(self, name: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._children.pop()
            if self._children:
                self._children[-1] += elapsed


@contextmanager
def traced_events(path: Path):
    """Run the block with the program's telemetry writing to ``path``;
    yields a list that holds the recorded events after the block."""
    from repro import telemetry
    events: list[dict] = []
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with telemetry.session(str(path)):
            yield events
    finally:
        # Also when the block raises: a failed op's spans still count.
        events.extend(telemetry.load_events(str(path)))
        path.unlink(missing_ok=True)
