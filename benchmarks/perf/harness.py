"""Spans and host-speed calibration every workload uses.

Nothing here imports ``repro``: this is the instrument, not the program.
"""

from __future__ import annotations

import json
import pathlib
import resource
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Iterations per second of :func:`spin_ops_per_s` on the box the benchmark
#: was written on, with nothing else running.  Only ratios to it are used, so
#: on other hardware every timing scales by one constant.
SPIN_REFERENCE = 30e6
#: Work between two calibration spins, seconds.  The box's speed flickers at
#: this scale; spins 0.3 s apart left twice the spread between runs.
SAMPLE_PERIOD = 0.02
#: A run whose slowest calibration spin is this far below its fastest is
#: flagged ``noisy`` in its detail line.
NOISE_LIMIT = 0.10
_SPIN_ITERATIONS = 100_000


class Tracer:
    """Spans recorded around the harness's calls into the program.

    Kept in memory as ``[name, start, end, parent]`` rows (``parent`` is the
    row index of the enclosing span, ``None`` at the root) and written out
    once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        row = [name, time.perf_counter(), None, parent]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield index
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        """A span timed by the caller (overlapping live operations)."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [end - start for span, start, end, _ in self.spans if span == name]

    def write(self, workload: str) -> pathlib.Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"TRACE_{workload}.json"
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"workload": workload, "spans": rows}) + "\n")
        return path


def spin_ops_per_s() -> float:
    """A fixed pure-Python loop (~3 ms); its rate is this core's speed now."""
    start = time.perf_counter()
    total = 0
    for index in range(_SPIN_ITERATIONS):
        total += index & 3
    return _SPIN_ITERATIONS / (time.perf_counter() - start)


def peak_rss_mib() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """Host speed sampled through a stretch of work, and time on the
    reference host computed from it.

    Between two consecutive spins lies a *slice* of work; the host's speed in
    it is the mean of the two spins over :data:`SPIN_REFERENCE`.  Wall seconds
    inside a slice × that share are the seconds the same work would have taken
    on the reference host.  Time spent spinning belongs to no slice.
    """

    def __init__(self) -> None:
        #: (spin began, spin ended, iterations per second)
        self.samples: list[tuple[float, float, float]] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        rate = spin_ops_per_s()
        self.samples.append((start, time.perf_counter(), rate))

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][1] >= SAMPLE_PERIOD

    def slices(self) -> list[tuple[float, float, float]]:
        """(began, ended, host speed as a share of the reference)"""
        return [
            (before[1], after[0], (before[2] + after[2]) / 2 / SPIN_REFERENCE)
            for before, after in zip(self.samples, self.samples[1:])
        ]

    def speeds(self) -> list[float]:
        return [rate / SPIN_REFERENCE for _start, _end, rate in self.samples]


class ReferenceClock:
    """Reference-host seconds of any interval inside a calibrated stretch."""

    def __init__(self, calibration: Calibration) -> None:
        self._slices = calibration.slices()
        self._begins = [began for began, _ended, _speed in self._slices]

    def total(self) -> float:
        return sum((ended - began) * speed for began, ended, speed in self._slices)

    def between(self, start: float, end: float) -> float:
        seconds = 0.0
        for began, ended, speed in self._slices[max(0, bisect_right(self._begins, start) - 1):]:
            if began >= end:
                break
            seconds += max(0.0, min(end, ended) - max(start, began)) * speed
        return seconds


@dataclass
class Stage:
    """One uninterrupted stretch of measured operations: each operation's
    (issued, completed) times, and the calibration that covers them (``None``
    in a traced run, which reports no timing metric)."""

    ops: list[tuple[float, float]] = field(default_factory=list)
    calibration: Optional[Calibration] = None

    def wall_seconds(self) -> float:
        return self.ops[-1][1] - self.ops[0][0]


def percentile(sorted_values: list[float], share: float) -> float:
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]
