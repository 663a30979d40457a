"""The host's speed at a moment, measured with a fixed calibration chunk.

The machines the benchmark runs on share their cores with other tenants, and
the speed of one core moves by a factor of two within seconds and drifts for
minutes.  Every timed piece of work is therefore divided by the host's speed
at that moment, measured with ``chunk()``: a fixed mix of the work the
library does (float arithmetic, small objects, method calls, tuples, dicts,
string formatting, sorting).  It is the benchmark's own code, so a change to
the library does not move it.  The chunk is timed on the process's CPU
clock, as the ops are.

A time ``t`` measured while one chunk took ``c`` seconds is reported as
``t * CHUNK_REF_S / c``: the time it would have taken on a host where the
chunk takes ``CHUNK_REF_S``.  That constant is the typical chunk time on the
machine the benchmark was built on (2 shared vCPUs, CPython 3.11), so the
numbers read as milliseconds and seconds there.
"""
from __future__ import annotations

import bisect
import statistics
import time

CHUNK_REF_S = 0.8e-3
CHUNKS_PER_SAMPLE = 2  # one sample is this many chunks, timed together
WINDOW_S = 0.08  # samples this close to a piece of work measure its speed


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def step(self, rate: float) -> "_Point":
        dx = self.x * (1.0 - self.x) * (self.y - 0.5)
        dy = self.y * (1.0 - self.y) * (0.5 - self.x)
        return _Point(self.x + rate * dx, self.y + rate * dy)


def chunk() -> int:
    """Fixed work of about CHUNK_REF_S seconds on the reference machine."""
    p = _Point(0.3, 0.6)
    xs, ys = [], []
    counts: dict[int, int] = {}
    for t in range(270):
        p = p.step(0.5 / (1 + t))
        xs.append(p.x)
        ys.append(p.y)
        key = int(p.x * 97.0) % 13
        counts[key] = counts.get(key, 0) + 1
    rows = [f"{t},{x:.17g},{y:.17g}" for t, (x, y) in enumerate(zip(xs, ys))]
    text = "\n".join(rows)
    ranked = sorted(zip(ys, xs), reverse=True)
    return len(text) + len(counts) + len(ranked)


def sample() -> tuple[float, float]:
    """(when, CPU seconds of one chunk) for a sample taken now."""
    start, cpu = time.perf_counter(), time.process_time()
    for _ in range(CHUNKS_PER_SAMPLE):
        chunk()
    cpu = time.process_time() - cpu
    return (start + time.perf_counter()) / 2.0, cpu / CHUNKS_PER_SAMPLE


class Clock:
    """Speed samples of one run, taken between pieces of work."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.when: list[float] = []
        self.seconds: list[float] = []
        self.last = float("-inf")

    def take(self) -> None:
        when, seconds = sample()
        self.when.append(when)
        self.seconds.append(seconds)
        self.last = time.perf_counter()

    def maybe_take(self) -> None:
        """A sample, if the last one is ``every_s`` old."""
        if time.perf_counter() - self.last >= self.every_s:
            self.take()

    def chunk_s(self, start: float, end: float) -> float:
        """Median chunk time of the samples taken within ``WINDOW_S`` of
        [start, end], and at least the last one before and the first after."""
        lo = min(bisect.bisect_left(self.when, start - WINDOW_S),
                 bisect.bisect_left(self.when, start) - 1)
        hi = max(bisect.bisect_right(self.when, end + WINDOW_S),
                 bisect.bisect_right(self.when, end) + 1)
        return statistics.median(self.seconds[max(0, lo):hi])

    def normalise(self, cpu_s: float, start: float, wall_s: float) -> float:
        """``cpu_s`` CPU seconds of work that began at ``start`` and took
        ``wall_s``, at reference speed."""
        return cpu_s * CHUNK_REF_S / self.chunk_s(start, start + wall_s)
