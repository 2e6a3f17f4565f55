"""The host's speed over a run, read from a fixed reference task.

The host this benchmark was written on runs the same pure-Python code
at a speed that changes by up to 2x, within fractions of a second as
well as over minutes.  A timed run therefore probes a fixed reference
task every `INTERVAL` seconds, and each operation's time is scaled by
how much slower than `NOMINAL_S` the reference ran around it.  The
scaled time is what the operation would have taken at the reference
speed; the reference is the benchmark's own code, so a change to
``hindimorph`` moves the scaled time as much as the raw one.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds between probes while a run is timed.  Loads and trainings
# also get a probe right before and after each; a compile, which runs
# in a process of its own, is probed during it (`TimerProbes`).
INTERVAL = 0.25
# Timings of the reference task per probe; a probe keeps the fastest.
REPEATS = 3
# Seconds the reference task takes at the reference speed: its fastest
# probe on a 2-vCPU Xeon guest at 2.0 GHz under CPython 3.11.
NOMINAL_S = 0.0014

_KEYS = tuple(f"{chr(0x915 + i % 33)}{i % 41}:{i}" for i in range(2400))


def reference_task() -> int:
    """Fixed pure-Python work of the kinds ``hindimorph`` does: string
    slicing, dict lookups and updates, tuples, a sort."""
    counts: dict[str, int] = {}
    pairs = []
    for key in _KEYS:
        head = key[:2]
        counts[head] = counts.get(head, 0) + len(key)
        pairs.append((counts[head], key))
    pairs.sort()
    return len(pairs) + len(counts)


def probe_seconds() -> float:
    """The fastest of `REPEATS` timings of the reference task."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_task()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedLog:
    """Probes of the reference task, and the scaling they give."""

    def __init__(self) -> None:
        self.times: list[float] = []    # midpoint of each probe
        self.seconds: list[float] = []  # fastest reference timing of each probe
        self.last = float("-inf")

    def probe(self) -> None:
        start = time.perf_counter()
        self.seconds.append(probe_seconds())
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.last = end

    def due(self) -> bool:
        return time.perf_counter() - self.last >= INTERVAL

    def reference_at(self, t: float) -> float:
        """The reference time at moment `t`, interpolated between the
        probes around it."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.seconds[0]
        if i == len(self.times):
            return self.seconds[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        s0, s1 = self.seconds[i - 1], self.seconds[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0)

    def summary(self) -> dict[str, float]:
        """How many probes were taken, and their median, fastest and
        slowest timings in seconds."""
        return {"probes": len(self.seconds), "median_s": statistics.median(self.seconds),
                "min_s": min(self.seconds), "max_s": max(self.seconds),
                "nominal_s": NOMINAL_S}

    def scale(self, seconds: float, start: float, reference: float | None = None) -> float:
        """`seconds`, taken from `start`, at the reference speed.  A time
        taken in another process comes with that process's own
        `reference` timing."""
        if reference is None:
            reference = self.reference_at(start + seconds / 2)
        return seconds * NOMINAL_S / reference


class TimerProbes:
    """Probes taken every `INTERVAL` seconds *during* one long operation,
    from a timer signal, for an operation that cannot be split.

        with TimerProbes() as probes:
            long_operation()
        probes.seconds   # the probe timings, one before, some during, one after
        probes.spent     # seconds the probes took inside the operation

    The caller subtracts `spent` from the operation's time.  Only the
    main thread of a process can use it.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.seconds.append(probe_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "TimerProbes":
        self.seconds.append(probe_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds.append(probe_seconds())
