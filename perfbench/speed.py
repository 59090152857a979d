"""Host speed: a fixed reference task timed all through a run.

The benchmark runs on shared hosts whose cores also serve other
tenants, so the same code can run a third faster or slower from one
minute to the next.  Raw times then say as much about the neighbours as
about the program.  Each run therefore times a fixed reference task
(JSON decoding, dict and string work, sorting and NumPy kernels, the
mix the program's own layers run) many times, spread over the whole
run between the measured operations, and reports every measured time
scaled to a nominal host on which the reference takes ``NOMINAL_MS``:

    reported = raw * NOMINAL_MS / median(reference times near it)

"Near" is within ``WINDOW_S`` of the operation, or else the
``MIN_REFERENCES`` samples closest to it, so a slow spell of the host
is matched by the reference samples taken in it.  A change to the
program moves its times and not the reference's, so the scaled figures
move with it; a slower or faster host moves both and cancels out.  The
raw figures are printed beside them.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

#: Reference time of the nominal host, in milliseconds.
NOMINAL_MS = 5.0
#: Reference samples this close (seconds) to an operation scale it.
WINDOW_S = 1.0
#: Fewest reference samples that scale one operation.
MIN_REFERENCES = 6

_RECORDS = json.dumps([
    {"id": i, "labels": ["Person"] if i % 3 else ["Post", "Message"],
     "properties": {"name": f"n{i % 97}", "score": i * 0.5, "rank": i}}
    for i in range(600)
])
_KEYS = [f"key{i % 211}:{i % 7}" for i in range(4000)]
_VALUES = np.random.default_rng(0).integers(0, 5000, 40000)
_MATRIX = np.random.default_rng(1).random((96, 96))


def reference() -> int:
    """The fixed task: about 5 ms on a mid-range core."""
    records = json.loads(_RECORDS)
    patterns: dict[tuple[str, ...], int] = {}
    for record in records:
        key = tuple(sorted(record["properties"])) + tuple(record["labels"])
        patterns[key] = patterns.get(key, 0) + 1
    counts: dict[str, int] = {}
    for key in _KEYS:
        head = key.split(":", 1)[0]
        counts[head] = counts.get(head, 0) + len(key)
    ordered = sorted(_KEYS, key=lambda key: (len(key), key))
    unique = np.unique(_VALUES)
    product = _MATRIX @ _MATRIX
    return len(patterns) + len(counts) + len(ordered) + int(unique.size) \
        + int(product.shape[0])


class HostSpeed:
    """Reference samples of one process: ``(perf_counter, ms)`` pairs.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so
    samples and operations of different processes share one time line.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, count: int = 3) -> None:
        """Time the reference ``count`` times (garbage collector paused,
        so a collection of the program's heap is not charged to it)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = time.perf_counter()
                reference()
                ended = time.perf_counter()
                self.samples.append((ended, (ended - started) * 1e3))
        finally:
            if enabled:
                gc.enable()


def local_factor(start: float, end: float,
                 samples: list[tuple[float, float]]) -> float:
    """Scale to the nominal host for an operation from ``start`` to ``end``."""
    near = [ms for at, ms in samples
            if start - WINDOW_S <= at <= end + WINDOW_S]
    if len(near) < MIN_REFERENCES:
        middle = (start + end) / 2
        closest = sorted(samples, key=lambda item: abs(item[0] - middle))
        near = [ms for _, ms in closest[:MIN_REFERENCES]]
    return NOMINAL_MS / statistics.median(near)


def nominal(timed: list[tuple[float, float, float]],
            samples: list[tuple[float, float]]) -> list[float]:
    """``(start, end, value)`` of measured times -> values on the
    nominal host."""
    return [value * local_factor(start, end, samples)
            for start, end, value in timed]
