"""A fixed piece of pure-Python work that measures the host's current speed.

On the 2-core host the benchmark was tuned on, the same Python code runs up
to twice as slowly, for seconds to minutes at a time, whatever the process
itself does.  No statistic over one run removes a slow spell that outlasts
the run, so every time the benchmark reports is scaled to reference speed:
multiplied by ``NOMINAL_S`` over the time this reference took next to it.
Where the reference takes ``NOMINAL_S``, the scaled time is the measured
one.

The reference does not use pathlab, so no change to pathlab can move it.
There are two, because slow spells do not slow every kind of Python code
alike: ``path_work`` does what the path workloads' inner loops do (build
frozen dataclasses that validate their fields, zip and compare tuples,
build frozensets, count in a dict) and ``tableau_work`` what the tableau
repair does (scan rows of tuples against their neighbours and rebuild
them).  On the tuning host ``path_work`` tracks the path workloads'
slowdown within a few per cent; ``tableau_work`` tracks the tableau
workload's within about ten, better than ``path_work`` does.  Changing a
reference changes every timing, so it changes only together with the
baselines measured on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from statistics import median

NOMINAL_S = 0.0005
# Column ranges of a small region; 144 height sequences.
LOW = (0, 0, 1, 1)
HIGH = (2, 3, 3, 4)


@dataclass(frozen=True)
class _Walk:
    heights: tuple[int, ...]
    y: int

    def __post_init__(self):
        object.__setattr__(self, "heights", tuple(self.heights))
        for h in self.heights:
            if not 0 <= h <= self.y:
                raise ValueError("height out of range")


def path_work() -> int:
    counts: dict[tuple, int] = {}
    for heights in product(*(range(a, b + 1) for a, b in zip(LOW, HIGH))):
        w = _Walk(heights, HIGH[-1])
        top = sum(h == c for h, c in zip(w.heights, HIGH))
        bottom = sum(h == c for h, c in zip(w.heights, LOW))
        descents = frozenset(i for i in range(len(LOW) - 1) if w.heights[i] > w.heights[i + 1])
        key = (top, bottom, descents)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


TABLEAU = ((1, 1, 2, 3), (2, 3, 4), (4, 5), (6,))


def tableau_work() -> int:
    rows = TABLEAU
    found = 0
    for _ in range(130):
        for r, row in enumerate(rows):
            for c, e in enumerate(row):
                above = rows[r - 1][c] if r > 0 and c < len(rows[r - 1]) else None
                left = row[c - 1] if c > 0 else None
                if (above is not None and above >= e) or (left is not None and left > e):
                    found += 1
        rows = tuple(tuple(e for e in row) for row in rows)
    return found


def seconds(work, clock) -> float:
    start = clock()
    work()
    return clock() - start


def scales(times: list[float], window: int = 4) -> list[float]:
    """For each reference time, the factor to scale the work next to it:
    ``NOMINAL_S`` over the median of the reference times within ``window``
    places, which damps the noise of a single short measurement."""
    n = len(times)
    return [NOMINAL_S / median(times[max(0, i - window) : i + window + 1]) for i in range(n)]
