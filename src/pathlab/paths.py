"""Lattice paths with unit north/east (and optional south) steps, and the
region between an upper and a lower boundary path.

A path from (0,0) to (x,y) is stored as the sequence of y-coordinates of its
east steps.  The step string is derived: each vertical run is placed
immediately before the east step it precedes, and the final ascent to height
y comes last.  For monotone paths the height sequence is weakly increasing;
when south steps are allowed any in-range height sequence is legal.

Every position view reads one rule off the heights of a monotone path:
column i (from 1) at height h_i puts its east step at position i + h_i of
the step string, and the north steps take the other positions of [1, x+y].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


class PathError(ValueError):
    """Raised when a step string does not describe a legal walk."""


class RegionError(ValueError):
    """Raised when two boundary paths do not bound a region."""


class InvariantError(AssertionError):
    """Raised when an invariant a theorem guarantees fails to hold.  Unlike a
    bare ``assert`` it survives ``python -O``."""


@dataclass(frozen=True, slots=True)
class Path:
    """A lattice path encoded by the heights of its east steps.

    heights[i] is the y-coordinate of the (i+1)-st east step; y is the height
    of the endpoint.  Columns are 1-based throughout.
    """

    heights: tuple[int, ...]
    y: int

    def __post_init__(self):
        object.__setattr__(self, "heights", tuple(self.heights))
        if self.y < 0:
            raise PathError("endpoint height must be a natural number")
        for h in self.heights:
            if not 0 <= h <= self.y:
                raise PathError(f"east step height {h} outside [0, {self.y}]")

    @classmethod
    def _of(cls, heights: tuple[int, ...], y: int) -> "Path":
        """A path whose heights, a tuple, are known to lie in [0, y]: the
        checks of ``__post_init__`` are skipped.  For trusted callers only."""
        path = object.__new__(cls)
        object.__setattr__(path, "heights", heights)
        object.__setattr__(path, "y", y)
        return path

    @property
    def x(self) -> int:
        return len(self.heights)

    @property
    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.heights, self.heights[1:]))

    def steps(self) -> str:
        """Canonical step string over {N, E, S}."""
        out = []
        prev = 0
        for h in self.heights:
            out.append(("N" if h > prev else "S") * abs(h - prev))
            out.append("E")
            prev = h
        out.append("N" * (self.y - prev))
        return "".join(out)

    def __str__(self) -> str:
        return self.steps()


def parse_path(text: str) -> Path:
    """Parse a step string over {N, E, S} into its height encoding.

    The walk must stay in the first quadrant, never traverse a lattice edge
    twice, and end no lower than its last east step (so that the trailing
    vertical run is an ascent).
    """
    cx, cy = 0, 0
    heights = []
    seen_edges = set()
    for i, ch in enumerate(text):
        if ch == "E":
            edge = ((cx, cy), (cx + 1, cy))
            cx += 1
            heights.append(cy)
        elif ch == "N":
            edge = ((cx, cy), (cx, cy + 1))
            cy += 1
        elif ch == "S":
            if cy == 0:
                raise PathError(f"walk leaves the first quadrant at step {i + 1}")
            edge = ((cx, cy - 1), (cx, cy))
            cy -= 1
        else:
            raise PathError(f"unexpected step character {ch!r}")
        if edge in seen_edges:
            raise PathError(f"walk revisits an edge at step {i + 1}")
        seen_edges.add(edge)
    if heights and cy < max(heights):
        raise PathError("endpoint height inconsistent with east step heights")
    return Path(tuple(heights), cy)


@lru_cache(maxsize=None)
def vertices(path: Path) -> frozenset[tuple[int, int]]:
    """All lattice points visited by the canonical walk of the path."""
    pts = {(0, 0)}
    cx, cy = 0, 0
    for h in path.heights:
        step = 1 if h >= cy else -1
        while cy != h:
            cy += step
            pts.add((cx, cy))
        cx += 1
        pts.add((cx, cy))
    while cy < path.y:
        cy += 1
        pts.add((cx, cy))
    return frozenset(pts)


@lru_cache(maxsize=None)
def north_edges(path: Path) -> frozenset[tuple[int, int]]:
    """Unit edges traversed northward, as (x, lower y) pairs."""
    edges = set()
    cx, prev = 0, 0
    for h in path.heights:
        if h > prev:
            edges.update((cx, v) for v in range(prev, h))
        cx += 1
        prev = h
    edges.update((cx, v) for v in range(prev, path.y))
    return frozenset(edges)


def descent_set(path: Path) -> frozenset[int]:
    """x-coordinates where the height sequence strictly drops."""
    out = []
    x = prev = 0  # heights are natural numbers, so column 1 is no descent
    for h in path.heights:
        if prev > h:
            out.append(x)
        prev = h
        x += 1
    return frozenset(out)


def north_index_set(path: Path) -> frozenset[int]:
    """1-based positions of the north steps in the canonical step string:
    those of [1, x+y] that no east step i + h_i takes.

    Only defined for monotone paths.
    """
    if not path.is_monotone:
        raise PathError("north step index set requires a monotone path")
    easts = {i + h for i, h in enumerate(path.heights, 1)}
    return frozenset(range(1, path.x + path.y + 1)).difference(easts)


def path_from_north_set(x: int, y: int, norths: frozenset[int]) -> Path:
    """Inverse of north_index_set for a path with x east and y north steps:
    the i-th east position p_i gives h_i = p_i - i."""
    if len(norths) != y or not all(1 <= p <= x + y for p in norths):
        raise PathError("north index set must pick y positions in [1, x+y]")
    easts = sorted(set(range(1, x + y + 1)).difference(norths))
    return Path(tuple(p - i for i, p in enumerate(easts, 1)), y)


class ContactStats(NamedTuple):
    t: int
    b: int
    l: int
    r: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


@dataclass(frozen=True, slots=True)
class Region:
    """The set of paths weakly below a top boundary and weakly above a
    bottom boundary, both monotone paths from (0,0) to (x,y)."""

    top: Path
    bottom: Path

    def __post_init__(self):
        t, b = self.top, self.bottom
        if not (t.is_monotone and b.is_monotone):
            raise RegionError("boundaries must be monotone")
        if t.x != b.x or t.y != b.y:
            raise RegionError("boundaries must share their endpoint")
        for i, (th, bh) in enumerate(zip(t.heights, b.heights)):
            if th < bh:
                raise RegionError(
                    f"dominance violated at column {i + 1}: top {th} < bottom {bh}"
                )

    @classmethod
    def _of(cls, top: Path, bottom: Path) -> "Region":
        """A region whose boundaries are known to be monotone paths to one
        endpoint, the top weakly above the bottom in every column: the
        checks of ``__post_init__`` are skipped.  For trusted callers only."""
        region = object.__new__(cls)
        object.__setattr__(region, "top", top)
        object.__setattr__(region, "bottom", bottom)
        return region

    @property
    def x(self) -> int:
        return self.top.x

    @property
    def y(self) -> int:
        return self.top.y

    @property
    def t_heights(self) -> tuple[int, ...]:
        return self.top.heights

    @property
    def b_heights(self) -> tuple[int, ...]:
        return self.bottom.heights

    @classmethod
    def from_steps(cls, top: str, bottom: str) -> "Region":
        return cls(parse_path(top), parse_path(bottom))

    @classmethod
    def parse(cls, text: str) -> "Region":
        """Parse the textual form ``T=<steps>;B=<steps>``; the two labelled
        parts may come in either order."""
        parts: dict[str, str] = {}
        for chunk in text.split(";"):
            label, sep, steps = chunk.partition("=")
            if not sep or label not in ("T", "B"):
                raise RegionError(f"cannot parse region part {chunk!r} in {text!r}")
            if label in parts:
                raise RegionError(f"label {label} given twice in {text!r}")
            parts[label] = steps
        for label in ("T", "B"):
            if label not in parts:
                raise RegionError(f"label {label} missing from {text!r}")
        return cls.from_steps(parts["T"], parts["B"])

    def __str__(self) -> str:
        return f"T={self.top};B={self.bottom}"


def check_dimensions(region: Region, path: Path) -> None:
    """Raise ``RegionError`` unless the path ends where the region does."""
    top = region.top
    if len(path.heights) != len(top.heights) or path.y != top.y:
        raise RegionError("path and region dimensions differ")


def contains(region: Region, path: Path) -> bool:
    """Whether the path lies weakly between the two boundaries."""
    check_dimensions(region, path)
    return all(
        b <= h <= t
        for b, h, t in zip(region.b_heights, path.heights, region.t_heights)
    )


class _Columns(NamedTuple):
    stats: ContactStats
    word: str
    cols: tuple[int, ...]
    unmatched_b: tuple[int, ...]
    unmatched_t: tuple[int, ...]
    free: tuple[int, ...]


# What _columns scanned and what swaps.swapall moved each path to, keyed by
# the path's heights, for one region at a time, _held[0]: holding it keeps
# its id from being reused.  KEEP_CAP bounds what a listing of one large
# region keeps (a 7x7 square has about 2M paths with south steps).
_held: list[Region | None] = [None]
_records: dict[tuple[int, ...], _Columns] = {}
_images: dict[tuple[int, ...], Path | None] = {}
KEEP_CAP = 1 << 14


def _keep(region: Region, table: dict, heights: tuple[int, ...], value) -> None:
    """Store ``value`` under ``heights`` in ``table``, one of the two tables
    above: both are emptied first when ``region`` is not the region they
    hold, and ``table`` alone when it has ``KEEP_CAP`` entries."""
    if _held[0] is not region:
        _held[0] = region
        _records.clear()
        _images.clear()
    elif len(table) >= KEEP_CAP:
        table.clear()
    table[heights] = value


def _columns(region: Region, path: Path) -> _Columns:
    """Classify each column (h, t_j, b_j) of a path as a top contact, a
    bottom contact, both, or free, in one walk, or raise ``RegionError``
    (dimensions first, then the first column outside the region).

    ``stats`` counts a column on both boundaries toward t and b.  The run
    before column i covers [h_prev, h) and the top's [th_prev, th); as
    h <= th they share max(0, h - max(h_prev, th_prev)) north edges, and
    likewise min(h, bh) = bh for the bottom; the final runs, up to y, follow
    the last column.  ``word`` has a letter per column on one boundary only,
    at the 1-based ``cols``; ``t`` pushes and ``b`` pops the last unmatched
    ``t``, as in ``words.factorize``, leaving ``unmatched_b``/``_t`` (indices
    into ``cols``).  ``free`` has the free columns' heights.

    A record is kept by ``_keep`` under the path's heights, so each height
    vector of a region is scanned once while the region stays the one
    held: the involution reads every path twice, once itself and once as
    another path's image.  A scan that raises keeps nothing, and a path
    whose endpoint is not the region's is always scanned.
    """
    if _held[0] is region and path.y == region.top.y:
        record = _records.get(path.heights)
        if record is not None:
            return record
    check_dimensions(region, path)
    t = b = l = r = hp = tp = bp = col = 0
    word = ""
    cols, unmatched_b, unmatched_t, free = [], [], [], []
    for h, th, bh in zip(path.heights, region.top.heights, region.bottom.heights):
        col += 1
        if h == th:
            t += 1
            if h == bh:
                b += 1
            else:
                unmatched_t.append(len(cols))
                cols.append(col)
                word += "t"
        elif h == bh:
            b += 1
            if unmatched_t:
                unmatched_t.pop()
            else:
                unmatched_b.append(len(cols))
            cols.append(col)
            word += "b"
        elif bh < h < th:
            free.append(h)
        else:
            raise RegionError("path does not lie in the region")
        if h > hp:
            if h > tp:
                l += h - (hp if hp > tp else tp)
            if bh > hp and bh > bp:
                r += bh - (hp if hp > bp else bp)
        hp, tp, bp = h, th, bh
    l += path.y - (hp if hp > tp else tp)
    r += path.y - (hp if hp > bp else bp)
    # tuple.__new__ skips the Python-level __new__ of a NamedTuple
    stats = tuple.__new__(ContactStats, (t, b, l, r))
    record = tuple.__new__(_Columns, (stats, word, tuple(cols), tuple(unmatched_b), tuple(unmatched_t), tuple(free)))
    _keep(region, _records, path.heights, record)
    return record


def contact_stats(region: Region, path: Path) -> ContactStats:
    """East steps (t, b) and north edges (l, r) shared with each boundary."""
    return _columns(region, path).stats


def noncontact_heights(region: Region, path: Path) -> tuple[int, ...]:
    """Heights of the east steps on neither boundary, in column order."""
    return _columns(region, path).free
