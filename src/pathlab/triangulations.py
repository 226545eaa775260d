"""Multi-triangulations of a convex polygon: enumeration by backtracking,
degree sequences, and the determinant that predicts their number."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .enumeration import enumerate_tuples
from .paths import Region
from .polynomials import int_determinant
from .tuples import PathTuple, h_stats, u_stats

Diagonal = tuple[int, int]


def catalan(m: int) -> int:
    if m < 0:
        return 0
    return comb(2 * m, m) // (m + 1)


def catalan_det(n: int, k: int) -> int:
    """k-by-k determinant of Catalan numbers with indices n-i-j."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return int_determinant(
        [[catalan(n - i - j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    )


def fan_region(n: int, k: int) -> Region:
    """Staircase region whose nested k-tuples the determinant counts."""
    m = n - 2 * k - 1
    if m < 0:
        raise ValueError("need n >= 2k + 1")
    return Region.from_steps("N" * m + "E" * m, "EN" * m)


def cyclic_distance(n: int, a: int, b: int) -> int:
    d = abs(a - b)
    return min(d, n - d)


def nontrivial_diagonals(n: int, k: int) -> list[Diagonal]:
    """Vertex pairs at cyclic distance greater than k, lexicographically."""
    if n < 2 * k + 1:
        raise ValueError("polygon too small")
    return [
        (a, b)
        for a, b in combinations(range(1, n + 1), 2)
        if cyclic_distance(n, a, b) > k
    ]


def crossing(d1: Diagonal, d2: Diagonal) -> bool:
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return a < c < b < d or c < a < d < b


@dataclass(frozen=True)
class Triangulation:
    n: int
    k: int
    diagonals: frozenset[Diagonal]


def degree_sequence(t: Triangulation) -> tuple[int, ...]:
    """Entry i counts neighbours of vertex i among the later vertices, for
    i up to n-k-1."""
    out = []
    for i in range(1, t.n - t.k):
        out.append(
            sum(1 for a, b in t.diagonals if (a == i and b > i) or (b == i and a > i))
        )
    return tuple(out)


def enumerate_k_triangulations(n: int, k: int):
    """All maximal sets of nontrivial diagonals with no k+1 mutually
    crossing, streamed in lexicographic order of their sorted diagonals."""
    if k < 1:
        raise ValueError("k must be at least 1")
    diagonals = nontrivial_diagonals(n, k)
    target = k * (n - 2 * k - 1)
    cross = {
        d: {e for e in diagonals if e != d and crossing(d, e)} for d in diagonals
    }

    def creates_big_cross(chosen: list[Diagonal], d: Diagonal) -> bool:
        crossers = [e for e in chosen if e in cross[d]]
        if len(crossers) < k:
            return False
        for sub in combinations(crossers, k):
            if all(crossing(p, q) for p, q in combinations(sub, 2)):
                return True
        return False

    def rec(start: int, chosen: list[Diagonal]):
        if len(chosen) == target:
            if all(
                creates_big_cross(chosen, d) for d in diagonals if d not in chosen
            ):
                yield Triangulation(n, k, frozenset(chosen))
            return
        if target - len(chosen) > len(diagonals) - start:
            return
        for idx in range(start, len(diagonals)):
            d = diagonals[idx]
            if not creates_big_cross(chosen, d):
                chosen.append(d)
                yield from rec(idx + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


@dataclass(frozen=True)
class NicolasReport:
    n: int
    k: int
    window_match: bool
    full_match: bool
    triangulation_count: int
    tuple_count: int

    @property
    def holds(self) -> bool:
        return self.window_match and self.full_match and (
            self.triangulation_count == self.tuple_count
        )


def degrees_from_tuple(pt: PathTuple, n: int, k: int) -> tuple[int, ...]:
    """Degree sequence predicted by the coincidence and unused-edge
    statistics of a nested tuple in the staircase region."""
    h = h_stats(pt)
    u = u_stats(pt)
    out = list(h[: min(k + 1, n - k - 1)])
    for i in range(k + 2, n - k):
        out.append(n - i - k - u[i - k - 2])
    return tuple(out)


def nicolas_check(n: int, k: int) -> NicolasReport:
    """Compare degree distributions over triangulations against the
    statistics of nested staircase tuples, both for the first k vertices
    and for the full degree sequence."""
    if k < 1:
        raise ValueError("k must be at least 1")
    region = fan_region(n, k)
    tuples = list(enumerate_tuples(region, k))
    tris = list(enumerate_k_triangulations(n, k))

    tri_degrees = [degree_sequence(t) for t in tris]
    tri_full = Counter(tri_degrees)
    tri_window = Counter(d[:k] for d in tri_degrees)
    tup_full = Counter(degrees_from_tuple(pt, n, k) for pt in tuples)
    tup_window = Counter(h_stats(pt)[:k] for pt in tuples)

    return NicolasReport(
        n,
        k,
        window_match=tri_window == tup_window,
        full_match=tri_full == tup_full,
        triangulation_count=len(tris),
        tuple_count=len(tuples),
    )
