"""Matroid bases oracles, internal/external activities, the activity
generating polynomial, and the order-change bijection on bases.

One oracle type, ``BasesOracle``, holds a matroid's bases as bit masks,
listed once when it is built; lattice path matroids (bases = north-step
index sets of region paths) and uniform matroids are the two built here.
Every activity question reads one table per oracle, its exchange masks
``oracle.masks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable

from .enumeration import _height_sequences
from .paths import (
    InvariantError,
    Path,
    PathError,
    Region,
    contains,
    north_index_set,
    path_from_north_set,
)
from .polynomials import MultiPoly
from .tuples import PathTuple, _inner_region, _replace, bubble_swaps, h_stats, v_stats


@dataclass(frozen=True)
class BasesOracle:
    """A matroid on the ground set 1..ground_size.  ``is_base`` tests one
    subset; ``base_bits`` lists every base as a bit mask (bit e set for
    element e), in lexicographic order of their sorted elements.  ``masks``,
    built once, maps those bits to their ``exchange_masks`` rows; every
    activity reads it."""

    ground_size: int
    rank: int
    is_base: Callable[[frozenset[int]], bool]
    base_bits: tuple[int, ...]

    def bases(self) -> list[frozenset[int]]:
        ground = range(1, self.ground_size + 1)
        return [frozenset(e for e in ground if bits >> e & 1) for bits in self.base_bits]

    @cached_property
    def masks(self) -> dict[int, list[int]]:
        return exchange_masks(self.base_bits, self.ground_size)


@dataclass(frozen=True)
class LinearOrder:
    """ranking[p] is the (p+1)-st smallest ground element."""

    ranking: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if sorted(self.ranking) != list(range(1, len(self.ranking) + 1)):
            raise ValueError("ranking must be a permutation of 1..m")
        object.__setattr__(
            self,
            "rank_of",
            {e: p for p, e in enumerate(self.ranking)},
        )

    def precedes(self, a: int, b: int) -> bool:
        return self.rank_of[a] < self.rank_of[b]

    def transpose_adjacent(self, a: int, b: int) -> "LinearOrder":
        pa, pb = self.rank_of[a], self.rank_of[b]
        if abs(pa - pb) != 1:
            raise ValueError("elements are not adjacent in the order")
        ranking = list(self.ranking)
        ranking[pa], ranking[pb] = ranking[pb], ranking[pa]
        return LinearOrder(tuple(ranking))


def natural_order(m: int) -> LinearOrder:
    return LinearOrder(tuple(range(1, m + 1)))


def reversed_order(m: int) -> LinearOrder:
    return LinearOrder(tuple(range(m, 0, -1)))


def lpm_oracle(region: Region) -> BasesOracle:
    """Bases are the y-subsets of [x+y] that are the north-step positions of
    some path in the region.  ``is_base`` tests one subset without listing
    any.  ``base_bits`` takes each path's complement of its east positions
    i + h_i (see ``paths``), in reversed height order, which is the
    lexicographic order of north-step sets: where two paths first differ,
    the higher one takes a north step where the lower takes an east step."""
    x, y = region.x, region.y

    def is_base(subset: frozenset[int]) -> bool:
        if len(subset) != y:
            return False
        try:
            path = path_from_north_set(x, y, frozenset(subset))
        except PathError:
            return False
        return contains(region, path)

    full = (1 << x + y + 1) - 2
    bits = [
        full - sum(1 << i + h for i, h in enumerate(heights, 1))
        for heights in _height_sequences(region.b_heights, region.t_heights)
    ]
    return BasesOracle(x + y, y, is_base, tuple(reversed(bits)))


def uniform_oracle(rank: int, ground_size: int) -> BasesOracle:
    bits = (sum(1 << e for e in c) for c in combinations(range(1, ground_size + 1), rank))
    return BasesOracle(ground_size, rank, lambda s: len(s) == rank, tuple(bits))


def _row(oracle: BasesOracle, base: frozenset[int]) -> list[int]:
    """The base's row of ``oracle.masks``, or ValueError for a non-base."""
    row = oracle.masks.get(sum(1 << e for e in base))
    if row is None:
        raise ValueError("not a base")
    return row


def _below(ranking: tuple[int, ...]) -> dict[int, int]:
    """For each element of ``ranking``, the bit mask of the elements ranked
    before it."""
    below = {}
    seen = 0
    for e in ranking:
        below[e] = seen
        seen |= 1 << e
    return below


def active_elements(
    oracle: BasesOracle, base: frozenset[int], order: LinearOrder
) -> tuple[frozenset[int], frozenset[int]]:
    """(internally active, externally active) element sets."""
    row = _row(oracle, base)
    below = _below(order.ranking)
    active = frozenset(e for e in range(1, oracle.ground_size + 1) if row[e] & below[e] == 0)
    return active & base, active - base


def activities(
    oracle: BasesOracle, base: frozenset[int], order: LinearOrder
) -> tuple[int, int]:
    internal, external = active_elements(oracle, base, order)
    return len(internal), len(external)


def exchange_masks(encoded: tuple[int, ...], m: int) -> dict[int, list[int]]:
    """Map each base over the ground set 1..m, given as a bit mask (bit e
    set for element e), to its row: for each ground element e, the bit mask
    of the elements f such that exchanging e and f (one in the base, the
    other not) gives another listed base.

    The list must hold every base of the matroid: ``activity_terms`` then
    reads activities under any order off these masks alone.
    """
    listed = set(encoded)
    bit = [1 << e for e in range(m + 1)]
    ground = range(1, m + 1)
    out = {}
    for bits in encoded:
        row = [0] * (m + 1)
        inside = [e for e in ground if bits & bit[e]]
        outside = [f for f in ground if not bits & bit[f]]
        for e in inside:
            without = bits ^ bit[e]
            partners = 0
            for f in outside:
                if without | bit[f] in listed:
                    partners |= bit[f]
                    row[f] |= bit[e]
            row[e] = partners
        out[bits] = row
    return out


def activity_terms(
    masks: dict[int, list[int]], ranking: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """Counts of (internal, external) activity pairs over the bases whose
    ``exchange_masks`` are given, under the order listing ``ranking``
    smallest first.  An element is active when no smaller element
    exchanges with it."""
    below = _below(ranking).items()
    terms: dict[tuple[int, int], int] = {}
    for bits, row in masks.items():
        internal = external = 0
        for e, smaller in below:
            if row[e] & smaller == 0:
                if bits >> e & 1:
                    internal += 1
                else:
                    external += 1
        terms[(internal, external)] = terms.get((internal, external), 0) + 1
    return terms


def tutte_poly(oracle: BasesOracle, order: LinearOrder) -> MultiPoly:
    """Generating polynomial x^(internal activity) y^(external activity)
    over all bases, read off ``oracle.masks``, which every order shares."""
    if len(order.ranking) != oracle.ground_size:
        raise ValueError("the order must rank the whole ground set")
    return MultiPoly(("x", "y"), activity_terms(oracle.masks, order.ranking))


def strong_exchange(
    oracle: BasesOracle, c_base: frozenset[int], d_base: frozenset[int], d: int
) -> int:
    """First element c of C minus D with both C-c+d and D-d+c bases."""
    if d not in d_base or d in c_base:
        raise ValueError("d must lie in D and not in C")
    for c in sorted(c_base - d_base):
        if oracle.is_base(c_base - {c} | {d}) and oracle.is_base(d_base - {d} | {c}):
            return c
    raise ValueError("strong exchange failed: oracle is not a matroid")


def phi_xy(
    oracle: BasesOracle,
    order: LinearOrder,
    x: int,
    y: int,
    base: frozenset[int],
) -> frozenset[int]:
    """Activity-preserving base bijection for transposing the adjacent pair
    x before y in the order: the x-y exchange when it is a base and x is
    active, or y is once moved before x (below the same elements)."""
    row = _row(oracle, base)
    if not order.precedes(x, y) or abs(order.rank_of[x] - order.rank_of[y]) != 1:
        raise ValueError("x must immediately precede y in the order")
    if not row[x] >> y & 1:
        return base
    before = _below(order.ranking)[x]
    if row[x] & before == 0 or row[y] & before == 0:
        return frozenset(base ^ {x, y})
    return base


def reorder_bijection(
    oracle: BasesOracle,
    from_order: LinearOrder,
    to_order: LinearOrder,
    base: frozenset[int],
) -> frozenset[int]:
    """Compose the adjacent-step bijection along the bubble path between the
    two orders; activities with respect to the target order match the
    original activities with respect to the source order.  A non-base raises
    ``ValueError``, even when the two orders agree."""
    _row(oracle, base)
    cur_order = from_order
    cur_base = base
    for p in bubble_swaps(from_order.ranking, to_order.rank_of):
        x, y = cur_order.ranking[p], cur_order.ranking[p + 1]
        cur_base = phi_xy(oracle, cur_order, x, y, cur_base)
        cur_order = cur_order.transpose_adjacent(x, y)
    if cur_order != to_order:
        raise InvariantError("the bubble steps did not reach the target order")
    return cur_base


def left_contact_positions(region: Region, path: Path) -> frozenset[int]:
    """String positions of the north steps shared with the top boundary.
    At x = c the path's north run [h_c, h_{c+1}) and the top's [t_c, t_{c+1})
    (with h_0 = t_0 = 0 and y after the last column) overlap in the steps
    from height v to v + 1, at position c + v + 1."""
    h, t = path.heights, region.t_heights
    runs = zip((0, *h), (*h, path.y), (0, *t), (*t, region.y))
    return frozenset(
        c + v + 1 for c, (hp, hn, tp, tn) in enumerate(runs) for v in range(max(hp, tp), min(hn, tn))
    )


def bottom_contact_positions(region: Region, path: Path) -> frozenset[int]:
    """String positions i + h_i of the east steps shared with the bottom
    boundary."""
    return frozenset(
        i + h for i, (h, b) in enumerate(zip(path.heights, region.b_heights), 1) if h == b
    )


def bltr_single_path(region: Region, path: Path) -> Path:
    """Map a path with bottom/left contact counts (e, f) to one with
    top/right counts (e, f), by changing the activity order of the lattice
    path matroid from the natural order to its reversal."""
    if not path.is_monotone or not contains(region, path):
        raise ValueError("need a monotone path inside the region")
    m = region.x + region.y
    oracle = lpm_oracle(region)
    base = north_index_set(path)
    image = reorder_bijection(oracle, natural_order(m), reversed_order(m), base)
    return path_from_north_set(region.x, region.y, image)


def bltr_tuple_bijection(t: PathTuple) -> PathTuple:
    """Map tuples with bottom/left contacts (e, f) to tuples with top/right
    contacts (e, f), sweeping the single-path bijection up then down."""
    b_in, l_in = h_stats(t)[-1], v_stats(t)[0]
    image = t
    for i in [*range(t.k, 0, -1), *range(2, t.k + 1)]:
        local = _inner_region(image, i)
        image = _replace(image, i, bltr_single_path(local, image.paths[i - 1]))
    if not (h_stats(image)[0] == b_in and v_stats(image)[-1] == l_in):
        raise InvariantError("the sweep did not carry (b, l) to (t, r)")
    return image
