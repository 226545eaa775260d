"""Matroid bases oracles, internal/external activities, the activity
generating polynomial, and the order-change bijection on bases.

One oracle type, ``BasesOracle``, holds a matroid's bases as bit masks,
listed once: a lattice path matroid's (north-step index sets of region
paths) by a column transfer, a uniform matroid's from its subsets.  The
activities of one base read the exchange buckets ``oracle.buckets``.  The
activity polynomial has two kernels with one answer: on few bases
(n * m < max(128, 2^m / 16)) one step per order for each bucket of two or
more elements, on top of their order-free part ``oracle.split``; on more,
a few operations per element on ``oracle.bitmaps``, which hold the bases
as one integer of 2^m bits.  Each table is built once per oracle, on the
first question that reads it, and shared by every order.

An order of the ground set is its ranking tuple, smallest element first:
``natural_order``, ``reversed_order``, a permutation, or adjacent swaps of
one.  ``tutte_poly`` refuses a ranking that is not a permutation of 1..m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from operator import or_

from .paths import (
    InvariantError,
    Path,
    Region,
    contains,
    north_edges,
    north_index_set,
    path_from_north_set,
)
from .polynomials import MultiPoly
from .tuples import PathTuple, _inner_region, _replace, bubble_swaps, h_stats, v_stats


@dataclass(frozen=True)
class BasesOracle:
    """A matroid on the ground set 1..ground_size.  ``base_bits`` lists
    every base as a bit mask (bit e set for element e), in lexicographic
    order of their sorted elements.  ``base_set``, ``bitmaps``, ``buckets``
    and ``split`` are each built once, on the first question that reads
    them."""

    ground_size: int
    rank: int
    base_bits: tuple[int, ...]

    def bases(self) -> list[frozenset[int]]:
        ground = range(1, self.ground_size + 1)
        return [frozenset(e for e in ground if bits >> e & 1) for bits in self.base_bits]

    @cached_property
    def base_set(self) -> frozenset[int]:
        return frozenset(self.base_bits)

    @cached_property
    def bitmaps(self) -> tuple[int, list[int], list[int]]:
        """The bases as one bitmap of 2^m bits, bit B >> 1 set for each base
        mask B (bit 0 of a mask is unused), and two lists indexed by
        element e: its plane, the bitmap of the indices that hold e, and
        its keys, the bases moved across e (``_across``), which are the
        sets one element away from a base whose bucket holds e."""
        m = self.ground_size
        size = 1 << m
        index = bytearray(size + 7 >> 3)
        for bits in self.base_bits:
            index[bits >> 4] |= 1 << (bits >> 1 & 7)
        bases = int.from_bytes(index, "little")
        planes, keys = [0], [0]
        for e in range(1, m + 1):
            step = 1 << e - 1
            plane, period = (1 << step) - 1 << step, 2 * step
            while period < size:
                plane |= plane << period
                period *= 2
            planes.append(plane)
            keys.append(_across(bases, plane, e))
        return bases, planes, keys

    @cached_property
    def buckets(self) -> dict[int, int]:
        return exchange_buckets(self.base_bits, self.ground_size)

    @cached_property
    def split(self) -> tuple[dict[int, int], list[tuple[int, int]]]:
        """What no order changes, and the rest.  Under any order a bucket
        holds one active (base, element) pair: its least element e, for the
        base key ^ e, internal when that base is the larger set.  So each
        one-element bucket credits its base here, in a score per base that
        packs (internal, external) as internal + (m + 1) * external; the
        buckets of two or more elements are listed for each order."""
        radix = self.ground_size + 1
        seed = dict.fromkeys(self.base_bits, 0)
        multi = []
        for key, bucket in self.buckets.items():
            if bucket & bucket - 1:
                multi.append((key, bucket))
            else:
                base = key ^ bucket
                seed[base] += 1 if base > key else radix
        return seed, multi


def natural_order(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def reversed_order(m: int) -> tuple[int, ...]:
    return tuple(range(m, 0, -1))


def lpm_oracle(region: Region) -> BasesOracle:
    """Bases are the y-subsets of [x+y] that are the north-step positions of
    some path in the region.  ``base_bits`` takes each path's complement of
    its east positions i + h_i (see ``paths``) by a column transfer, right
    to left, highest heights first: ``masks[:ends[h]]`` lists the masks of
    the columns to the right for the paths whose next column is at height
    >= h.  That is the lexicographic order of north-step sets: where two
    paths first differ, the higher one takes a north step."""
    x, y = region.x, region.y
    masks, ends = [(1 << x + y + 1) - 2], [1] * (y + 1)
    for c in range(x, 0, -1):
        column: list[int] = []
        column_ends = []
        for h in range(region.t_heights[c - 1], region.b_heights[c - 1] - 1, -1):
            east = 1 << c + h
            column += [bits ^ east for bits in masks[: ends[h]]]
            column_ends.append(len(column))
        masks, ends = column, [len(column)] * region.b_heights[c - 1] + column_ends[::-1]
    return BasesOracle(x + y, y, tuple(masks))


def uniform_oracle(rank: int, ground_size: int) -> BasesOracle:
    bits = (sum(1 << e for e in c) for c in combinations(range(1, ground_size + 1), rank))
    return BasesOracle(ground_size, rank, tuple(bits))


def _bits(oracle: BasesOracle, base: frozenset[int]) -> int:
    """The base's bit mask, or ValueError for a non-base: an element outside
    1..m (refused before any is shifted), or a mask the oracle does not list."""
    ground = range(1, oracle.ground_size + 1)
    if all(e in ground for e in base):
        bits = sum(1 << e for e in base)
        if bits in oracle.base_set:
            return bits
    raise ValueError("not a base")


def active_elements(
    oracle: BasesOracle, base: frozenset[int], order: tuple[int, ...]
) -> tuple[frozenset[int], frozenset[int]]:
    """(internally active, externally active) element sets."""
    bits = _bits(oracle, base)
    buckets = oracle.buckets
    # each element's bit mask of the elements ranked before it
    below = dict(zip(order, accumulate((1 << e for e in order), or_, initial=0)))
    ground = range(1, oracle.ground_size + 1)
    active = frozenset(e for e in ground if buckets[bits ^ 1 << e] & below[e] == 0)
    return active & base, active - base


def activities(
    oracle: BasesOracle, base: frozenset[int], order: tuple[int, ...]
) -> tuple[int, int]:
    internal, external = active_elements(oracle, base, order)
    return len(internal), len(external)


def exchange_buckets(encoded: tuple[int, ...], m: int) -> dict[int, int]:
    """Map each set one element away from a listed base over 1..m, B - e or
    B + e with B a bit mask (bit e set for element e), to its bucket: the
    bit mask of the elements whose toggle takes it to a listed base, e
    itself and every f that exchanges with e.  So e is active in B under an
    order exactly when the bucket of B ^ e meets no element ranked before
    e.  With every base of the matroid listed, activities under any order
    read these buckets alone."""
    bit = [1 << e for e in range(1, m + 1)]
    buckets: dict[int, int] = {}
    for bits in encoded:
        for b in bit:
            key = bits ^ b
            buckets[key] = buckets.get(key, 0) | b
    return buckets


def activity_terms(oracle: BasesOracle, ranking: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Counts of (internal, external) activity pairs over the oracle's
    bases, under the order listing ``ranking`` smallest first.

    Two kernels give the same counts.  The bitmap side, ``_bitmap_terms``,
    makes a few whole-bitmap operations per element on ``oracle.bitmaps``,
    2^m bits each; the bucket side, ``_bucket_terms``, one step per
    multi-element bucket of ``oracle.split``.  The bitmap side runs once
    the n bases give n * m >= max(128, 2^m / 16) (base, element) pairs.
    The 2^m / 16 keeps each bitmap within 16 bits per pair: a 200-by-1
    region has m = 201 and only 201 bases.  Below 128 pairs one order
    costs less through the buckets, which matters to the sweeps that try
    every order of a small ground set."""
    m = oracle.ground_size
    if len(oracle.base_bits) * m >= max(128, (1 << m) // 16):
        return _bitmap_terms(oracle, ranking)
    return _bucket_terms(oracle, ranking)


def _across(bitmap: int, plane: int, e: int) -> int:
    """Move every index of the bitmap across element e: toggle bit e - 1 of
    each index, where ``plane`` holds the indices that have it set."""
    step = 1 << e - 1
    high = bitmap & plane
    return high >> step | (bitmap ^ high) << step


def _count(slices: list[int], bitmap: int) -> None:
    """Add 1 at each index of the bitmap to the bit-sliced counter, whose
    i-th slice is the bitmap of the indices with bit i of their count set."""
    for i, digit in enumerate(slices):
        if not bitmap:
            return
        slices[i] = digit ^ bitmap
        bitmap &= digit
    if bitmap:
        slices.append(bitmap)


def _split(bitmap: int, slices: list[int]) -> list[tuple[int, int]]:
    """The nonempty parts of the bitmap whose indices share one count of the
    bit-sliced counter, each with that count."""
    parts = [(0, bitmap)]
    for i, digit in enumerate(slices):
        step = 1 << i
        split = []
        for count, whole in parts:
            part = whole & digit
            if part:
                split.append((count + step, part))
            if part != whole:
                split.append((count, whole ^ part))
        parts = split
    return parts


def _bitmap_terms(oracle: BasesOracle, ranking: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """``activity_terms`` on the bitmaps: element e is active in the bases
    whose move across e lands on a key of e that no element ranked before
    e has, for there e is the least element of the bucket; it counts as
    internal in the bases that hold it.  Each (internal, external) count
    is then the size of the bases that share that internal count and that
    external count."""
    bases, planes, keys = oracle.bitmaps
    internal: list[int] = []
    external: list[int] = []
    seen = 0
    for e in ranking:
        active = _across(keys[e] & ~seen, planes[e], e)
        seen |= keys[e]
        inside = active & planes[e]
        _count(internal, inside)
        _count(external, active ^ inside)
    by_external = _split(bases, external)
    terms = {}
    for i, row in _split(bases, internal):
        for j, column in by_external:
            n = (row & column).bit_count()
            if n:
                terms[i, j] = n
    return terms


def _bucket_terms(oracle: BasesOracle, ranking: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """``activity_terms`` on the buckets: one step per bucket of two or more
    elements, which credits the first element of the ranking that it holds
    on top of the scores in ``oracle.split``."""
    seed, multi = oracle.split
    radix = oracle.ground_size + 1
    scores = seed.copy()
    bits_in_order = [1 << e for e in ranking]
    for key, bucket in multi:
        for least in bits_in_order:
            if bucket & least:
                break
        base = key ^ least
        scores[base] += 1 if base > key else radix
    counts: dict[int, int] = {}
    for score in scores.values():
        counts[score] = counts.get(score, 0) + 1
    return {(score % radix, score // radix): n for score, n in counts.items()}


def tutte_poly(oracle: BasesOracle, order: tuple[int, ...]) -> MultiPoly:
    """Generating polynomial x^(internal activity) y^(external activity)
    over all bases, read by ``activity_terms`` off the bitmaps when the n
    bases give n * m >= max(128, 2^m / 16), else off the buckets' split;
    either table is shared by every order.  The order must be a permutation
    of the ground set 1..m.  Every count of ``activity_terms`` is
    positive, so the polynomial skips the checks of ``MultiPoly``."""
    if sorted(order) != list(range(1, oracle.ground_size + 1)):
        raise ValueError("the order must rank the whole ground set")
    return MultiPoly._of(("x", "y"), activity_terms(oracle, order))


def phi_xy(
    oracle: BasesOracle,
    order: tuple[int, ...],
    x: int,
    y: int,
    base: frozenset[int],
) -> frozenset[int]:
    """Activity-preserving base bijection for transposing the adjacent pair
    x before y in the order: the x-y exchange when it is a base and x is
    active, or y is once moved before x (below the same elements)."""
    bits = _bits(oracle, base)
    p = order.index(x)
    if y not in order[p + 1 : p + 2]:
        raise ValueError("x must immediately precede y in the order")
    x_bucket = oracle.buckets[bits ^ 1 << x]
    if not x_bucket >> y & 1:
        return base
    before = sum(1 << e for e in order[:p])
    if x_bucket & before == 0 or oracle.buckets[bits ^ 1 << y] & before == 0:
        return frozenset(base ^ {x, y})
    return base


def reorder_bijection(
    oracle: BasesOracle,
    from_order: tuple[int, ...],
    to_order: tuple[int, ...],
    base: frozenset[int],
) -> frozenset[int]:
    """Compose the adjacent-step bijection along the bubble path between the
    two orders; activities with respect to the target order match the
    original activities with respect to the source order.  A non-base raises
    ``ValueError``, even when the two orders agree."""
    _bits(oracle, base)
    cur_order = from_order
    cur_base = base
    for p in bubble_swaps(from_order, to_order):
        x, y = cur_order[p], cur_order[p + 1]
        cur_base = phi_xy(oracle, cur_order, x, y, cur_base)
        cur_order = (*cur_order[:p], y, x, *cur_order[p + 2 :])
    if cur_order != to_order:
        raise InvariantError("the bubble steps did not reach the target order")
    return cur_base


def left_contact_positions(region: Region, path: Path) -> frozenset[int]:
    """String positions of the north steps shared with the top boundary:
    the edge from (c, v) to (c, v + 1) is step c + v + 1."""
    return frozenset(c + v + 1 for c, v in north_edges(path) & north_edges(region.top))


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
