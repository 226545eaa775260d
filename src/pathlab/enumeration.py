"""Exhaustive generators for paths and nested tuples, exact distribution
polynomials, and a determinant shortcut for tuple counts.

Contact distributions come from a transfer matrix over the columns of the
region and list no path."""

from __future__ import annotations

from itertools import accumulate, product
from typing import Iterator

from .paths import Path, Region
from .polynomials import MultiPoly, int_determinant
from .tuples import PathTuple

VAR_NAMES = ("x", "y", "z", "w", "v", "u")


def enumerate_paths(region: Region, south_allowed: bool = False) -> Iterator[Path]:
    """Yield the paths of the region in lexicographic height order.

    With ``south_allowed`` every in-range height sequence is legal;
    otherwise only the weakly increasing ones that ``_height_sequences``
    lists.  Callers filter the stream themselves.  Every height lies
    between the boundaries, so the paths skip the checks of ``Path``.
    """
    lo, hi = region.b_heights, region.t_heights
    if south_allowed:
        sequences = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    else:
        sequences = _height_sequences(lo, hi)
    y = region.y
    for heights in sequences:
        yield Path._of(heights, y)


def all_regions(max_semi: int) -> Iterator[Region]:
    """Every boundary pair with x + y at most the bound, by x + y and then
    by x; within one (x, y) the tops come in lexicographic height order and,
    under each top, the bottoms in the same order.

    The bottoms of a top are the height sequences that ``_height_sequences``
    lists capped column by column by the top, which is exactly the pairs
    where the top dominates.  Each height vector becomes one ``Path`` per
    (x, y), shared by every region it bounds, and the regions skip the
    checks of ``Region``.
    """
    for total in range(0, max_semi + 1):
        for x in range(0, total + 1):
            y = total - x
            floor = (0,) * x
            paths = {h: Path._of(h, y) for h in _height_sequences(floor, (y,) * x)}
            for top in paths.values():
                for heights in _height_sequences(floor, top.heights):
                    yield Region._of(top, paths[heights])


def _height_sequences(lo: tuple[int, ...], hi: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Weakly increasing sequences h with lo[i] <= h[i] <= hi[i], in
    lexicographic order.

    Iterative, so the width of the region is not bounded by the recursion
    limit: columns from ``col`` on are filled with their least values, and
    after each sequence (or dead end) the rightmost column below its cap is
    raised by one.
    """
    n = len(lo)
    h = [0] * n
    col = 0
    while True:
        prev = h[col - 1] if col else 0
        while col < n:
            v = prev if prev > lo[col] else lo[col]
            if v > hi[col]:
                break
            h[col] = prev = v
            col += 1
        else:
            yield tuple(h)
        col -= 1
        while col >= 0 and h[col] >= hi[col]:
            col -= 1
        if col < 0:
            return
        h[col] += 1
        col += 1


def enumerate_tuples(region: Region, k: int) -> Iterator[PathTuple]:
    """Yield the weakly nested k-tuples of monotone paths, ordered
    lexicographically by concatenated height vectors.  For k = 0 that is
    the one empty tuple.  Each path's heights come from
    ``_height_sequences`` between the bottom boundary and the path above
    (the top boundary for the first path), so every path is monotone, lies
    in the region and is weakly below the one before it: the paths skip the
    checks of ``Path`` and the tuples those of ``PathTuple``."""
    if k < 0:
        raise ValueError("k must be at least 0")
    lo, y = region.b_heights, region.y

    def rec_tuple(level: int, upper: tuple[int, ...], acc: tuple[Path, ...]):
        if level == k:
            yield PathTuple._of(region, acc)
            return
        for heights in _height_sequences(lo, upper):
            yield from rec_tuple(level + 1, heights, acc + (Path._of(heights, y),))

    yield from rec_tuple(0, region.t_heights, ())


CONTACT_STATS = ("t", "b", "l", "r")


def path_distribution(
    region: Region, stat_names: list[str], south_allowed: bool = False
) -> MultiPoly:
    """Joint distribution of named contact statistics (letters of
    ``CONTACT_STATS``) over the region, with variables x, y, ... in the
    order given.

    A transfer matrix over columns (Stanley, EC1 4.7), so no path is
    listed.  An exponent vector is packed into one integer in radix
    x + y + 1, which no statistic reaches, the first letter most
    significant; a repeated letter adds to each of its places.  The state
    maps each height h_prev of the previous column to the counts, by packed
    exponents, of the prefixes ending there.  Column j moves to every
    height h in [b_j, t_j], and without south steps only to h >= h_prev.
    Each move adds, at the letters' places, the column's terms of
    ``paths.contact_stats``: 1 to t if h == t_j, 1 to b if h == b_j, and
    the overlaps of the north run [h_prev, h) with the top's run
    [t_{j-1}, t_j) to l and with the bottom's run [b_{j-1}, b_j) to r.

    The r term, max(0, b_j - h_prev), depends on h_prev alone, and the l
    term, max(0, h - max(h_prev, t_{j-1})), grows by one with each height
    above t_{j-1} for every h_prev <= h.  So one sweep of the heights from
    low to high keeps a running sum of the prefixes at every h_prev <= h:
    a prefix enters it raised by its r term, the whole sum is raised by the
    l weight at each step above t_{j-1} (held as an offset, ``raised``),
    and each h in [b_j, t_j] takes a copy raised by its t and b terms.
    With south steps a second sweep, from high to low, adds the prefixes
    above h, whose runs are empty.  After the last column the final runs up
    to y add to l and r, and the exponents are unpacked once, in ascending
    order of their codes.  That is the lexicographic order of the exponent
    vectors, so the sort in ``to_json`` runs on presorted terms.  With two
    letters one ``divmod`` by the radix unpacks a code; other lengths take
    one division per place.
    """
    if len(stat_names) > len(VAR_NAMES):
        raise ValueError(f"at most {len(VAR_NAMES)} statistics, one per variable name")
    variables = VAR_NAMES[: len(stat_names)]
    slots = [CONTACT_STATS.index(name) for name in stat_names]
    y = region.y
    radix = region.x + y + 1
    places = [radix**p for p in reversed(range(len(slots)))]
    weights = [0, 0, 0, 0]
    for slot, place in zip(slots, places):
        weights[slot] += place
    wt, wb, wl, wr = weights
    state = {0: {0: 1}}
    tp = bp = 0
    for th, bh in zip(region.top.heights, region.bottom.heights):
        nxt: dict[int, dict[int, int]] = {}
        running: dict[int, int] = {}
        raised = 0
        # the previous column's heights are [bp, tp], every one reached
        for h in range(bp, th + 1):
            if h > tp:
                raised += wl
            else:
                _shift_into(running, state[h], (wr * (bh - h) if bh > h else 0) - raised)
            if h >= bh:
                gain = raised + (wt if h == th else 0) + (wb if h == bh else 0)
                nxt[h] = {code + gain: n for code, n in running.items()} if gain else dict(running)
        if south_allowed:
            above: dict[int, int] = {}
            for h in range(tp, bh, -1):
                _shift_into(above, state[h], 0)
                # h - 1 < t_{j-1} <= t_j, so only the b term can apply
                _shift_into(nxt[h - 1], above, wb if h - 1 == bh else 0)
        state = nxt
        tp, bp = th, bh
    packed: dict[int, int] = {}
    for hp, prefixes in state.items():
        gain = wl * (y - (hp if hp > tp else tp)) + wr * (y - hp)
        _shift_into(packed, prefixes, gain)
    # every count is positive and the packing is one-to-one, so the terms
    # need none of the checks of ``MultiPoly``
    codes = sorted(packed)
    if len(places) == 2:
        terms = {divmod(code, radix): packed[code] for code in codes}
    else:
        terms = {tuple([code // place % radix for place in places]): packed[code] for code in codes}
    return MultiPoly._of(variables, terms)


def _shift_into(target: dict[int, int], counts: dict[int, int], gain: int) -> None:
    """Add the counts to the target, each packed exponent raised by gain."""
    if gain:
        for code, count in counts.items():
            code += gain
            target[code] = target.get(code, 0) + count
    else:
        for code, count in counts.items():
            target[code] = target.get(code, 0) + count


def lgv_count(region: Region, k: int) -> int:
    """Number of weakly nested k-tuples, as a k-by-k determinant.

    Convention: tuples correspond to families of pairwise disjoint free
    paths, the i-th one translated i steps along the diagonal (1, -1), that
    also avoid the top boundary and the bottom boundary translated k+1
    steps.  Entry (i, j) counts single paths from (j, -j) to
    (x + i, y - i) avoiding those two vertex sets.  With k = 0 the matrix
    is empty and its determinant, 1, counts the one empty tuple.

    A path from (j, -j) starts below the top and left of the shifted
    bottom, so one that meets neither stays strictly between them: in
    column c above the shifted bottom's run, whose highest point is
    b_{c-k} - k - 1, and below the top's, whose lowest is t_c.  So one
    transfer per start j counts every end: it holds one path at height -j
    in column j, and each column up to x + k keeps the counts at its
    allowed heights and replaces them by their running sums, which adds
    every north run inside the column.  The ends are read off columns
    x + 1 .. x + k at heights y - 1 .. y - k; an end left of the start
    column counts 0.
    """
    if k < 0:
        raise ValueError("k must be a natural number")
    x, y = region.x, region.y
    tops, bottoms = region.t_heights, region.b_heights
    # heights -k .. y - 1, at indices 0 .. y + k - 1: no end lies higher
    size = y + k
    matrix = [[0] * k for _ in range(k)]
    for j in range(1, k + 1):
        counts = [0] * size
        counts[k - j] = 1
        for c in range(j, x + k + 1):
            lo = bottoms[c - k - 1] if c > k else 0
            hi = tops[c - 1] + k if c <= x else size
            inside = list(accumulate(counts[lo:hi]))
            counts = [0] * lo + inside + [0] * (size - lo - len(inside))
            if c > x:
                matrix[c - x - 1][j - 1] = counts[y - (c - x) + k]
    return int_determinant(matrix)
