"""Test oracles that more than one test module uses, the definitions of
matroid bases that the library's oracles list without testing, and the four
column loops that ``paths._columns`` replaced, one per contact reader.

Any other oracle that only one module needs lives in that module.
"""

import json
from itertools import permutations
from typing import Callable

from pathlab.paths import (
    ContactStats,
    Path,
    PathError,
    Region,
    RegionError,
    check_dimensions,
    contains,
    path_from_north_set,
)
from pathlab.polynomials import MultiPoly


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse the plain-text form that ``str`` of a ``MultiPoly`` prints."""
    variables = tuple(variables)
    terms: dict[tuple[int, ...], int] = {}
    for chunk in text.replace("-", "+-").replace(" ", "").split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coef = 1
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            if factor.isdigit():
                coef *= int(factor)
                continue
            name, _, power = factor.partition("^")
            exps[variables.index(name)] += int(power) if power else 1
        exp = tuple(exps)
        terms[exp] = terms.get(exp, 0) + sign * coef
    return MultiPoly(variables, terms)


def rectangle(x: int, y: int) -> Region:
    """The region of every monotone path from (0, 0) to (x, y)."""
    return Region(Path((y,) * x, y), Path((0,) * x, y))


def lpm_is_base(region: Region) -> Callable[[frozenset[int]], bool]:
    """The definition of the region's path matroid: a subset is a base when
    it is the north-step index set of a path inside the region."""

    def is_base(subset: frozenset[int]) -> bool:
        if len(subset) != region.y:
            return False
        try:
            path = path_from_north_set(region.x, region.y, frozenset(subset))
        except PathError:
            return False
        return contains(region, path)

    return is_base


def uniform_is_base(rank: int) -> Callable[[frozenset[int]], bool]:
    """The definition of a uniform matroid: every subset of its rank is a
    base."""
    return lambda subset: len(subset) == rank


def leibniz(n: int):
    """The terms of an n-by-n determinant's Leibniz sum: each permutation of
    range(n) with its sign, -1 to the number of its inversions."""
    for perm in permutations(range(n)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        yield (-1) ** inversions, perm


def json_by_payload(poly: MultiPoly) -> str:
    """The oracle for ``MultiPoly.to_json``: the payload as plain lists and
    dicts, written by ``json.dumps``."""
    payload = {
        "vars": list(poly.variables),
        "terms": [{"exp": list(e), "coef": c} for e, c in poly.sorted_terms()],
    }
    return json.dumps(payload, separators=(",", ":"))


def outcome(fn, region, path):
    """What ``fn(region, path)`` returns, or the type and message of the
    ``ValueError`` it raises."""
    try:
        return fn(region, path)
    except ValueError as exc:
        return type(exc), str(exc)


# The contact readers as four loops, one per reader, each checking the
# dimensions and the region itself.  ``paths._columns`` does all four in one
# walk; these stay as its definitions, errors included.


def contact_stats(region: Region, path: Path) -> ContactStats:
    """t and b by column, and l and r as the overlaps of each vertical run
    with the boundary's run before the same column."""
    check_dimensions(region, path)
    t = b = l = r = 0
    hp = tp = bp = 0
    for h, th, bh in zip(path.heights, region.top.heights, region.bottom.heights):
        if h == th:
            t += 1
        elif h > th:
            raise RegionError("path does not lie in the region")
        if h == bh:
            b += 1
        elif h < bh:
            raise RegionError("path does not lie in the region")
        if h > hp:
            if h > tp:
                l += h - (hp if hp > tp else tp)
            if bh > hp and bh > bp:
                r += bh - (hp if hp > bp else bp)
        hp, tp, bp = h, th, bh
    y = path.y
    l += y - (hp if hp > tp else tp)
    r += y - (hp if hp > bp else bp)
    return ContactStats(t, b, l, r)


def noncontact_heights(region: Region, path: Path) -> tuple[int, ...]:
    check_dimensions(region, path)
    out = []
    for h, th, bh in zip(path.heights, region.top.heights, region.bottom.heights):
        if bh < h < th:
            out.append(h)
        elif h != th and h != bh:
            raise RegionError("path does not lie in the region")
    return tuple(out)


def contact_word(region: Region, path: Path) -> str:
    check_dimensions(region, path)
    word = ""
    for h, th, bh in zip(path.heights, region.top.heights, region.bottom.heights):
        if h == th:
            if h != bh:
                word += "t"
        elif h == bh:
            word += "b"
        elif h > th or h < bh:
            raise RegionError("path does not lie in the region")
    return word


def scan(region: Region, path: Path) -> tuple[list[int], list[int], list[int]]:
    """The contact columns, and the indices into them of the unmatched b's
    and t's: t pushes, b pops the last unmatched t."""
    check_dimensions(region, path)
    cols = []
    unmatched_b = []
    unmatched_t = []
    col = 0
    for h, th, bh in zip(path.heights, region.top.heights, region.bottom.heights):
        col += 1
        if h == th:
            if h != bh:
                unmatched_t.append(len(cols))
                cols.append(col)
        elif h == bh:
            if unmatched_t:
                unmatched_t.pop()
            else:
                unmatched_b.append(len(cols))
            cols.append(col)
        elif h > th or h < bh:
            raise RegionError("path does not lie in the region")
    return cols, unmatched_b, unmatched_t
