"""Test oracles that more than one test module uses, and the definitions
of matroid bases that the library's oracles list without testing.

Any other oracle that only one module needs lives in that module.
"""

import json
from itertools import permutations
from typing import Callable

from pathlab.paths import Path, PathError, Region, contains, path_from_north_set
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
