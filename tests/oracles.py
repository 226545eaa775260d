"""Test oracles that more than one test module uses.

An oracle that only one module needs lives in that module.
"""

import json
from itertools import permutations

from pathlab.paths import Path, Region
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
