"""Exact multivariate polynomials with integer coefficients, and the
integer determinant.

A polynomial is the container for joint distributions of statistics and
weight polynomials: it stores, compares, renames and prints them, and does
no arithmetic; each kernel sums its own terms.  Exponent vectors are dense,
with one slot per variable; the variable order is part of the polynomial's
identity: two polynomials are equal when their variable lists and their
terms are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MultiPoly:
    """Terms map exponent tuples, one entry per variable, to nonzero
    coefficients.

    ``MultiPoly(...)`` checks what it is given: it turns the variables and
    each exponent into tuples, refuses an exponent of the wrong length and
    drops the zero coefficients, into a dict of its own.  ``MultiPoly._of``
    skips all of that, for kernels whose terms hold those properties by
    construction: ``path_distribution``, ``tutte_poly`` and the renamings
    below.
    """

    variables: tuple[str, ...]
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        cleaned = {}
        for exp, coef in self.terms.items():
            if len(exp) != len(self.variables):
                raise ValueError("exponent vector length differs from variable list")
            if coef != 0:
                cleaned[tuple(exp)] = coef
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _of(cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        """A polynomial whose variables are a tuple and whose terms map
        exponent tuples of their length to nonzero coefficients, in a dict
        that nothing changes afterwards: the checks of ``__post_init__`` are
        skipped.  For trusted callers only."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def with_variable_order(self, variables) -> "MultiPoly":
        """The same polynomial over its variables listed in a new order,
        each exponent moved with its variable.  A list that is not a
        permutation of the polynomial's own variables raises
        ``ValueError``: one that drops or repeats a variable would merge
        or split terms."""
        variables = tuple(variables)
        if sorted(variables) != sorted(self.variables):
            raise ValueError("not a permutation of the polynomial's variables")
        idx = [self.variables.index(v) for v in variables]
        return MultiPoly._of(
            variables,
            {tuple([exp[i] for i in idx]): coef for exp, coef in self.terms.items()},
        )

    def permute_variables(self, perm: dict[str, str]) -> "MultiPoly":
        """Rename variable v to perm[v], then restore the original order.

        The result has the same variable list; exponents move with their
        renamed variables.
        """
        renamed = tuple(perm.get(v, v) for v in self.variables)
        if set(renamed) != set(self.variables):
            raise ValueError("not a permutation of the polynomial's variables")
        return MultiPoly._of(renamed, self.terms).with_variable_order(self.variables)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def to_json(self) -> str:
        """Compact JSON, ``{"vars":[...],"terms":[{"exp":[...],"coef":c},...]}``
        with the terms sorted: one ``%d`` template per polynomial fills every
        term, and only the variable names go through ``json.dumps``."""
        names = ",".join([json.dumps(v) for v in self.variables])
        term = '{"exp":[' + ",".join(["%d"] * len(self.variables)) + '],"coef":%d}'
        terms = ",".join([term % (*exp, coef) for exp, coef in self.sorted_terms()])
        return '{"vars":[%s],"terms":[%s]}' % (names, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp, coef in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exp)
                if e
            ]
            body = "*".join(factors)
            if not body:
                bits.append(str(coef))
            elif coef == 1:
                bits.append(body)
            elif coef == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{coef}*{body}")
        return " + ".join(bits).replace("+ -", "- ")


def int_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]
