"""Exact multivariate polynomials with integer coefficients.

Used as the universal container for joint distributions of statistics.
Exponent vectors are dense, with one slot per variable; the variable order
is part of the polynomial's identity, but equality aligns by variable name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations


@dataclass(frozen=True)
class MultiPoly:
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
    def zero(cls, variables) -> "MultiPoly":
        return cls(tuple(variables), {})

    @classmethod
    def one(cls, variables) -> "MultiPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): 1})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.variables == other.variables:
            return self.terms == other.terms
        if set(self.variables) != set(other.variables):
            return False
        return self.terms == other.with_variable_order(self.variables).terms

    def __hash__(self):
        # Equality aligns by variable name, so hash one canonical order.
        canonical = self.with_variable_order(sorted(self.variables))
        return hash((canonical.variables, frozenset(canonical.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        other = self._aligned(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coef
        return MultiPoly(self.variables, terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.variables, {e: c * other for e, c in self.terms.items()})
        other = self._aligned(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def _aligned(self, other: "MultiPoly") -> "MultiPoly":
        if self.variables == other.variables:
            return other
        if set(self.variables) != set(other.variables):
            raise ValueError("polynomials over different variable sets")
        return other.with_variable_order(self.variables)

    def with_variable_order(self, variables) -> "MultiPoly":
        variables = tuple(variables)
        idx = [self.variables.index(v) for v in variables]
        return MultiPoly(
            variables,
            {tuple(exp[i] for i in idx): coef for exp, coef in self.terms.items()},
        )

    def permute_variables(self, perm: dict[str, str]) -> "MultiPoly":
        """Rename variable v to perm[v], then restore the original order.

        The result has the same variable list; exponents move with their
        renamed variables.
        """
        renamed = tuple(perm.get(v, v) for v in self.variables)
        if set(renamed) != set(self.variables):
            raise ValueError("not a permutation of the polynomial's variables")
        return MultiPoly(renamed, dict(self.terms)).with_variable_order(self.variables)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def to_json(self) -> str:
        payload = {
            "vars": list(self.variables),
            "terms": [{"exp": list(e), "coef": c} for e, c in self.sorted_terms()],
        }
        return json.dumps(payload, separators=(",", ":"))

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


def h_complete(n: int, nvars: int, variables) -> MultiPoly:
    """Complete homogeneous symmetric polynomial of degree n in the first
    nvars variables of the given list."""
    variables = tuple(variables)
    if n < 0:
        return MultiPoly.zero(variables)
    if n == 0:
        return MultiPoly.one(variables)
    terms: dict[tuple[int, ...], int] = {}
    for combo in combinations_with_replacement(range(nvars), n):
        exp = [0] * len(variables)
        for i in combo:
            exp[i] += 1
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + 1
    return MultiPoly(variables, terms)


def poly_determinant(matrix: list[list[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials (Leibniz sum;
    intended for small matrices)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    total = MultiPoly.zero(variables)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = MultiPoly.one(variables)
        for i in range(n):
            prod = prod * matrix[i][perm[i]]
        total = total + prod * sign
    return total


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
