from math import prod

import pytest
from hypothesis import given, strategies as st

from pathlab.polynomials import MultiPoly, int_determinant

from oracles import json_by_payload, leibniz, parse_poly


def xy(terms):
    return MultiPoly(("x", "y"), terms)


def test_no_zero_terms_stored():
    assert xy({(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}


def test_permute_variables():
    p = xy({(2, 1): 1})
    assert p.permute_variables({"x": "y", "y": "x"}) == xy({(1, 2): 1})


def test_with_variable_order_moves_each_exponent_with_its_variable():
    p = xy({(2, 1): 1, (0, 3): 5})
    assert p.with_variable_order("yx") == MultiPoly(("y", "x"), {(1, 2): 1, (3, 0): 5})
    assert p.with_variable_order(("x", "y")) == p


def test_with_variable_order_refuses_a_non_permutation():
    # a dropped variable would merge (1, 0) and (1, 1); a repeated one
    # would split every exponent
    p = xy({(1, 0): 1, (1, 1): 2})
    for variables in [("x",), ("x", "x", "y"), ("x", "z"), ("x", "y", "z"), ()]:
        with pytest.raises(ValueError, match="not a permutation"):
            p.with_variable_order(variables)


def test_json_sorts_terms():
    p = xy({(1, 2): 3, (0, 1): -1, (1, 0): 2})
    text = p.to_json()
    assert text.index('"exp":[0,1]') < text.index('"exp":[1,0]') < text.index('"exp":[1,2]')


# Variable names with the characters JSON escapes or writes as \u escapes,
# exponent vectors of their length, and coefficients of any size (zeros are
# dropped, so a polynomial may have no terms).
NAME = st.text(st.sampled_from('xy"\\\n\u00e9\u2202\U0001f600'), max_size=3)
POLY = st.lists(NAME, max_size=4, unique=True).flatmap(
    lambda names: st.dictionaries(
        st.lists(st.integers(0, 10**6), min_size=len(names), max_size=len(names)).map(tuple),
        st.integers(-3, 3) | st.integers(-(10**40), 10**40),
        max_size=6,
    ).map(lambda terms: MultiPoly(names, terms))
)


@given(POLY)
def test_json_matches_the_payload_oracle(p):
    assert p.to_json() == json_by_payload(p)


def test_parse_poly_matches_display():
    p = parse_poly("x^3+x^2*y+x*y^2+y^3+2*x^2+2*x*y+2*y^2+2*x+2*y+1", ("x", "y"))
    assert p.terms[(1, 1)] == 2 and p.terms[(0, 0)] == 1


def test_int_determinant():
    assert int_determinant([[1, 2], [3, 4]]) == -2
    assert int_determinant([[2, 0, 1], [1, 1, 1], [0, 3, 1]]) == -1
    assert int_determinant([[0, 1], [1, 0]]) == -1
    assert int_determinant([[0, 0], [0, 0]]) == 0


# Square integer matrices up to 5x5, with zeros drawn often enough that
# elimination meets zero pivots, whole zero columns and singular matrices.
square_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.just(0) | st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(square_matrices)
def test_int_determinant_matches_leibniz(matrix):
    expected = sum(
        sign * prod(row[j] for row, j in zip(matrix, perm)) for sign, perm in leibniz(len(matrix))
    )
    assert int_determinant(matrix) == expected
