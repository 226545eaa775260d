from hypothesis import given, strategies as st

from pathlab.polynomials import (
    MultiPoly,
    h_complete,
    int_determinant,
    poly_determinant,
)

from oracles import parse_poly


def xy(terms):
    return MultiPoly(("x", "y"), terms)


def test_no_zero_terms_stored():
    assert xy({(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}


def test_equality_aligns_variables():
    p = MultiPoly(("x", "y"), {(2, 1): 3})
    q = MultiPoly(("y", "x"), {(1, 2): 3})
    assert p == q


def test_add_mul():
    p = xy({(1, 0): 1})
    q = xy({(0, 1): 1})
    assert (p + q) * (p + q) == xy({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_permute_variables():
    p = xy({(2, 1): 1})
    assert p.permute_variables({"x": "y", "y": "x"}) == xy({(1, 2): 1})


def test_json_sorts_terms():
    p = xy({(1, 2): 3, (0, 1): -1, (1, 0): 2})
    text = p.to_json()
    assert text.index('"exp":[0,1]') < text.index('"exp":[1,0]') < text.index('"exp":[1,2]')


def test_parse_poly_matches_display():
    p = parse_poly("x^3+x^2*y+x*y^2+y^3+2*x^2+2*x*y+2*y^2+2*x+2*y+1", ("x", "y"))
    assert p.terms[(1, 1)] == 2 and p.terms[(0, 0)] == 1


coef = st.integers(-4, 4)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coef, max_size=5),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coef, max_size=5))
def test_ring_laws(t1, t2):
    p, q = xy(t1), xy(t2)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), coef, max_size=5),
       st.permutations(range(3)))
def test_equal_polynomials_hash_alike(terms, perm):
    p = MultiPoly(("x", "y", "z"), terms)
    q = p.with_variable_order(tuple(p.variables[i] for i in perm))
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1


def test_h_complete():
    vs = ("x1", "x2", "x3")
    assert h_complete(1, 2, vs) == MultiPoly(vs, {(1, 0, 0): 1, (0, 1, 0): 1})
    assert h_complete(0, 2, vs) == MultiPoly.one(vs)
    assert h_complete(-1, 2, vs) == MultiPoly.zero(vs)
    assert h_complete(2, 2, vs).coefficient_sum() == 3


def test_int_determinant():
    assert int_determinant([[1, 2], [3, 4]]) == -2
    assert int_determinant([[2, 0, 1], [1, 1, 1], [0, 3, 1]]) == -1
    assert int_determinant([[0, 1], [1, 0]]) == -1
    assert int_determinant([[0, 0], [0, 0]]) == 0


def test_poly_determinant():
    one = MultiPoly.one(("x",))
    x = MultiPoly(("x",), {(1,): 1})
    assert poly_determinant([[x, one], [one, x]]) == MultiPoly(
        ("x",), {(2,): 1, (0,): -1}
    )
