from itertools import permutations

from pathlab.enumeration import enumerate_tuples, lgv_count
from pathlab.triangulations import (
    Triangulation,
    catalan,
    catalan_det,
    crossing,
    degree_sequence,
    degrees_from_tuple,
    enumerate_k_triangulations,
    fan_region,
    nicolas_check,
    nontrivial_diagonals,
)

OCTAGON_EXAMPLE = Triangulation(
    8, 2, frozenset({(5, 8), (3, 8), (3, 6), (2, 6), (1, 6), (2, 5)})
)


def test_nontrivial_diagonal_counts():
    assert len(nontrivial_diagonals(5, 1)) == 5
    assert len(nontrivial_diagonals(8, 2)) == 12
    assert nontrivial_diagonals(5, 2) == []


def test_crossing_predicate():
    assert crossing((1, 3), (2, 4))
    assert not crossing((1, 3), (3, 5))
    assert not crossing((1, 2), (3, 4))


def test_triangulation_counts():
    assert sum(1 for _ in enumerate_k_triangulations(5, 1)) == 5
    assert sum(1 for _ in enumerate_k_triangulations(6, 2)) == 3
    assert sum(1 for _ in enumerate_k_triangulations(7, 3)) == 1
    assert sum(1 for _ in enumerate_k_triangulations(8, 3)) == 4


def test_diagonal_cardinality_invariant():
    for n, k in ((6, 1), (7, 2), (6, 2)):
        for t in enumerate_k_triangulations(n, k):
            assert len(t.diagonals) == k * (n - 2 * k - 1)


def test_catalan_det():
    assert catalan_det(5, 1) == catalan(3) == 5
    assert catalan_det(6, 2) == 3
    assert catalan_det(5, 2) == 1
    assert catalan_det(7, 3) == 1
    assert catalan_det(8, 3) == 4


def test_degree_sequence_octagon_example():
    assert degree_sequence(OCTAGON_EXAMPLE) == (1, 2, 2, 0, 1)


def test_degree_sequence_degenerate():
    (only,) = enumerate_k_triangulations(5, 2)
    assert degree_sequence(only) == (0, 0)


def test_pentagon_fan_degree():
    fan = Triangulation(5, 1, frozenset({(1, 3), (1, 4)}))
    assert degree_sequence(fan)[0] == 2


def test_fan_region_counts_match():
    for n, k in ((5, 1), (6, 1), (6, 2), (7, 2)):
        region = fan_region(n, k)
        count = sum(1 for _ in enumerate_tuples(region, k))
        assert count == catalan_det(n, k) == lgv_count(region, k)


def test_degrees_from_tuple_lengths():
    region = fan_region(8, 2)
    for t in enumerate_tuples(region, 2):
        assert len(degrees_from_tuple(t, 8, 2)) == 5
        break


def test_nicolas_small():
    for n, k in ((5, 1), (6, 1), (6, 2), (7, 2)):
        report = nicolas_check(n, k)
        assert report.holds, (n, k)


def test_window_symmetry_corollary():
    # the first k+1 degrees have a symmetric joint distribution
    for n, k in ((7, 1), (7, 2)):
        counts = {}
        for t in enumerate_k_triangulations(n, k):
            d = degree_sequence(t)[: k + 1]
            counts[d] = counts.get(d, 0) + 1
        for d, c in counts.items():
            for perm in permutations(range(k + 1)):
                assert counts.get(tuple(d[i] for i in perm), 0) == c
