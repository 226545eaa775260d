import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from pathlab import matroids
from pathlab.enumeration import enumerate_paths, path_distribution
from pathlab.matroids import (
    LinearOrder,
    activities,
    active_elements,
    bltr_single_path,
    bottom_contact_positions,
    left_contact_positions,
    lpm_oracle,
    natural_order,
    north_index_set,
    phi_xy,
    reorder_bijection,
    reversed_order,
    strong_exchange,
    tutte_poly,
    uniform_oracle,
)
from pathlab.paths import Path, Region, contact_stats, north_edges, parse_path
from pathlab.polynomials import MultiPoly
from pathlab.verify import all_regions

SMALL = Region.from_steps("NNENEE", "ENEENN")
U12 = uniform_oracle(1, 2)


def test_lpm_bases():
    r = Region.from_steps("NE", "EN")
    oracle = lpm_oracle(r)
    assert set(oracle.bases()) == {frozenset({1}), frozenset({2})}
    single = Region.from_steps("EN", "EN")
    assert lpm_oracle(single).bases() == [north_index_set(single.bottom)]
    assert len(lpm_oracle(SMALL).bases()) == 15


def test_activities_uniform():
    order = natural_order(2)
    assert activities(U12, frozenset({1}), order) == (1, 0)
    assert activities(U12, frozenset({2}), order) == (0, 1)


def test_activities_rejects_nonbase():
    with pytest.raises(ValueError):
        activities(U12, frozenset({1, 2}), natural_order(2))


def test_active_elements_are_contacts():
    oracle = lpm_oracle(SMALL)
    order = natural_order(6)
    for p in enumerate_paths(SMALL):
        internal, external = active_elements(oracle, north_index_set(p), order)
        assert internal == left_contact_positions(SMALL, p)
        assert external == bottom_contact_positions(SMALL, p)


def contact_positions_by_definition(region, path):
    """The oracle for the contact position readers: walk the step string,
    keeping the north steps on an edge of ``north_edges(region.top)`` and
    the east steps at the bottom boundary's height."""
    top_edges = north_edges(region.top)
    left, bottom, norths = set(), set(), set()
    cx = cy = 0
    for pos, step in enumerate(path.steps(), 1):
        if step == "N":
            norths.add(pos)
            if (cx, cy) in top_edges:
                left.add(pos)
            cy += 1
        else:
            if cy == region.b_heights[cx]:
                bottom.add(pos)
            cx += 1
    return norths, left, bottom


def test_contact_positions_match_definition():
    for region in all_regions(6):
        for p in enumerate_paths(region):
            norths, left, bottom = contact_positions_by_definition(region, p)
            assert north_index_set(p) == norths
            assert left_contact_positions(region, p) == left
            assert bottom_contact_positions(region, p) == bottom


def test_tutte_uniform():
    assert tutte_poly(U12, natural_order(2)) == MultiPoly(
        ("x", "y"), {(1, 0): 1, (0, 1): 1}
    )
    assert tutte_poly(uniform_oracle(2, 3), natural_order(3)) == MultiPoly(
        ("x", "y"), {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    )


def test_tutte_rejects_order_of_another_ground_set():
    for ranking in ((1, 2), tuple(range(1, 8))):
        with pytest.raises(ValueError):
            tutte_poly(lpm_oracle(SMALL), LinearOrder(ranking))


def test_tutte_matches_contact_distributions():
    oracle = lpm_oracle(SMALL)
    natural = tutte_poly(oracle, natural_order(6))
    rev = tutte_poly(oracle, reversed_order(6))
    assert natural == rev
    assert natural == path_distribution(SMALL, ["l", "b"]).with_variable_order(("x", "y"))
    assert rev == path_distribution(SMALL, ["r", "t"]).with_variable_order(("x", "y"))


def test_strong_exchange():
    assert strong_exchange(U12, frozenset({1}), frozenset({2}), 2) == 1
    oracle = lpm_oracle(SMALL)
    bases = oracle.bases()
    c_base, d_base = bases[0], bases[-1]
    for d in sorted(d_base - c_base):
        c = strong_exchange(oracle, c_base, d_base, d)
        assert oracle.is_base(c_base - {c} | {d})
        assert oracle.is_base(d_base - {d} | {c})


def test_strong_exchange_precondition():
    with pytest.raises(ValueError):
        strong_exchange(U12, frozenset({1}), frozenset({1}), 1)


def test_phi_examples():
    order = natural_order(2)
    assert phi_xy(U12, order, 1, 2, frozenset({1})) == frozenset({2})
    o23 = uniform_oracle(2, 3)
    both = frozenset({1, 2})
    assert phi_xy(o23, natural_order(3), 1, 2, both) == both
    # swapped set not a base: rank-0 style guard via a path matroid
    r = Region.from_steps("NENE", "ENEN")
    oracle = lpm_oracle(r)
    base = north_index_set(parse_path("NENE"))
    image = phi_xy(oracle, natural_order(4), 2, 3, base)
    if not oracle.is_base(base ^ {2, 3}):
        assert image == base


def test_phi_requires_adjacent():
    with pytest.raises(ValueError):
        phi_xy(U12, natural_order(2), 2, 1, frozenset({1}))


def test_reorder_identity():
    base = frozenset({1})
    assert reorder_bijection(U12, natural_order(2), natural_order(2), base) == base


def test_reorder_full_reversal_uniform():
    assert reorder_bijection(U12, natural_order(2), reversed_order(2), frozenset({1})) == frozenset({2})
    assert reorder_bijection(U12, natural_order(2), reversed_order(2), frozenset({2})) == frozenset({1})


def test_reorder_preserves_activity_multiset():
    oracle = lpm_oracle(SMALL)
    src = natural_order(6)
    dst = reversed_order(6)
    pairs_before = sorted(activities(oracle, b, src) for b in oracle.bases())
    images = [reorder_bijection(oracle, src, dst, b) for b in oracle.bases()]
    assert len(set(images)) == len(images)
    pairs_after = sorted(activities(oracle, b, dst) for b in images)
    assert pairs_before == pairs_after
    for base, image in zip(oracle.bases(), images):
        assert activities(oracle, base, src) == activities(oracle, image, dst)


def test_bltr_single_path():
    r = Region.from_steps("NE", "EN")
    assert bltr_single_path(r, parse_path("NE")) == parse_path("EN")
    single = Region.from_steps("EN", "EN")
    assert bltr_single_path(single, single.bottom) == single.bottom
    for p in enumerate_paths(SMALL):
        st = contact_stats(SMALL, p)
        image = bltr_single_path(SMALL, p)
        ist = contact_stats(SMALL, image)
        assert (ist.t, ist.r) == (st.b, st.l)


def bases_by_filter(oracle):
    """Every rank-sized subset that passes the oracle's base test, in
    lexicographic order: the listing that does not enumerate paths."""
    ground = range(1, oracle.ground_size + 1)
    return [frozenset(c) for c in combinations(ground, oracle.rank) if oracle.is_base(frozenset(c))]


def is_active(oracle, base, order, e):
    """The definition: no smaller element can be exchanged with e to give
    another base.  Covers e in the base (internal) and e outside
    (external)."""
    inside = e in base
    for f in order.ranking[: order.rank_of[e]]:
        if (f in base) == inside:
            continue
        swapped = base - {e} | {f} if inside else base - {f} | {e}
        if oracle.is_base(frozenset(swapped)):
            return False
    return True


def active_by_definition(oracle, base, order):
    ground = range(1, oracle.ground_size + 1)
    active = frozenset(e for e in ground if is_active(oracle, base, order, e))
    return active & base, active - base


def phi_by_definition(oracle, order, x, y, base):
    """Crapo's map for x immediately before y, tested through ``is_base``."""
    swapped = base ^ {x, y}
    if (x in base) == (y in base) or not oracle.is_base(swapped):
        return base
    moved = order.transpose_adjacent(x, y)
    if is_active(oracle, base, order, x) or is_active(oracle, base, moved, y):
        return swapped
    return base


def tutte_by_activities(oracle, order):
    """The activity polynomial summed base by base through ``is_active``."""
    terms = Counter(
        tuple(len(part) for part in active_by_definition(oracle, base, order))
        for base in bases_by_filter(oracle)
    )
    return MultiPoly(("x", "y"), dict(terms))


def uniform_oracles(max_m):
    return [uniform_oracle(r, m) for m in range(0, max_m + 1) for r in range(0, m + 1)]


def small_oracles():
    return [lpm_oracle(region) for region in all_regions(5)] + uniform_oracles(5)


def test_lpm_bases_match_subset_filter():
    oracles = [lpm_oracle(region) for region in all_regions(6)] + uniform_oracles(5)
    for oracle in oracles:
        assert oracle.bases() == bases_by_filter(oracle), oracle


def test_tutte_poly_matches_per_base_activities():
    for oracle in small_oracles():
        m = oracle.ground_size
        shuffled = list(range(1, m + 1))
        random.Random(m).shuffle(shuffled)
        for order in (natural_order(m), reversed_order(m), LinearOrder(tuple(shuffled))):
            assert tutte_poly(oracle, order) == tutte_by_activities(oracle, order), (oracle, order)


def test_mask_activities_match_the_definition():
    """``active_elements`` and ``phi_xy`` read ``oracle.masks``; the
    definition tests every exchange through ``is_base``.  Every order for
    m <= 4, else the natural, reversed and one shuffled order."""
    cases = 0
    for oracle in small_oracles():
        m = oracle.ground_size
        if m <= 4:
            orders = [LinearOrder(p) for p in permutations(range(1, m + 1))]
        else:
            shuffled = list(range(1, m + 1))
            random.Random(m).shuffle(shuffled)
            orders = [natural_order(m), reversed_order(m), LinearOrder(tuple(shuffled))]
        for order in orders:
            for base in oracle.bases():
                expected = active_by_definition(oracle, base, order)
                assert active_elements(oracle, base, order) == expected, (oracle, base, order)
                for x, y in zip(order.ranking, order.ranking[1:]):
                    expected = phi_by_definition(oracle, order, x, y, base)
                    assert phi_xy(oracle, order, x, y, base) == expected, (oracle, base, order, x)
                    cases += 1
    assert cases == 13604


def test_non_bases_are_rejected_not_mapped():
    oracle = lpm_oracle(Region.from_steps("NNEE", "ENEN"))
    non_base = frozenset({3, 4})
    assert not oracle.is_base(non_base)
    with pytest.raises(ValueError, match="not a base"):
        phi_xy(oracle, natural_order(4), 2, 3, non_base)
    with pytest.raises(ValueError, match="not a base"):
        reorder_bijection(oracle, natural_order(4), reversed_order(4), non_base)
    with pytest.raises(ValueError, match="not a base"):
        active_elements(oracle, non_base, natural_order(4))


def encode(base):
    return sum(1 << e for e in base)


def test_base_bits_list_the_bases():
    """``base_bits`` holds the bases the subset filter finds, in its order."""
    oracles = [lpm_oracle(region) for region in all_regions(7)] + uniform_oracles(5)
    for oracle in oracles:
        assert oracle.base_bits == tuple(encode(b) for b in bases_by_filter(oracle)), oracle


def test_exchange_mask_bits_match_is_base():
    for region in all_regions(6):
        oracle = lpm_oracle(region)
        ground = range(1, oracle.ground_size + 1)
        for bits, masks in oracle.masks.items():
            base = frozenset(e for e in ground if bits >> e & 1)
            for e in ground:
                for f in ground:
                    exchanged = base ^ {e, f}
                    expected = (e in base) != (f in base) and oracle.is_base(exchanged)
                    assert bool(masks[e] >> f & 1) == expected, (region, base, e, f)


def test_tutte_poly_builds_masks_once_per_oracle(monkeypatch):
    calls = []
    build = matroids.exchange_masks

    def counted(encoded, m):
        calls.append(m)
        return build(encoded, m)

    shuffled = list(range(1, 7))
    random.Random(6).shuffle(shuffled)
    orders = (natural_order(6), reversed_order(6), LinearOrder(tuple(shuffled)))
    monkeypatch.setattr(matroids, "exchange_masks", counted)
    oracle = lpm_oracle(SMALL)
    polys = [tutte_poly(oracle, order) for order in orders]
    assert calls == [6]
    for order, poly in zip(orders, polys):
        assert poly == tutte_poly(lpm_oracle(SMALL), order)
