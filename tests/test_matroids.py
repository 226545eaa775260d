import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from pathlab import matroids
from pathlab.applications import regions_touching_only_at_ends
from pathlab.enumeration import _height_sequences, enumerate_paths, path_distribution
from pathlab.matroids import (
    BasesOracle,
    activities,
    active_elements,
    activity_terms,
    bltr_single_path,
    bottom_contact_positions,
    left_contact_positions,
    lpm_oracle,
    natural_order,
    north_index_set,
    phi_xy,
    reorder_bijection,
    reversed_order,
    tutte_poly,
    uniform_oracle,
)
from pathlab.paths import Region, contact_stats, north_edges, parse_path
from pathlab.polynomials import MultiPoly
from pathlab.verify import all_regions

from oracles import lpm_is_base, rectangle, uniform_is_base

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
    for ranking in ((1, 2), tuple(range(1, 8)), (1, 1, 3, 4, 5, 6)):
        with pytest.raises(ValueError, match="the order must rank the whole ground set"):
            tutte_poly(lpm_oracle(SMALL), ranking)


def test_tutte_matches_contact_distributions():
    oracle = lpm_oracle(SMALL)
    natural = tutte_poly(oracle, natural_order(6))
    rev = tutte_poly(oracle, reversed_order(6))
    assert natural == rev
    assert natural == path_distribution(SMALL, ["l", "b"])
    assert rev == path_distribution(SMALL, ["r", "t"])


def strong_exchange(is_base, c_base: frozenset[int], d_base: frozenset[int], d: int) -> int:
    """First element c of C minus D with both C-c+d and D-d+c bases."""
    if d not in d_base or d in c_base:
        raise ValueError("d must lie in D and not in C")
    for c in sorted(c_base - d_base):
        if is_base(c_base - {c} | {d}) and is_base(d_base - {d} | {c}):
            return c
    raise ValueError("strong exchange failed: oracle is not a matroid")


def test_strong_exchange():
    assert strong_exchange(uniform_is_base(1), frozenset({1}), frozenset({2}), 2) == 1
    is_base = lpm_is_base(SMALL)
    bases = lpm_oracle(SMALL).bases()
    c_base, d_base = bases[0], bases[-1]
    for d in sorted(d_base - c_base):
        c = strong_exchange(is_base, c_base, d_base, d)
        assert is_base(c_base - {c} | {d})
        assert is_base(d_base - {d} | {c})


def test_strong_exchange_precondition():
    with pytest.raises(ValueError):
        strong_exchange(uniform_is_base(1), frozenset({1}), frozenset({1}), 1)


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
    if not lpm_is_base(r)(base ^ {2, 3}):
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


def bases_by_filter(oracle, is_base):
    """Every rank-sized subset that passes the definition's base test, in
    lexicographic order: the listing that does not enumerate paths."""
    ground = range(1, oracle.ground_size + 1)
    return [frozenset(c) for c in combinations(ground, oracle.rank) if is_base(frozenset(c))]


def is_active(is_base, base, order, e):
    """The definition: no smaller element can be exchanged with e to give
    another base.  Covers e in the base (internal) and e outside
    (external)."""
    inside = e in base
    for f in order[: order.index(e)]:
        if (f in base) == inside:
            continue
        swapped = base - {e} | {f} if inside else base - {f} | {e}
        if is_base(frozenset(swapped)):
            return False
    return True


def active_by_definition(is_base, base, order):
    active = frozenset(e for e in order if is_active(is_base, base, order, e))
    return active & base, active - base


def phi_by_definition(is_base, order, x, y, base):
    """Crapo's map for x immediately before y, tested through ``is_base``."""
    swapped = base ^ {x, y}
    if (x in base) == (y in base) or not is_base(swapped):
        return base
    p = order.index(x)
    moved = (*order[:p], y, x, *order[p + 2 :])
    if is_active(is_base, base, order, x) or is_active(is_base, base, moved, y):
        return swapped
    return base


def tutte_by_activities(oracle, is_base, order):
    """The activity polynomial summed base by base through ``is_active``."""
    terms = Counter(
        tuple(len(part) for part in active_by_definition(is_base, base, order))
        for base in bases_by_filter(oracle, is_base)
    )
    return MultiPoly(("x", "y"), dict(terms))


def lpm_cases(max_semi):
    """Each region's path matroid with the definition of its bases."""
    return [(lpm_oracle(region), lpm_is_base(region)) for region in all_regions(max_semi)]


def uniform_cases(max_m):
    """U(r, m) for every 0 <= r <= m <= max_m, with its definition."""
    return [
        (uniform_oracle(r, m), uniform_is_base(r)) for m in range(0, max_m + 1) for r in range(0, m + 1)
    ]


def small_cases():
    return lpm_cases(5) + uniform_cases(5)


def test_lpm_bases_match_subset_filter():
    for oracle, is_base in lpm_cases(6) + uniform_cases(5):
        assert oracle.bases() == bases_by_filter(oracle, is_base), oracle


def test_tutte_poly_matches_per_base_activities():
    for oracle, is_base in small_cases():
        m = oracle.ground_size
        shuffled = list(range(1, m + 1))
        random.Random(m).shuffle(shuffled)
        for order in (natural_order(m), reversed_order(m), tuple(shuffled)):
            assert tutte_poly(oracle, order) == tutte_by_activities(oracle, is_base, order), (oracle, order)


def test_mask_activities_match_the_definition():
    """``active_elements`` and ``phi_xy`` read ``oracle.buckets``; the
    definition tests every exchange through ``is_base``.  Every order for
    m <= 4, else the natural, reversed and one shuffled order."""
    cases = 0
    for oracle, is_base in small_cases():
        m = oracle.ground_size
        if m <= 4:
            orders = list(permutations(range(1, m + 1)))
        else:
            shuffled = list(range(1, m + 1))
            random.Random(m).shuffle(shuffled)
            orders = [natural_order(m), reversed_order(m), tuple(shuffled)]
        for order in orders:
            for base in oracle.bases():
                expected = active_by_definition(is_base, base, order)
                assert active_elements(oracle, base, order) == expected, (oracle, base, order)
                for x, y in zip(order, order[1:]):
                    expected = phi_by_definition(is_base, order, x, y, base)
                    assert phi_xy(oracle, order, x, y, base) == expected, (oracle, base, order, x)
                    cases += 1
    assert cases == 13604


def test_non_bases_are_rejected_not_mapped():
    region = Region.from_steps("NNEE", "ENEN")
    oracle = lpm_oracle(region)
    non_base = frozenset({3, 4})
    assert not lpm_is_base(region)(non_base)
    with pytest.raises(ValueError, match="not a base"):
        phi_xy(oracle, natural_order(4), 2, 3, non_base)
    with pytest.raises(ValueError, match="not a base"):
        reorder_bijection(oracle, natural_order(4), reversed_order(4), non_base)
    with pytest.raises(ValueError, match="not a base"):
        active_elements(oracle, non_base, natural_order(4))


def test_exactly_the_non_bases_are_rejected():
    """Every subset of the ground set, the empty ground set included:
    ``active_elements`` answers exactly when ``is_base`` holds.  With 0 or
    m + 1 added, which the uniform ``is_base`` does not test, it refuses."""
    cases = 0
    for oracle, is_base in small_cases():
        m = oracle.ground_size
        order = natural_order(m)
        for size in range(m + 1):
            for subset in combinations(range(1, m + 1), size):
                for extra in ((), (0,), (m + 1,)):
                    candidate = frozenset(subset + extra)
                    if not extra and is_base(candidate):
                        active_elements(oracle, candidate, order)
                    else:
                        with pytest.raises(ValueError, match="not a base"):
                            active_elements(oracle, candidate, order)
                    cases += 1
    assert cases == 16062


def encode(base):
    return sum(1 << e for e in base)


def test_base_bits_list_the_bases():
    """``base_bits`` holds the bases the subset filter finds, in its order."""
    for oracle, is_base in lpm_cases(7) + uniform_cases(5):
        assert oracle.base_bits == tuple(encode(b) for b in bases_by_filter(oracle, is_base)), oracle


def base_bits_by_paths(region):
    """The oracle for ``lpm_oracle``'s column transfer: each path's north
    steps encoded one at a time, the full mask less its east positions
    i + h_i, in reversed order of the height sequences."""
    full = (1 << region.x + region.y + 1) - 2
    bits = [
        full - sum(1 << i + h for i, h in enumerate(heights, 1))
        for heights in _height_sequences(region.b_heights, region.t_heights)
    ]
    return tuple(reversed(bits))


def test_column_transfer_lists_the_bases_of_each_path():
    """Every region with x+y <= 7, x = 0 and y = 0 included, and every
    rectangle with x * y <= 36."""
    rectangles = [rectangle(x, y) for x in range(1, 37) for y in range(1, 36 // x + 1)]
    regions = list(all_regions(7))
    assert {0} <= {r.x for r in regions} and {0} <= {r.y for r in regions}
    for region in regions + rectangles:
        assert lpm_oracle(region).base_bits == base_bits_by_paths(region), region


def exchange_rows(encoded, m):
    """The per-base table the buckets replace: each base's bit mask maps to
    its row, which holds for each ground element e the bit mask of the
    elements f that exchange with e (one in the base, the other not) to
    give another listed base."""
    bit = [1 << e for e in range(1, m + 1)]
    buckets = {}
    for bits in encoded:
        for b in bit:
            buckets[bits ^ b] = buckets.get(bits ^ b, 0) | b
    return {bits: [0] + [buckets[bits ^ b] ^ b for b in bit] for bits in encoded}


def activity_terms_by_rows(rows, ranking):
    """The oracle for ``activity_terms``: (internal, external) activity
    counts read off each base's row of ``exchange_rows``."""
    below = {}
    seen = 0
    for e in ranking:
        below[e] = seen
        seen |= 1 << e
    terms = Counter()
    for bits, row in rows.items():
        internal = external = 0
        for e, smaller in below.items():
            if row[e] & smaller == 0:
                if bits >> e & 1:
                    internal += 1
                else:
                    external += 1
        terms[internal, external] += 1
    return dict(terms)


def test_exchange_mask_bits_match_is_base():
    """Every bit of the rows and of the buckets against ``is_base`` of the
    exchanged set, rows in the order of ``base_bits``.  The uniform oracles
    take every rank from 0 to m, so ranks 0, 1, m - 1 and m, where a base
    has no or one element on a side, are all covered."""
    for oracle, is_base in lpm_cases(6) + uniform_cases(6):
        m = oracle.ground_size
        rows = exchange_rows(oracle.base_bits, m)
        buckets = oracle.buckets
        assert list(rows) == list(oracle.base_bits), oracle
        ground = range(1, m + 1)
        assert set(buckets) == {bits ^ 1 << e for bits in oracle.base_bits for e in ground}
        for bits, row in rows.items():
            base = frozenset(e for e in ground if bits >> e & 1)
            for e in ground:
                bucket = buckets[bits ^ 1 << e]
                assert bucket >> e & 1, (oracle, base, e)
                for f in ground:
                    exchanged = base ^ {e, f}
                    expected = (e in base) != (f in base) and is_base(exchanged)
                    assert bool(row[e] >> f & 1) == expected, (oracle, base, e, f)
                    assert (f != e and bool(bucket >> f & 1)) == expected, (oracle, base, e, f)


def test_activity_terms_match_the_row_oracle():
    """Every order of every small oracle, m <= 5."""
    cases = 0
    for oracle, _ in small_cases():
        m = oracle.ground_size
        rows = exchange_rows(oracle.base_bits, m)
        for ranking in permutations(range(1, m + 1)):
            assert activity_terms(oracle, ranking) == activity_terms_by_rows(rows, ranking), (oracle, ranking)
            cases += 1
    assert cases == 17818


def test_bitmap_kernel_matches_the_row_oracle():
    """Every order of every small oracle, m <= 5, called on the bitmap side
    directly: the size rule sends all of them to the buckets.  The uniform
    ranks 0 and m, where a base has no element on one side, are among
    them."""
    cases = 0
    for oracle, _ in small_cases():
        m = oracle.ground_size
        rows = exchange_rows(oracle.base_bits, m)
        for ranking in permutations(range(1, m + 1)):
            assert matroids._bitmap_terms(oracle, ranking) == activity_terms_by_rows(rows, ranking), (oracle, ranking)
            cases += 1
    assert cases == 17818


def shuffled_order(m):
    shuffled = list(range(1, m + 1))
    random.Random(m).shuffle(shuffled)
    return tuple(shuffled)


def counted_kernels(monkeypatch):
    """Patch both kernels of ``activity_terms`` to log the side each call
    takes."""
    sides = []
    for side in ("bitmap", "bucket"):
        kernel = getattr(matroids, f"_{side}_terms")

        def counted(oracle, ranking, side=side, kernel=kernel):
            sides.append(side)
            return kernel(oracle, ranking)

        monkeypatch.setattr(matroids, f"_{side}_terms", counted)
    return sides


@pytest.mark.parametrize(
    "region, side",
    [
        (rectangle(5, 5), "bitmap"),  # m = 10, n = 252: past the floor of 128 pairs
        (SMALL, "bucket"),  # m = 6, n = 15: below it
        (rectangle(14, 1), "bucket"),  # m = 15, n = 15: below 2^15 / 16
        (rectangle(8, 8), "bitmap"),  # m = 16, n = 12,870: past 2^16 / 16
    ],
    ids=str,
)
def test_tutte_poly_on_each_side_of_the_size_rule(monkeypatch, region, side):
    """The natural and reversed orders give the (l, b) and (r, t) contact
    distributions and a shuffled order the same polynomial, on the side
    the rule picks; the other kernel agrees under the shuffled order."""
    m = region.x + region.y
    oracle = lpm_oracle(region)
    shuffled = shuffled_order(m)
    other = matroids._bucket_terms if side == "bitmap" else matroids._bitmap_terms
    sides = counted_kernels(monkeypatch)
    natural = tutte_poly(oracle, natural_order(m))
    assert natural == path_distribution(region, ["l", "b"])
    assert tutte_poly(oracle, reversed_order(m)) == path_distribution(region, ["r", "t"])
    assert tutte_poly(oracle, shuffled) == natural
    assert sides == [side] * 3
    assert other(oracle, shuffled) == natural.terms


def test_activity_terms_match_the_row_oracle_at_ground_size_10():
    """Every 10th region of the n = 5 conjecture family (m = 10), under the
    natural order, the reversed order and three seeded random orders."""
    regions = regions_touching_only_at_ends(5)[::10]
    assert len(regions) == 177
    rng = random.Random(10)
    for region in regions:
        oracle = lpm_oracle(region)
        rows = exchange_rows(oracle.base_bits, 10)
        rankings = [tuple(range(1, 11)), tuple(range(10, 0, -1))]
        rankings += [tuple(rng.sample(range(1, 11), 10)) for _ in range(3)]
        for ranking in rankings:
            assert activity_terms(oracle, ranking) == activity_terms_by_rows(rows, ranking), (region, ranking)


def counted_tables(monkeypatch):
    """Patch the builds of the buckets, their split and the bitmaps to log
    each build."""
    calls = []
    build_buckets = matroids.exchange_buckets

    def counted_buckets(encoded, m):
        calls.append("buckets")
        return build_buckets(encoded, m)

    monkeypatch.setattr(matroids, "exchange_buckets", counted_buckets)
    for name in ("split", "bitmaps"):
        table = BasesOracle.__dict__[name]

        def counted(oracle, name=name, build=table.func):
            calls.append(name)
            return build(oracle)

        monkeypatch.setattr(table, "func", counted)
    return calls


def assert_tables_built_once(monkeypatch, region, built, per_base):
    """``tutte_poly`` under three orders builds the tables ``built`` once;
    a question about one base adds the builds ``per_base``, and an oracle
    of its own for each order builds ``built`` again, with equal
    polynomials."""
    m = region.x + region.y
    orders = (natural_order(m), reversed_order(m), shuffled_order(m))
    calls = counted_tables(monkeypatch)
    oracle = lpm_oracle(region)
    polys = [tutte_poly(oracle, order) for order in orders]
    assert calls == built
    base = oracle.bases()[0]
    active_elements(oracle, base, orders[2])
    reorder_bijection(oracle, orders[0], orders[1], base)
    assert calls == built + per_base
    for order, poly in zip(orders, polys):
        assert poly == tutte_poly(lpm_oracle(region), order)
    assert calls == built + per_base + built * 3


def test_tutte_poly_builds_masks_once_per_oracle(monkeypatch):
    """On the bucket side (m = 6, n = 15) the buckets and their split are
    each built on the first question to an oracle, and shared by every
    order and every later question; no bitmap is built."""
    assert_tables_built_once(monkeypatch, SMALL, ["split", "buckets"], [])


def test_tutte_poly_builds_bitmaps_once_per_oracle(monkeypatch):
    """On the bitmap side (5x5, m = 10, n = 252) the bitmaps are built once
    and shared by every order; the buckets are built only when a question
    about one base asks for them, and their split never."""
    assert_tables_built_once(monkeypatch, rectangle(5, 5), ["bitmaps"], ["buckets"])
