from itertools import product

import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import outcome
from pathlab import paths, swaps
from pathlab.enumeration import enumerate_paths
from pathlab.paths import (
    ContactStats,
    Path,
    PathError,
    Region,
    RegionError,
    contact_stats,
    contains,
    descent_set,
    noncontact_heights,
    north_edges,
    north_index_set,
    parse_path,
    path_from_north_set,
)
from pathlab.verify import all_regions

# a wide region reused by several pinned examples
BIG_T = "NNENEENENENENEEEE"
BIG_B = "EEENENEENENNEENEN"
BIG_PATH = "ENNNEEENNEEEEENNE"


def test_parse_alternating():
    p = parse_path("ENENEN")
    assert p.heights == (0, 1, 2)
    assert p.y == 3


def test_parse_norths_first():
    assert parse_path("NNEE").heights == (2, 2)


def test_parse_revisit_is_error():
    with pytest.raises(PathError):
        parse_path("ENSE")


def test_parse_below_axis_is_error():
    with pytest.raises(PathError):
        parse_path("SE")


def test_parse_trailing_descent_is_error():
    with pytest.raises(PathError):
        parse_path("ENNESS")


def test_canonical_string_roundtrip():
    p = Path((2, 1, 1, 3), 3)
    assert parse_path(p.steps()) == p


heights_strategy = st.integers(0, 4).flatmap(
    lambda y: st.tuples(
        st.lists(st.integers(0, y), max_size=5).map(tuple), st.just(y)
    )
)


@given(heights_strategy)
def test_roundtrip_any_heights(data):
    heights, y = data
    p = Path(heights, y)
    assert parse_path(p.steps()) == p


def test_region_example():
    r = Region.from_steps("NNENEE", "ENEENN")
    assert (r.x, r.y) == (3, 3)
    assert r.t_heights == (2, 3, 3)
    assert r.b_heights == (0, 1, 1)


def test_degenerate_region():
    r = Region.from_steps("EN", "EN")
    assert (r.x, r.y) == (1, 1)
    assert r.t_heights == r.b_heights


def test_region_dominance_error():
    with pytest.raises(RegionError):
        Region(parse_path("ENNE"), parse_path("NNEE"))


def test_region_parse_reads_labels_in_either_order():
    r = Region.from_steps("NNEE", "ENEN")
    assert Region.parse("T=NNEE;B=ENEN") == r
    assert Region.parse("B=ENEN;T=NNEE") == r


@pytest.mark.parametrize(
    "text",
    [
        "Q=NNEE;Z=ENEN",  # unknown labels
        "T=NNEE;Z=ENEN",
        "T=NNEE;B=ENEN;Q=ENEN",
        "T=NNEE",  # missing label
        "T=NNEE;T=NNEE",  # duplicated label
        "T=NNEE;B=ENEN;B=ENEN",
        "NNEE;ENEN",  # no labels
    ],
)
def test_region_parse_rejects_bad_labels(text):
    with pytest.raises(RegionError):
        Region.parse(text)


def test_region_endpoint_error():
    with pytest.raises(RegionError):
        Region.from_steps("NE", "ENN")


def test_contains():
    r = Region.from_steps("NNENEE", "ENEENN")
    assert contains(r, Path((0, 1, 2), 3))
    assert not contains(r, Path((3, 3, 3), 3))
    assert contains(r, r.bottom)


def test_contact_stats_small_region():
    r = Region.from_steps("NNENEE", "ENEENN")
    assert contact_stats(r, Path((0, 1, 2), 3)) == ContactStats(0, 2, 0, 2)
    assert contact_stats(r, r.bottom) == ContactStats(0, 3, 0, 3)


def test_contact_stats_wide_region():
    r = Region.from_steps(BIG_T, BIG_B)
    p = parse_path(BIG_PATH)
    assert p.heights == (0, 3, 3, 3, 5, 5, 5, 5, 5, 7)
    assert contact_stats(r, p).as_tuple() == (4, 3, 2, 1)


def test_contact_stats_is_an_immutable_record():
    st_ = contact_stats(Region.from_steps("NNENEE", "ENEENN"), Path((0, 1, 2), 3))
    assert ContactStats._fields == ("t", "b", "l", "r")
    assert (st_.t, st_.b, st_.l, st_.r) == (0, 2, 0, 2)
    assert st_.as_tuple() == (0, 2, 0, 2)
    assert type(st_.as_tuple()) is tuple
    assert repr(st_) == "ContactStats(t=0, b=2, l=0, r=2)"
    assert st_ == (0, 2, 0, 2)
    with pytest.raises(AttributeError):
        st_.t = 1
    assert hash(st_) == hash(ContactStats(0, 2, 0, 2))


def test_shared_column_counts_to_both():
    r = Region.from_steps("EN", "EN")
    st_ = contact_stats(r, r.bottom)
    assert (st_.t, st_.b) == (1, 1)


def contact_stats_by_definition(region, path):
    """t and b column by column, l and r as intersections of north edge
    sets."""
    if not contains(region, path):
        raise RegionError("path does not lie in the region")
    t = sum(h == th for h, th in zip(path.heights, region.t_heights))
    b = sum(h == bh for h, bh in zip(path.heights, region.b_heights))
    own = north_edges(path)
    l = len(own & north_edges(region.top))
    r = len(own & north_edges(region.bottom))
    return ContactStats(t, b, l, r)


def noncontact_heights_by_definition(region, path):
    if not contains(region, path):
        raise RegionError("path does not lie in the region")
    return tuple(
        h
        for h, th, bh in zip(path.heights, region.t_heights, region.b_heights)
        if h != th and h != bh
    )


def test_contact_statistics_match_definition():
    for region in all_regions(7):
        for p in enumerate_paths(region, south_allowed=True):
            assert contact_stats(region, p) == contact_stats_by_definition(region, p)
            assert noncontact_heights(region, p) == noncontact_heights_by_definition(region, p)


# Each reader of paths._columns beside the loop it replaced.
READERS = [
    (contact_stats, oracles.contact_stats),
    (noncontact_heights, oracles.noncontact_heights),
    (swaps.contact_word, oracles.contact_word),
    (swaps._scan, oracles.scan),
]


def assert_readers_match_oracles(region, path):
    # a fresh copy per reader, so that each reader once scans and once reads
    # a record that another reader's scan kept
    for first, first_oracle in READERS:
        q = Path._of(path.heights, path.y)
        assert outcome(first, region, q) == outcome(first_oracle, region, q)
        for fn, oracle in READERS:
            assert outcome(fn, region, q) == outcome(oracle, region, q)
    assert len(paths._memo) <= 2


def test_readers_match_the_column_loops():
    inside = outside = 0
    for region in all_regions(6):
        for south_allowed in (False, True):
            for p in enumerate_paths(region, south_allowed):
                inside += 1
                assert_readers_match_oracles(region, p)
        for heights in product(range(region.y + 1), repeat=region.x):
            p = Path(heights, region.y)
            if not contains(region, p):
                outside += 1
                assert_readers_match_oracles(region, p)
    assert (inside, outside) == (6512, 22061)
    r = Region.from_steps("NNEE", "ENEN")
    for p in (Path((2, 2, 2), 2), Path((1, 1, 1), 2), Path((1,), 1), Path((1, 1), 3), Path((2, 2), 3)):
        assert_readers_match_oracles(r, p)
        for stat in (contains, contact_stats, noncontact_heights):
            assert outcome(stat, r, p) == (RegionError, "path and region dimensions differ")


def test_kept_records_stay_with_their_path_and_region():
    staircase = Region.from_steps("NNEE", "ENEN")
    square = Region.from_steps("NNEE", "EENN")
    p = Path((1, 1), 2)
    # one path object under two regions, interleaved
    for region in (staircase, square, staircase, square):
        assert contact_stats(region, p) == oracles.contact_stats(region, p)
        assert swaps.contact_word(region, p) == oracles.contact_word(region, p)
    assert contact_stats(staircase, p) != contact_stats(square, p)
    # equal but distinct paths, and an equal but distinct region, are
    # scanned again
    q = Path((1, 1), 2)
    assert contact_stats(square, q) == oracles.contact_stats(square, q)
    assert [(e[0], e[1]) for e in paths._memo] == [(p, square), (q, square)]
    assert paths._memo[0][0] is p and paths._memo[1][0] is q
    other = Region.from_steps("NNEE", "EENN")
    assert noncontact_heights(other, q) == oracles.noncontact_heights(other, q)
    assert paths._memo[1][1] is other and len(paths._memo) == 2
    # a scan that raised leaves no entry behind
    kept = list(paths._memo)
    for bad in (Path((2, 0), 2), Path((1,), 2)):
        for fn, oracle in READERS:
            assert outcome(fn, staircase, bad) == outcome(oracle, staircase, bad)
            assert all(a is b for a, b in zip(paths._memo, kept)) and len(paths._memo) == 2
    # _scan hands out fresh lists, which the moves may rewrite
    cols, _, _ = swaps._scan(staircase, p)
    cols[0] = 99
    assert swaps._scan(staircase, p) == oracles.scan(staircase, p)


def test_descent_set():
    assert descent_set(Path((0, 3, 2, 1, 4, 2, 4, 5, 5, 7), 7)) == {2, 3, 5}
    assert descent_set(Path((0, 1, 2), 3)) == frozenset()
    assert descent_set(Path((3, 1), 3)) == {1}


@given(heights_strategy)
def test_descents_empty_iff_monotone(data):
    heights, y = data
    p = Path(heights, y)
    assert (descent_set(p) == frozenset()) == p.is_monotone


def test_noncontact_heights():
    r = Region.from_steps("NNNEEENEE", "EENEEENNN")
    assert noncontact_heights(r, Path((2, 3, 2, 3, 4), 4)) == (2, 2, 3)
    small = Region.from_steps("NNENEE", "ENEENN")
    assert noncontact_heights(small, Path((0, 1, 2), 3)) == (2,)
    assert noncontact_heights(small, small.bottom) == ()


def test_noncontact_length_identity():
    r = Region.from_steps("NNENEE", "ENEENN")
    both_free = Region.from_steps("ENNE", "ENNE")
    for region in (r, both_free):
        shared = sum(t == b for t, b in zip(region.t_heights, region.b_heights))

        for p in enumerate_paths(region):
            s = contact_stats(region, p)
            assert s.t + s.b >= 2 * shared
            both = sum(
                h == t == b
                for h, t, b in zip(p.heights, region.t_heights, region.b_heights)
            )
            assert len(noncontact_heights(region, p)) == region.x - s.t - s.b + both


def test_north_index_set():
    assert north_index_set(parse_path(BIG_PATH)) == {2, 3, 4, 8, 9, 15, 16}
    assert north_index_set(parse_path("NNEE")) == {1, 2}
    assert north_index_set(parse_path("ENENEN")) == {2, 4, 6}


def test_north_index_set_rejects_descents():
    with pytest.raises(PathError):
        north_index_set(Path((2, 1), 2))


def test_north_set_roundtrip():
    p = parse_path("ENENEN")
    assert path_from_north_set(3, 3, north_index_set(p)) == p
