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
    # a fresh copy of the region per reader, which empties the kept tables,
    # so that each reader once scans and once reads a record that another
    # reader's scan kept
    for first, first_oracle in READERS:
        fresh = Region._of(region.top, region.bottom)
        assert outcome(first, fresh, path) == outcome(first_oracle, fresh, path)
        for fn, oracle in READERS:
            assert outcome(fn, fresh, path) == outcome(oracle, fresh, path)
    assert len(paths._records) <= 1


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


SQUARE = "NNNEEE", "EEENNN"


def test_equal_paths_share_one_record_and_one_image():
    square = Region.from_steps(*SQUARE)
    p, q = Path((3, 3, 3), 3), Path((3, 3, 3), 3)
    record = paths._columns(square, p)
    assert paths._columns(square, q) is record
    image = swaps.swapall(square, p)
    assert image == Path((0, 0, 0), 3) and swaps.swapall(square, q) is image
    assert paths._records == {(3, 3, 3): record} and paths._images == {(3, 3, 3): image}
    # the image is another path, scanned and swapped once in its turn
    assert swaps.swapall(square, image) == p and contact_stats(square, image) == (0, 3, 0, 3)
    assert len(paths._records) == len(paths._images) == 2
    # an endpoint other than the region's never reads a kept record
    for taller in (Path((3, 3, 3), 4), Path((3, 3, 3), 5)):
        for fn, oracle in READERS:
            assert outcome(fn, square, taller) == (RegionError, "path and region dimensions differ")
        assert outcome(swaps.swapall, square, taller) == (RegionError, "path and region dimensions differ")


def test_swapall_returns_its_own_argument_when_the_counts_agree():
    square = Region.from_steps(*SQUARE)
    p, q = Path((3, 1, 0), 3), Path((3, 1, 0), 3)
    assert contact_stats(square, p)[:2] == (1, 1)
    assert swaps.swapall(square, p) is p
    assert paths._images == {(3, 1, 0): None}
    assert swaps.swapall(square, q) is q


def test_a_new_region_empties_both_tables():
    square = Region.from_steps(*SQUARE)
    p = Path((3, 3, 3), 3)
    swaps.swapall(square, p)
    assert paths._held[0] is square and len(paths._records) == len(paths._images) == 1
    # an equal but distinct region, asked first of either table
    for reader in (contact_stats, swaps.swapall):
        other = Region.from_steps(*SQUARE)
        reader(other, p)
        assert paths._held[0] is other
        assert (len(paths._records), len(paths._images)) == (1, int(reader is swaps.swapall))
    staircase = Region.from_steps("NNNEEE", "ENENEN")
    assert contact_stats(staircase, p) == oracles.contact_stats(staircase, p)
    assert paths._held[0] is staircase and paths._images == {}


def test_a_raising_scan_or_swap_keeps_nothing(monkeypatch):
    staircase = Region.from_steps("NNEE", "ENEN")
    p = Path((2, 2), 2)
    swaps.swapall(staircase, p)
    kept = dict(paths._records), dict(paths._images)
    for bad in (Path((2, 0), 2), Path((1,), 2)):
        for fn, oracle in READERS + [(swaps.swapall, oracles.scan)]:
            assert outcome(fn, staircase, bad) == outcome(oracle, staircase, bad)
            assert (paths._records, paths._images) == kept
    # a move that raises keeps the path's scan, and no image
    q = Path((1, 2), 2)

    def broken(*args):
        raise paths.InvariantError("planted")

    monkeypatch.setattr(swaps, "_land", broken)
    with pytest.raises(paths.InvariantError, match="planted"):
        swaps.swapall(staircase, q)
    assert q.heights in paths._records and q.heights not in paths._images
    monkeypatch.undo()
    assert swaps.swapall(staircase, q) == Path((1, 1), 2)
    # _scan hands out fresh lists, which the moves may rewrite
    cols, _, _ = swaps._scan(staircase, p)
    cols[0] = 99
    assert swaps._scan(staircase, p) == oracles.scan(staircase, p)


def test_a_table_never_holds_more_than_the_cap():
    # 7^6 = 117,649 paths with south steps
    region = Region.from_steps("N" * 6 + "E" * 6, "E" * 6 + "N" * 6)
    scanned = 0
    for p in enumerate_paths(region, south_allowed=True):
        t, b, _, _ = oracles.contact_stats(region, swaps.swapall(region, p))
        assert contact_stats(region, p) == oracles.contact_stats(region, p)
        assert (b, t) == contact_stats(region, p)[:2]
        assert len(paths._records) <= paths.KEEP_CAP and len(paths._images) <= paths.KEEP_CAP
        scanned += 1
        if scanned == paths.KEEP_CAP + 1:
            break
    assert paths._held[0] is region and len(paths._records) == len(paths._images) == 1


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
