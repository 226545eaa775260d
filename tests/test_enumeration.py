import random
from collections import Counter, defaultdict
from itertools import product
from math import comb, prod

import pytest

from pathlab.applications import dyck_region, regions_touching_only_at_ends
from pathlab.cli import main
from pathlab.enumeration import (
    CONTACT_STATS,
    VAR_NAMES,
    _height_sequences,
    enumerate_paths,
    enumerate_tuples,
    lgv_count,
    path_distribution,
)
from pathlab.matroids import lpm_oracle, natural_order, reversed_order, tutte_poly
from pathlab.paths import Path, Region, contact_stats, parse_path, vertices
from pathlab.polynomials import MultiPoly, int_determinant
from pathlab.triangulations import catalan
from pathlab.tuples import PathTuple, _inner_region
from pathlab.verify import all_regions

from oracles import half_turn, parse_poly, rectangle, transpose

SMALL = Region.from_steps("NNENEE", "ENEENN")


def test_path_count_example():
    assert sum(1 for _ in enumerate_paths(SMALL)) == 15


def test_single_path_region():
    r = Region.from_steps("EN", "EN")
    assert [p.heights for p in enumerate_paths(r)] == [(0,)]


def test_lex_order_and_stream_determinism():
    seen = [p.heights for p in enumerate_paths(SMALL)]
    assert seen == sorted(seen)
    assert seen == [p.heights for p in enumerate_paths(SMALL)]


def test_height_sequences_match_filtered_product():
    # every bound pair of width at most 3 over 0..2, lo above hi included
    for n in range(4):
        for lo in product(range(3), repeat=n):
            for hi in product(range(3), repeat=n):
                expected = [
                    h
                    for h in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
                    if all(u <= v for u, v in zip(h, h[1:]))
                ]
                assert list(_height_sequences(lo, hi)) == expected


def test_wide_region_is_not_bounded_by_the_recursion_limit(capsys):
    top, bottom = "N" + "E" * 1200, "E" * 1200 + "N"
    region = Region.from_steps(top, bottom)
    assert sum(1 for _ in enumerate_paths(region)) == 1201 == lgv_count(region, 1)
    assert path_distribution(region, ["t", "b"]).coefficient_sum() == 1201
    assert main(["enumerate", "--T", top, "--B", bottom]) == 0
    assert capsys.readouterr().out.endswith("total 1201\n")


def filtered_regions(max_semi: int):
    """The oracle for ``all_regions``: pair every two paths of each
    rectangle and keep, through the checked ``Region``, the pairs where the
    first dominates."""
    for total in range(0, max_semi + 1):
        for x in range(0, total + 1):
            paths = list(enumerate_paths(rectangle(x, total - x)))
            for top in paths:
                for bottom in paths:
                    if all(t >= b for t, b in zip(top.heights, bottom.heights)):
                        yield Region(top, bottom)


def test_all_regions_match_the_filtered_pairs_in_order():
    for n in range(8):
        assert list(all_regions(n)) == list(filtered_regions(n))


def test_unchecked_regions_pass_the_full_checks():
    # all_regions, regions_touching_only_at_ends and _inner_region build
    # their regions without the checks of Region.__post_init__; each must
    # equal the region rebuilt from checked paths
    built = list(all_regions(7))
    built += [r for n in range(7) for r in regions_touching_only_at_ends(n)]
    built += [
        _inner_region(t, i)
        for region in all_regions(5)
        for k in (1, 2)
        for t in enumerate_tuples(region, k)
        for i in range(1, k + 1)
    ]
    for region in built:
        t, b = region.top, region.bottom
        assert Region(Path(t.heights, t.y), Path(b.heights, b.y)) == region


def rebuilt(obj):
    """The tuple or polynomial built again through its checked constructor."""
    if isinstance(obj, PathTuple):
        return PathTuple(obj.region, obj.paths)
    return MultiPoly(obj.variables, obj.terms)


def test_unchecked_tuples_pass_the_full_checks():
    # enumerate_tuples builds its tuples with PathTuple._of
    cases = [t for region in all_regions(5) for k in range(4) for t in enumerate_tuples(region, k)]
    assert len(cases) == 5053
    for t in cases:
        assert rebuilt(t) == t


def test_unchecked_polynomials_pass_the_full_checks():
    # path_distribution, tutte_poly and the renamings build their
    # polynomials with MultiPoly._of
    polys = []
    for region in all_regions(6):
        for pair in product(CONTACT_STATS, repeat=2):
            for south_allowed in (False, True):
                p = path_distribution(region, list(pair), south_allowed)
                polys += [p, p.permute_variables({"x": "y", "y": "x"}), p.with_variable_order("yx")]
        oracle, m = lpm_oracle(region), region.x + region.y
        polys += [tutte_poly(oracle, natural_order(m)), tutte_poly(oracle, reversed_order(m))]
    assert len(polys) == 625 * (16 * 2 * 3 + 2)
    for p in polys:
        q = rebuilt(p)
        assert q == p and q.to_json() == p.to_json(), p


def test_the_rebuild_catches_planted_faults():
    r = Region.from_steps("NE", "EN")
    with pytest.raises(ValueError, match="not weakly nested"):
        rebuilt(PathTuple._of(r, (parse_path("EN"), parse_path("NE"))))
    zero = MultiPoly._of(("x", "y"), {(1, 0): 0, (0, 1): 2})
    assert rebuilt(zero) != zero and rebuilt(zero).to_json() != zero.to_json()


def test_all_regions_share_one_path_per_height_vector():
    # at most C(x+y, x) distinct boundary objects per (x, y): a fresh Path
    # per region would cost the involution workload a quarter more memory;
    # the list keeps every region alive, so no id is reused
    regions = list(all_regions(8))
    boundaries = defaultdict(set)
    for region in regions:
        boundaries[region.x, region.y].update((id(region.top), id(region.bottom)))
    assert len(boundaries) == 45
    for (x, y), ids in boundaries.items():
        assert len(ids) <= comb(x + y, x), (x, y)


def test_descent_class_members(capsys):
    argv = ["enumerate", "--T", "NNNEEENEE", "--B", "EENEEENNN", "--south"]
    assert main(argv + ["--descents", "2", "--heights", "2,2,3"]) == 0
    *lines, total = capsys.readouterr().out.splitlines()
    assert total == "total 7"
    # two involution orbits plus the balanced fixed point
    assert {parse_path(line).heights for line in lines} == {
        (2, 3, 2, 3, 4),
        (2, 2, 1, 3, 4),
        (2, 2, 1, 1, 3),
        (3, 3, 2, 2, 3),
        (0, 3, 2, 2, 3),
        (0, 2, 1, 2, 3),
        (2, 3, 1, 2, 3),
    }


def test_tuple_counts():
    r = Region.from_steps("NE", "EN")
    assert sum(1 for _ in enumerate_tuples(r, 2)) == 3
    stair = Region.from_steps("NNEE", "ENEN")
    assert sum(1 for _ in enumerate_tuples(stair, 1)) == 5
    bigger = Region.from_steps("NNNEEE", "ENENEN")
    assert sum(1 for _ in enumerate_tuples(bigger, 1)) == 14
    assert sum(1 for _ in enumerate_tuples(SMALL, 1)) == sum(
        1 for _ in enumerate_paths(SMALL)
    )
    assert [t.paths for t in enumerate_tuples(SMALL, 0)] == [()]


def test_distribution_polynomials_match_displays():
    tb = path_distribution(SMALL, ["t", "b"])
    assert tb == parse_poly(
        "x^3+x^2*y+x*y^2+y^3+2*x^2+2*x*y+2*y^2+2*x+2*y+1", ("x", "y")
    )
    bl = path_distribution(SMALL, ["b", "l"])
    assert bl == parse_poly("x^3+x^2*y+y^3+2*x^2+3*x*y+3*y^2+2*x+2*y", ("x", "y"))
    tr = path_distribution(SMALL, ["t", "r"])
    assert bl == tr


def enumerated_distribution(
    region: Region, stat_names: list[str], south_allowed: bool = False
) -> MultiPoly:
    """The oracle for ``path_distribution``: list every path and fold its
    ``contact_stats`` into the polynomial."""
    slots = [CONTACT_STATS.index(name) for name in stat_names]
    terms = Counter(
        tuple(contact_stats(region, p).as_tuple()[slot] for slot in slots)
        for p in enumerate_paths(region, south_allowed)
    )
    return MultiPoly(VAR_NAMES[: len(stat_names)], terms)


STAT_LISTS = (
    [[a] for a in "tblr"]
    + [[a, b] for a, b in product("tblr", repeat=2)]
    + [["t", "b", "l"], ["b", "t", "r"], ["t", "b", "l", "r"]]
    + [["l", "b", "l"], ["r", "r", "r"], list("tblrtb")]
)


def test_path_distribution_matches_per_path_count():
    cases = 0
    for region in all_regions(7):
        for south in (False, True):
            for names in STAT_LISTS:
                got = path_distribution(region, names, south)
                expected = enumerated_distribution(region, names, south)
                assert got == expected, (region, names, south)
                assert got.variables == expected.variables
                assert list(got.terms) == sorted(got.terms)
                cases += 1
    assert cases == 106860


def staircase_regions(max_y: int):
    """For each y up to the bound, the square's regions bounded by the
    staircase: between it and the floor, between it and its shift one step
    down, and between the roof and that shift."""
    for y in range(1, max_y + 1):
        roof, stair, low, floor = (y,) * y, tuple(range(1, y + 1)), tuple(range(y)), (0,) * y
        for top, bottom in ((stair, floor), (stair, low), (roof, low)):
            yield Region(Path(top, y), Path(bottom, y))


# South-step listings grow as the product of the column spans, so the oracle
# lists them only up to this many paths.
MAX_SOUTH_PATHS = 10_000


def test_path_distribution_matches_per_path_count_on_tall_columns():
    """Regions whose columns span many heights, where the running sum of
    ``path_distribution`` takes many raises and the downward sweep many
    prefixes: every rectangle with x * y <= 24 and the staircase regions up
    to y = 10, over every entry of ``STAT_LISTS``, each without south steps
    and, up to ``MAX_SOUTH_PATHS`` paths, with them."""
    regions = [rectangle(x, y) for x in range(1, 25) for y in range(1, 24 // x + 1)]
    regions += staircase_regions(10)
    cases = 0
    for region in regions:
        south_paths = prod(t - b + 1 for t, b in zip(region.t_heights, region.b_heights))
        for south in (False, True) if south_paths <= MAX_SOUTH_PATHS else (False,):
            # each path's four statistics, counted once and then projected
            contacts = Counter(contact_stats(region, p) for p in enumerate_paths(region, south))
            for names in STAT_LISTS:
                slots = [CONTACT_STATS.index(name) for name in names]
                terms = Counter()
                for stats, count in contacts.items():
                    terms[tuple(stats[slot] for slot in slots)] += count
                expected = MultiPoly(VAR_NAMES[: len(names)], dict(terms))
                got = path_distribution(region, names, south)
                assert got == expected, (region, names, south)
                assert got.variables == expected.variables
                cases += 1
    assert cases == 5252


def test_path_distribution_takes_one_letter_per_variable_name():
    region = Region.from_steps("NE", "EN")
    assert path_distribution(region, list("tblrtb")).variables == VAR_NAMES
    with pytest.raises(ValueError):
        path_distribution(region, list("tblrtbl"))


def test_path_distribution_coefficient_widths():
    """The packed kernel gives each coefficient the whole bytes of the
    region's path count: requests whose counts sit on both sides of a byte
    boundary (128, 256 and 65,536 paths with south steps, 252 and 462
    without), under (t, l) and under no letter at all, whose one
    coefficient is the whole count."""
    cases = [(rectangle(x, 1), True) for x in (7, 8, 16)] + [(rectangle(5, y), False) for y in (5, 6)]
    for region, south in cases:
        for names in (["t", "l"], []):
            got = path_distribution(region, names, south)
            assert got == enumerated_distribution(region, names, south), (region, names, south)
        assert got.terms == {(): lgv_count(region, 1) if not south else 2**region.x}


def test_deutsch_dyck_contacts_are_symmetric_with_catalan_total():
    # Deutsch (Discrete Math. 204, 1999): on the Dyck region the (t, b)
    # distribution is symmetric; at n = 60 a coefficient takes 15 bytes
    for n in range(61):
        terms = path_distribution(dyck_region(n), ["t", "b"]).terms
        assert all(terms.get((b, t)) == count for (t, b), count in terms.items()), n
        assert sum(terms.values()) == catalan(n)


def drawn_region(rng: random.Random, x: int, y: int) -> Region:
    """Two shuffled step strings of the x-by-y rectangle, the higher height
    of each column on top and the lower one below."""
    heights = []
    for _ in range(2):
        steps = ["N"] * y + ["E"] * x
        rng.shuffle(steps)
        heights.append(parse_path("".join(steps)).heights)
    top = tuple(max(a, b) for a, b in zip(*heights))
    bottom = tuple(min(a, b) for a, b in zip(*heights))
    return Region(Path(top, y), Path(bottom, y))


def test_symmetry_identities_past_enumeration():
    """The half turn trades t and b, and the transpose trades l with b and r
    with t, so three identities check the kernel's l and r terms through its
    t and b ones, on regions no enumeration reaches: seeded ones with
    x + y = 40 and elongated ones on both sides of the packing rule.  On
    the elongated ones and a few others each pair also equals the
    projection of the joint (t, b, l, r), which takes the dict sweep, so
    the two sweeps check each other."""
    rng = random.Random(29)
    drawn = [drawn_region(rng, x, 40 - x) for x in rng.choices(range(1, 40), k=40)]
    elongated = [drawn_region(rng, x, y) for x, y in ((30, 3), (3, 30), (40, 1), (1, 40)) for _ in range(3)]
    for region in drawn + elongated:
        turned, flipped = half_turn(region), transpose(region)
        assert path_distribution(region, ["l", "r"]) == path_distribution(flipped, ["b", "t"]), region
        for south in (False, True):
            assert path_distribution(turned, ["t", "b"], south) == path_distribution(
                region, ["b", "t"], south
            ), (region, south)
        assert path_distribution(region, ["b", "l"]) == path_distribution(turned, ["t", "r"]), region
    for region in drawn[:8] + elongated:
        joint = path_distribution(region, list(CONTACT_STATS)).terms
        for i, j in product(range(4), repeat=2):
            projected = Counter()
            for exps, count in joint.items():
                projected[exps[i], exps[j]] += count
            names = [CONTACT_STATS[i], CONTACT_STATS[j]]
            assert path_distribution(region, names).terms == projected, (region, names)


def test_lgv_examples():
    r = Region.from_steps("NE", "EN")
    assert lgv_count(r, 2) == 3
    assert lgv_count(SMALL, 1) == 15
    fan = Region.from_steps("NNEE", "ENEN")
    assert lgv_count(fan, 2) == sum(1 for _ in enumerate_tuples(fan, 2))


def _count_paths_avoiding(
    start: tuple[int, int], end: tuple[int, int], forbidden: frozenset[tuple[int, int]]
) -> int:
    (sx, sy), (ex, ey) = start, end
    if ex < sx or ey < sy:
        return 0
    counts = {start: 0 if start in forbidden else 1}
    for px in range(sx, ex + 1):
        for py in range(sy, ey + 1):
            if (px, py) == start:
                continue
            if (px, py) in forbidden:
                counts[(px, py)] = 0
                continue
            counts[(px, py)] = counts.get((px - 1, py), 0) + counts.get((px, py - 1), 0)
    return counts[end]


def vertex_set_lgv_count(region: Region, k: int) -> int:
    """The oracle for ``lgv_count``: each of the k * k entries by its own
    grid walk from (j, -j) to (x + i, y - i) that skips the forbidden
    vertex sets outright."""
    x, y = region.x, region.y
    shift = k + 1
    forbidden = frozenset(vertices(region.top)) | frozenset(
        (px + shift, py - shift) for px, py in vertices(region.bottom)
    )
    matrix = [
        [
            _count_paths_avoiding((j, -j), (x + i, y - i), forbidden)
            for j in range(1, k + 1)
        ]
        for i in range(1, k + 1)
    ]
    return int_determinant(matrix)


def test_lgv_matches_the_vertex_set_oracle():
    cases = 0
    for region in all_regions(7):
        for k in range(5):
            assert lgv_count(region, k) == vertex_set_lgv_count(region, k), (str(region), k)
            cases += 1
    assert cases == 5 * 2055


def test_lgv_counts_the_empty_tuple():
    for region in all_regions(4):
        assert lgv_count(region, 0) == 1 == len(list(enumerate_tuples(region, 0)))
    with pytest.raises(ValueError):
        lgv_count(SMALL, -1)


def test_lgv_matches_enumeration_exhaustive_small():
    for region in all_regions(5):
        for k in (1, 2, 3):
            assert lgv_count(region, k) == sum(1 for _ in enumerate_tuples(region, k))


def test_lgv_matches_enumeration_sampled_large():
    rng = random.Random(20240809)
    checked = 0
    while checked < 12:
        total = rng.randint(7, 10)
        x = rng.randint(1, total - 1)
        y = total - x
        paths = list(enumerate_paths(rectangle(x, y)))
        top = rng.choice(paths)
        below = [
            p
            for p in paths
            if all(t >= b for t, b in zip(top.heights, p.heights))
        ]
        bottom = rng.choice(below)
        region = Region(top, bottom)
        k = rng.randint(1, 3)
        expected = lgv_count(region, k)
        if expected > 20000:
            continue
        assert expected == sum(1 for _ in enumerate_tuples(region, k))
        checked += 1
