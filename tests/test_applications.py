import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import accumulate, product
from pathlib import Path as FilePath

import pytest

from pathlab import cli
from pathlab.applications import (
    IJReport,
    _counts_depend_on_sum,
    _t_then_b,
    _walk,
    andre_barbier_count,
    binom,
    brak_essam_counts,
    case1_region,
    case2_region,
    conjecture_check,
    contact_formula_count,
    corollary_ij_check,
    dyck_region,
    path_of_perm,
    perm_of_path,
    perm_stats,
    regions_touching_only_at_ends,
    walk_returns,
    watermelon_region,
)
from pathlab.enumeration import enumerate_paths, enumerate_tuples, path_distribution
from pathlab.paths import Path, Region, contact_stats, descent_set, parse_path, vertices
from pathlab.swaps import contact_word
from pathlab.tuples import PathTuple, h_stats
from pathlab.verify import all_regions

from oracles import rectangle


def test_corollary_conditions_agree_everywhere_small():
    for region in all_regions(7):
        assert corollary_ij_check(region).agree


def enumerated_corollary_ij(region: Region) -> IJReport:
    """The oracle for ``corollary_ij_check``: one ``contact_stats`` and one
    contact word per path, with no early exit."""
    counts: dict[tuple[int, int], int] = {}
    order_ok = True
    shared = any(t == b for t, b in zip(region.t_heights, region.b_heights))
    for p in enumerate_paths(region):
        st = contact_stats(region, p)
        counts[(st.t, st.b)] = counts.get((st.t, st.b), 0) + 1
        if "tb" in contact_word(region, p):
            order_ok = False
    cond_counts = _counts_depend_on_sum(counts, region.x + 1)
    cond_order = order_ok and not shared
    if region.x == 0:
        cond_boundary = True
    else:
        cond_boundary = region.b_heights[-1] < region.t_heights[0]
    return IJReport(cond_counts, cond_order, cond_boundary)


def test_corollary_matches_per_path_oracle():
    regions = list(all_regions(7)) + regions_touching_only_at_ends(5)
    for region in regions:
        assert corollary_ij_check(region) == enumerated_corollary_ij(region), region
    assert len(regions) == 2055 + 1764


def test_order_walk_matches_the_contact_words():
    """The column walk against every path's contact word, also where a
    shared column hides its answer from ``corollary_ij_check``."""
    found = hidden = 0
    for region in all_regions(7):
        expected = any("tb" in contact_word(region, p) for p in enumerate_paths(region))
        assert _t_then_b(region) == expected, region
        found += expected
        hidden += expected and any(t == b for t, b in zip(region.t_heights, region.b_heights))
    assert (found, hidden) == (496, 248)


def test_corollary_good_region():
    r = Region.from_steps("NNNEE", "EENNN")  # full-height top, bottom ends north
    rep = corollary_ij_check(r)
    assert rep.cond_counts and rep.cond_order and rep.cond_boundary


def test_corollary_degenerate_region():
    rep = corollary_ij_check(Region.from_steps("EN", "EN"))
    assert rep.agree and not rep.cond_boundary


def easy_bottom_count(region: Region, i: int, j: int) -> int:
    """Paths with i top and j bottom contacts, counted by the reduction to
    paths into a smaller rectangle above the truncated bottom boundary."""
    y = region.y
    if any(t != y for t in region.t_heights):
        raise ValueError("top boundary must be of the form N^y E^x")
    if region.b_heights and region.b_heights[-1] == y:
        raise ValueError("bottom boundary must end with a north step")
    width = region.x - i - j
    if width < 0:
        return 0
    if y < 2:
        return 1 if width == 0 else 0
    bounds = region.b_heights[:width]
    if any(b > y - 2 for b in bounds):
        return 0
    smaller = Region(Path((y - 2,) * width, y - 2), Path(bounds, y - 2))
    return sum(1 for _ in enumerate_paths(smaller))


def test_easy_bottom_count():
    r = Region.from_steps("NNEE", "EENN")
    counts = path_distribution(r, ["t", "b"]).terms
    assert easy_bottom_count(r, 1, 0) == counts.get((1, 0), 0)
    for i in range(0, 3):
        for j in range(0, 3 - i):
            assert easy_bottom_count(r, i, j) == counts.get((i, j), 0)
    assert easy_bottom_count(r, 2, 1) == 0 or easy_bottom_count(r, 2, 1) == counts.get((2, 1), 0)
    assert easy_bottom_count(r, 3, 2) == 0  # i + j exceeds the width


def test_easy_bottom_count_matches_direct_count_on_every_eligible_region():
    regions = pairs = 0
    for r in all_regions(6):
        if any(t != r.y for t in r.t_heights) or (r.b_heights and r.b_heights[-1] == r.y):
            continue
        regions += 1
        counts = path_distribution(r, ["t", "b"]).terms
        for i in range(r.x + 2):
            for j in range(r.x + 2 - i):
                assert easy_bottom_count(r, i, j) == counts.get((i, j), 0), (r, i, j)
                pairs += 1
    assert (regions, pairs) == (64, 690)


def test_easy_bottom_requires_north_ending():
    with pytest.raises(ValueError):
        easy_bottom_count(Region.from_steps("NNEE", "ENNE"), 0, 0)


def test_binomial_convention():
    assert binom(-1, 0) == 1
    assert binom(5, -1) == 0
    assert binom(-2, 3) == 0
    assert binom(5, 2) == 10


def test_andre_barbier_case1():
    assert andre_barbier_count(1, (2, 1, 0)) == 5
    region = case1_region(2, 1, 0)
    assert sum(1 for _ in enumerate_paths(region)) == 5
    assert andre_barbier_count(1, (2, 0, 0)) == 2  # ballot specialization


def test_andre_barbier_case2():
    assert andre_barbier_count(2, (1, 1, 1)) == 5
    assert sum(1 for _ in enumerate_paths(case2_region(1, 1, 1))) == 5
    # the degenerate width-one family counts its column heights
    assert andre_barbier_count(2, (0, 3, 1)) == 4
    assert sum(1 for _ in enumerate_paths(case2_region(0, 3, 1))) == 4


def test_contact_formula_case1():
    params = (2, 1, 0)
    region = case1_region(*params)
    counts = path_distribution(region, ["t", "b"]).terms
    for c in range(0, region.x + 2):
        for i in range(0, c + 1):
            assert contact_formula_count(1, params, i, c - i) == counts.get((i, c - i), 0)
    assert contact_formula_count(1, params, 1, 0) == 1
    assert contact_formula_count(1, params, 4, 0) == 0  # beyond the width


def test_contact_formula_case2():
    params = (2, 2, 1)
    region = case2_region(*params)
    counts = path_distribution(region, ["t", "b"]).terms
    for c in range(0, region.x + 2):
        for i in range(0, c + 1):
            assert contact_formula_count(2, params, i, c - i) == counts.get((i, c - i), 0)


def test_contact_formula_requires_positive_r():
    with pytest.raises(ValueError):
        contact_formula_count(1, (2, 0, 1), 1, 0)


def test_perm_path_bridge_pinned():
    perm = (3, 5, 6, 8, 1, 7, 4, 2)
    path = path_of_perm(perm)
    assert path.heights == (6, 5, 5, 4, 8, 6, 7, 8)
    assert perm_of_path(path) == perm
    assert perm_stats(perm) == (2, 4, frozenset({1, 3, 5}))


def test_perm_extremes():
    n = 5
    identity = tuple(range(1, n + 1))
    assert perm_stats(identity) == (n, 1, frozenset())
    decreasing = tuple(range(n, 0, -1))
    assert perm_stats(decreasing) == (1, n, frozenset())
    # all minima <-> every east step on the top boundary; all maxima <-> the
    # bottom boundary itself
    region = dyck_region(n)
    assert path_of_perm(identity) == Path((n,) * n, n)
    assert path_of_perm(decreasing) == region.bottom


def test_perm_bridge_exhaustive_small():
    region = dyck_region(4)

    perms = set()
    for p in enumerate_paths(region, south_allowed=True):
        perm = perm_of_path(p)
        assert path_of_perm(perm) == p
        rl_min, rl_max, positions = perm_stats(perm)
        st = contact_stats(region, p)
        assert (rl_min, rl_max) == (st.t, st.b)
        assert positions == descent_set(p)
        perms.add(perm)
    assert len(perms) == 24


def is_configuration(walks: tuple[tuple[int, ...], ...]) -> bool:
    """The oracle for the watermelon configurations, bottom walk first: the
    +-1 walks share their length and their deviation, the bottom walk
    never goes below 0, and with its 2i offset walk i+1 stays strictly
    above walk i."""
    if len({len(w) for w in walks}) != 1 or len({sum(w) for w in walks}) != 1:
        return False
    traces = [tuple(accumulate(w, initial=2 * i)) for i, w in enumerate(walks)]
    return min(traces[0]) >= 0 and all(
        a > b for lower, upper in zip(traces, traces[1:]) for a, b in zip(upper, lower)
    )


def configuration_tuple(walks: tuple[tuple[int, ...], ...]) -> PathTuple:
    """The walks, bottom first, as the checked tuple the ``watermelon`` verb
    builds: up steps become norths, down steps easts, top walk first."""
    region = watermelon_region(len(walks[0]), sum(walks[0]))
    paths = (parse_path("".join("N" if v == 1 else "E" for v in w)) for w in reversed(walks))
    return PathTuple(region, tuple(paths))


def test_watermelon_examples():
    t = configuration_tuple(((1, -1, 1, -1),))
    assert t.paths[0].heights == (1, 2)
    assert h_stats(t)[-1] == 2 == walk_returns(t.paths[-1])
    t2 = configuration_tuple(((1, 1, -1, -1),))
    assert t2.paths[0].heights == (2, 2)
    assert h_stats(t2)[-1] == 1 == walk_returns(t2.paths[-1])
    assert walk_returns(configuration_tuple(((1, -1),)).paths[0]) == 1


def test_watermelon_validation():
    for walks in (
        ((-1, 1),),  # dips below the axis
        ((1, -1), (1, 1)),  # deviations differ
        ((1, 1, -1, -1), (1, -1, 1, -1)),  # paths touch
        ((1, -1), (1, -1, 1, -1)),  # lengths differ
    ):
        assert not is_configuration(walks)
        with pytest.raises(ValueError):
            configuration_tuple(walks)
    for x, y in ((3, 0), (2, -2), (2, 4)):  # odd parity, deviation outside [0, x]
        with pytest.raises(ValueError):
            watermelon_region(x, y)


@cache
def brute_force_watermelons(x: int, y: int, k: int) -> frozenset[tuple[tuple[int, ...], ...]]:
    """Every k-tuple of +-1 walks of length x and deviation y that
    ``is_configuration`` accepts, bottom walk first.  Cached, as the
    Brak-Essam oracle asks for the same floors for every e."""
    walks = [w for w in product((1, -1), repeat=x) if sum(w) == y]
    return frozenset(steps for steps in product(walks, repeat=k) if is_configuration(steps))


def test_watermelons_match_brute_force():
    # the configurations are the nested tuples of watermelon_region read as
    # walks; there is no such region when x + y is odd or y lies outside [0, x]
    cases = 0
    for x in range(7):
        for y in range(-2, x + 3):
            for k in (1, 2, 3):
                if (x + y) % 2 or not 0 <= y <= x:
                    melons = []
                else:
                    tuples = enumerate_tuples(watermelon_region(x, y), k)
                    melons = [tuple(map(_walk, reversed(t.paths))) for t in tuples]
                assert len(melons) == len(set(melons))
                assert set(melons) == brute_force_watermelons(x, y, k), (x, y, k)
                cases += 1
    assert cases == 3 * sum(x + 5 for x in range(7))


def test_watermelon_tuple_bijection():
    for (x, y, k) in ((4, 0, 1), (4, 2, 2), (6, 0, 2)):
        melons = brute_force_watermelons(x, y, k)
        tuples = {configuration_tuple(m) for m in melons}
        assert tuples == set(enumerate_tuples(watermelon_region(x, y), k))
        for m in melons:
            assert tuple(map(_walk, reversed(configuration_tuple(m).paths))) == m


def test_returns_of_the_bottom_walk_are_its_bottom_contacts():
    # the Deutsch/Brak-Essam reading the watermelon verb prints: a return of
    # the bottom walk is an east step of the last path on the region's bottom
    cases = 0
    for x in range(9):
        for y in range(x % 2, x + 1, 2):
            for k in (1, 2, 3):
                for t in enumerate_tuples(watermelon_region(x, y), k):
                    assert walk_returns(t.paths[-1]) == h_stats(t)[-1], t
                    cases += 1
    assert cases == 5403


def test_watermelon_verb_accepts_exactly_the_configurations():
    steps = {"U": 1, "D": -1}
    texts = [
        ";".join(words)
        for x in range(5)
        for k in (1, 2, 3)
        for words in product(map("".join, product("UD", repeat=x)), repeat=k)
    ]
    texts += ["UD;UUDD", "UUDD;UD", "U;UUU", "UDx", "UD;U-", "ud", "UD;;UD", "N"]
    accepted = 0
    for text in texts:
        words = text.split(";")
        valid = set(text) <= set("UD;") and is_configuration(
            tuple(tuple(steps[c] for c in w) for w in words)
        )
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["watermelon", "--paths", text])
        out, err = out.getvalue(), err.getvalue()
        if valid:
            assert code == 0 and err == "", text
            fields = out.splitlines()[-1].split()
            assert fields[0] == "returns" and fields[-2] == "b" and fields[1] == fields[-1], text
            accepted += 1
        else:
            assert code == 2 and out == "", text
            assert err.startswith("error:") and err.count("\n") == 1, text
    assert (len(texts), accepted) == (5061, 55)


def walked_brak_essam_families(x: int, y: int, k: int, e: int) -> int:
    """The oracle for the truncated-family counts of ``brak_essam_counts``:
    every +-1 walk of the top path's length with the right number of up
    steps, kept when it stays at or above the axis and strictly above the
    (k-1)-th path of each configuration of the lower k-1 paths."""
    top_len = x - e - 1
    top_end = y + 2 * k + e - 3
    if top_len < 0 or (top_len + top_end - 2 * (k - 1)) % 2:
        return 0
    ups = (top_len + top_end - 2 * (k - 1)) // 2
    if ups < 0 or ups > top_len:
        return 0

    def top_paths(floor_trace):
        count = 0
        for pattern in product((1, -1), repeat=top_len):
            if sum(1 for v in pattern if v == 1) != ups:
                continue
            height = 2 * (k - 1)
            ok = True
            trace = [height]
            for v in pattern:
                height += v
                trace.append(height)
                if height < 0:
                    ok = False
                    break
            if not ok:
                continue
            if floor_trace is not None and any(
                a <= b for a, b in zip(trace, floor_trace[: top_len + 1])
            ):
                continue
            count += 1
        return count

    if k == 1:
        return top_paths(None)
    total = 0
    for steps in brute_force_watermelons(x, y, k - 1):
        trace = [2 * (k - 2)]
        height = trace[0]
        for v in steps[-1]:
            height += v
            trace.append(height)
        total += top_paths(trace)
    return total


def test_brak_essam_families_match_walk_oracle():
    cases = 0
    for x in range(9):
        for y in range(x % 2, x + 1, 2):
            for k in (1, 2, 3):
                families = brak_essam_counts(x, y, k)[1]
                for e in range(x + 1):
                    expected = walked_brak_essam_families(x, y, k, e)
                    assert families.get(e, 0) == expected, (x, y, k, e)
                    cases += 1
    assert cases == 465


def test_brak_essam_counts_match_goldens():
    # outputs recorded from the implementation that listed Watermelon objects,
    # for x <= 10, k <= 3 and 0 <= y <= x + 2: odd parity and y > x included
    goldens = json.loads((FilePath(__file__).parent / "brak_essam_goldens.json").read_text())
    assert len(goldens) == 3 * sum(x + 3 for x in range(11))
    for key, (lhs, rhs) in goldens.items():
        x, y, k = map(int, key.split(","))
        assert brak_essam_counts(x, y, k) == (dict(map(tuple, lhs)), dict(map(tuple, rhs))), key


def test_brak_essam_small():
    for (x, y, k) in ((4, 0, 1), (6, 0, 2), (5, 1, 2)):
        lhs, rhs = brak_essam_counts(x, y, k)
        assert lhs == rhs


def filtered_regions_touching_only_at_ends(n: int) -> list[Region]:
    """The oracle for ``regions_touching_only_at_ends``: every pair of
    paths in the square, kept when the top dominates the bottom and their
    vertices meet only at the two ends."""
    paths = list(enumerate_paths(rectangle(n, n)))
    ends = {(0, 0), (n, n)}
    regions = []
    for top in paths:
        for bottom in paths:
            if any(t < b for t, b in zip(top.heights, bottom.heights)):
                continue
            if vertices(top) & vertices(bottom) != ends:
                continue
            regions.append(Region(top, bottom))
    return regions


def test_regions_touching_only_at_ends_match_the_filter():
    counts = []
    for n in range(7):
        regions = regions_touching_only_at_ends(n)
        assert regions == filtered_regions_touching_only_at_ends(n), n
        counts.append(len(regions))
    assert counts == [1, 1, 3, 20, 175, 1764, 19404]  # OEIS A005700


def test_regions_touching_only_at_ends():
    regions = regions_touching_only_at_ends(2)
    assert all(
        r.top.heights != r.bottom.heights for r in regions
    )
    assert Region.from_steps("NNEE", "EENN") in regions
    assert Region.from_steps("NENE", "ENEN") not in regions  # they touch at (1,1)


def test_conjecture_checkers_hold_small():
    for n in (1, 2, 3):
        assert all(report.holds for report in conjecture_check(n))


def find_tbl_btr_counterexample(max_semi: int) -> Region | None:
    """First region where the triple distributions (t, b, l) and (b, t, r)
    differ; None if the sweep finds none.  The involution only exchanges
    the pair, so small counterexamples to the triple exist."""
    for region in all_regions(max_semi):
        if path_distribution(region, ["t", "b", "l"]) != path_distribution(region, ["b", "t", "r"]):
            return region
    return None


def test_triple_distribution_counterexample_exists():
    region = find_tbl_btr_counterexample(4)
    assert region is not None
    assert path_distribution(region, ["t", "b", "l"]) != path_distribution(
        region, ["b", "t", "r"]
    )
