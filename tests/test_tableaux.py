import os
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path as FilePath

import pytest

from pathlab.enumeration import enumerate_tuples, lgv_count
from pathlab.paths import Path, Region
from pathlab.polynomials import MultiPoly
from pathlab.tableaux import (
    Cell,
    Tableau,
    YoungShape,
    _j_inv_step,
    _j_step,
    _select,
    _tuple_of_rows,
    _violations,
    enumerate_flagged_ssyt,
    expected_weight,
    flagged_schur,
    is_flagged_ssyt,
    psi,
    psi_inv,
    region_of_shape,
    shape_from_region,
    tab_of_tuple,
    weight,
)
from pathlab.tuples import PathTuple
from pathlab.verify import shapes_in_box

from oracles import leibniz

# 3-tuple in a 4x4 square region; its repair pipeline is pinned below
SQ4 = Region(Path((4,) * 4, 4), Path((0, 0, 1, 2), 4))
TRIPLE = PathTuple(
    SQ4,
    (
        Path((3, 4, 4, 4), 4),
        Path((1, 2, 2, 3), 4),
        Path((0, 2, 2, 2), 4),
    ),
)

# 3-tuple in a 5x6 region mapping to the pinned wide tableau
WIDE = Region(Path((5,) * 6, 5), Path((0, 1, 1, 3, 4, 4), 5))
WIDE_TRIPLE = PathTuple(
    WIDE,
    (
        Path((2, 3, 5, 5, 5, 5), 5),
        Path((0, 3, 4, 4, 5, 5), 5),
        Path((0, 1, 2, 4, 4, 5), 5),
    ),
)


# ---------------------------------------------------------------------------
# Oracles.  psi and psi_inv repair mutable rows in one loop each; these take
# one local move at a time on a Tableau and check the relaxed flagged
# conditions the paper proves every move keeps.  Entries at most k+1 are
# small, larger ones large; a large entry equal to k+r in row r is maximal.


def potential(t: Tableau) -> int:
    return sum(
        (r + c) * e
        for r, row in enumerate(t.rows, start=1)
        for c, e in enumerate(row, start=1)
    )


def _chain_exists(t: Tableau, a: Cell, b: Cell) -> bool:
    """Reachability sweep for the equal-small-entries condition: from cell a
    one must be able to step down row by row, never moving west, through
    cells bounded by their northeast neighbour, ending strictly west of b."""
    (r1, c1), (r2, c2) = a, b
    reach = c1
    for r in range(r1 + 1, r2 + 1):
        best = None
        for c in range(reach, len(t.rows[r - 1]) + 1):
            ne = t.entry(r - 1, c + 1)
            if ne is not None and t.rows[r - 1][c - 1] <= ne:
                best = c
                break
        if best is None:
            return False
        reach = best
    return reach < c2


def perflagged_violations(t: Tableau) -> list[str]:
    """Reasons the tableau fails the relaxed flagged-tableau conditions;
    empty when it satisfies them."""
    problems = []
    k = t.k
    for r, row in enumerate(t.rows, start=1):
        for c, e in enumerate(row, start=1):
            if e < 1:
                problems.append(f"entry at ({r},{c}) is not positive")
            if e > k + r:
                problems.append(f"entry {e} at ({r},{c}) exceeds flag bound {k + r}")
    cells = [(r, c) for r, row in enumerate(t.rows, start=1) for c in range(1, len(row) + 1)]
    for r, c in cells:
        e1 = t.rows[r - 1][c - 1]
        for c2 in range(c + 1, len(t.rows[r - 1]) + 1):
            e2 = t.rows[r - 1][c2 - 1]
            if (e1 <= k + 1) == (e2 <= k + 1) and e1 > e2:
                problems.append(f"row {r}: same-class entries decrease at columns {c},{c2}")
    for r1, c1 in cells:
        e1 = t.rows[r1 - 1][c1 - 1]
        for r2 in range(r1 + 1, len(t.rows) + 1):
            for c2 in range(c1, len(t.rows[r2 - 1]) + 1):
                e2 = t.rows[r2 - 1][c2 - 1]
                if e1 <= k + 1 and e2 <= k + 1:
                    if e1 > e2:
                        problems.append(
                            f"small entries decrease from ({r1},{c1}) to ({r2},{c2})"
                        )
                    elif e1 == e2 and not _chain_exists(t, (r1, c1), (r2, c2)):
                        problems.append(
                            f"equal small entries at ({r1},{c1}) and ({r2},{c2}) lack a chain"
                        )
                elif e1 > k + 1 and e2 > k + 1 and e1 >= e2:
                    problems.append(
                        f"large entries fail to increase from ({r1},{c1}) to ({r2},{c2})"
                    )
    return problems


def is_perflagged(t: Tableau) -> bool:
    return not perflagged_violations(t)


@dataclass(frozen=True)
class Violations:
    semistandard: tuple[Cell, ...]
    minimal: Cell | None
    path: tuple[Cell, ...]
    maximal: Cell | None


def find_violations(t: Tableau) -> Violations:
    """Cells breaking the semistandard order, and cells whose neighbourhood
    betrays a misplaced large entry.

    The minimal semistandard violation has the smallest entry, ties broken
    by the leftmost column; the maximal path violation has the largest
    entry, ties broken by the rightmost column.
    """
    rows = t.rows
    ssv, pv = _violations(rows, t.k)
    return Violations(
        tuple(ssv),
        _select(rows, ssv, 1, "minimal semistandard violation"),
        tuple(pv),
        _select(rows, pv, -1, "maximal path violation"),
    )


def j_move(t: Tableau) -> Tableau:
    """Swap the minimal semistandard violation with its upper or left
    neighbour, whichever restores local order."""
    v = find_violations(t)
    if v.minimal is None:
        raise ValueError("no semistandard violation to correct")
    rows = [list(row) for row in t.rows]
    _j_step(rows, *v.minimal)
    return Tableau(rows, t.k)


def j_inv_move(t: Tableau) -> Tableau:
    """Inverse move: swap the maximal path violation with the smaller of the
    large entries below or to its right (below on ties)."""
    v = find_violations(t)
    if v.maximal is None:
        raise ValueError("no path violation to correct")
    rows = [list(row) for row in t.rows]
    _j_inv_step(rows, *v.maximal, t.k)
    return Tableau(rows, t.k)


def tuple_of_tab(t: Tableau) -> PathTuple:
    """Inverse of the direct filling; defined on tableaux without path
    violations."""
    if find_violations(t).path:
        raise ValueError("tableau has path violations")
    return _tuple_of_rows(t.rows, t.k)


def easy_bijection(pt: PathTuple) -> Tableau:
    """Cardinality witness: fill each cell with the number of tuple paths
    passing weakly above it, then add the row index everywhere."""
    region = pt.region
    shape = shape_from_region(region)
    y = region.y
    rows = []
    for r in range(1, y + 1):
        edge = y - r + 1
        rows.append(
            tuple(
                sum(1 for p in pt.paths if p.heights[c - 1] >= edge) + r
                for c in range(1, shape.parts[r - 1] + 1)
            )
        )
    return Tableau(tuple(rows), pt.k)


def path_violations_at_least(t: Tableau, v, bound: int) -> set:
    return {cell for cell in v.path if t.rows[cell[0] - 1][cell[1] - 1] >= bound}


def psi_walk(pt: PathTuple) -> list[Tableau]:
    """psi by public j-moves from the direct filling, checking at every move
    what the paper claims of it; returns every tableau visited, the image
    last."""
    steps = [tab_of_tuple(pt)]
    while True:
        t = steps[-1]
        v = find_violations(t)
        if v.minimal is None:
            break
        r, c = v.minimal
        e = t.rows[r - 1][c - 1]
        new = j_move(t)
        moved_to = next(
            cell
            for cell in ((r - 1, c), (r, c - 1))
            if new.entry(*cell) == e and t.entry(*cell) != e
        )
        assert potential(new) > potential(t), "j-move must raise the potential"
        assert is_perflagged(new), "j-move left the perflagged tableaux"
        after = find_violations(new)
        assert path_violations_at_least(new, after, e) - path_violations_at_least(t, v, e) == {
            moved_to
        }, "j-move must add exactly one path violation of entry >= e"
        assert after.maximal == moved_to, "the moved entry must be the maximal path violation"
        steps.append(new)
    assert is_flagged_ssyt(steps[-1]), "psi image is not a flagged semistandard tableau"
    return steps


def psi_inv_walk(tab: Tableau) -> list[Tableau]:
    """psi_inv by public inverse moves down to the direct filling, checking
    every move; returns every tableau visited, the direct filling last."""
    steps = [tab]
    while find_violations(steps[-1]).maximal is not None:
        t = steps[-1]
        new = j_inv_move(t)
        assert potential(new) < potential(t), "inverse move must lower the potential"
        assert is_perflagged(new), "inverse move left the perflagged tableaux"
        steps.append(new)
    return steps


def checked_round_trip(pt: PathTuple) -> tuple[Tableau, list[Tableau]]:
    """psi and psi_inv of the tuple, each against its checked walk; returns
    psi's image and the tableaux of the forward walk, which the inverse walk
    retraces."""
    tab = psi(pt)
    forward = psi_walk(pt)
    backward = psi_inv_walk(tab)
    assert forward[-1] == tab
    assert backward == forward[::-1]  # every arrow reverses
    assert psi_inv(tab) == tuple_of_tab(backward[-1]) == pt
    return tab, forward


def test_shape_from_region():
    assert shape_from_region(WIDE).parts == (6, 4, 3, 3, 1)
    assert shape_from_region(SQ4).parts == (4, 4, 3, 2)
    assert region_of_shape(YoungShape((6, 4, 3, 3, 1))) == WIDE


def test_perflagged_example_with_chain():
    t = Tableau(((1, 1, 1, 1), (2, 2, 2, 2), (3, 4, 4, 4), (4, 5, 5, 6), (6, 6, 6, 3)), 2)
    assert is_perflagged(t)


def test_ssyt_is_perflagged():
    t = Tableau(((1, 2, 3), (2, 3, 4)), 3)
    assert is_flagged_ssyt(t)
    assert is_perflagged(t)


def test_equal_smalls_same_column_rejected():
    t = Tableau(((1, 2), (1, 3)), 2)
    assert not is_perflagged(t)
    assert any("chain" in reason for reason in perflagged_violations(t))


def test_tab_of_tuple_pinned():
    tab = tab_of_tuple(TRIPLE)
    assert tab.rows == ((1, 2, 2, 2), (2, 5, 5, 3), (6, 4, 4), (3, 7))
    assert is_perflagged(tab)
    assert not find_violations(tab).path


def test_tab_weight_matches_statistics():
    assert weight(tab_of_tuple(TRIPLE)) == expected_weight(TRIPLE)
    assert weight(tab_of_tuple(WIDE_TRIPLE)) == expected_weight(WIDE_TRIPLE)


def test_tuple_of_tab_roundtrip_small():
    for shape in shapes_in_box(3):
        region = region_of_shape(shape)
        for k in (1, 2):
            for t in enumerate_tuples(region, k):
                assert tuple_of_tab(tab_of_tuple(t)) == t


def test_tuple_of_tab_single_row():
    t = Tableau(((1, 2, 2),), 1)
    pt = tuple_of_tab(t)
    assert pt.paths[0].heights == (0, 1, 1)


def test_tuple_of_tab_rejects_path_violations():
    bad = Tableau(((1, 3), (2, 4)), 1)  # 3 is large and not maximal in row 1
    with pytest.raises(ValueError):
        tuple_of_tab(bad)


def test_violation_pipeline_pinned():
    s0 = tab_of_tuple(TRIPLE)
    v0 = find_violations(s0)
    assert len(v0.semistandard) == 4
    assert v0.minimal == (4, 1)
    s1 = j_move(s0)
    assert s1.rows == ((1, 2, 2, 2), (2, 5, 5, 3), (3, 4, 4), (6, 7))
    assert find_violations(s1).maximal == (3, 1)
    s2 = j_move(s1)
    assert s2.rows == ((1, 2, 2, 2), (2, 5, 3, 5), (3, 4, 4), (6, 7))
    v2 = find_violations(s2)
    assert len(v2.path) == 2
    assert v2.maximal == (2, 3)
    s3 = j_move(s2)
    assert s3.rows == ((1, 2, 2, 2), (2, 3, 5, 5), (3, 4, 4), (6, 7))
    s4 = j_move(s3)
    assert s4.rows == ((1, 2, 2, 2), (2, 3, 4, 5), (3, 4, 5), (6, 7))
    assert is_flagged_ssyt(s4)
    tab, steps = checked_round_trip(TRIPLE)
    assert tab == s4
    assert steps == [s0, s1, s2, s3, s4]


def test_j_move_inline_example():
    t = Tableau(((1, 1, 2, 2), (3, 3, 3), (2, 2), (5,)), 1)
    moved = j_move(t)
    assert moved.rows == ((1, 1, 2, 2), (2, 3, 3), (3, 2), (5,))
    assert is_perflagged(moved)
    assert j_inv_move(moved) == t


def test_j_moves_require_violations():
    ssyt = Tableau(((1, 2), (2, 3)), 1)
    with pytest.raises(ValueError):
        j_move(ssyt)
    with pytest.raises(ValueError):
        j_inv_move(tab_of_tuple(TRIPLE))


def test_psi_pinned_wide_instance():
    tab, _ = checked_round_trip(WIDE_TRIPLE)
    assert tab.rows == (
        (1, 1, 2, 2, 3, 4),
        (2, 3, 3, 4),
        (4, 5, 6),
        (5, 6, 7),
        (8,),
    )
    assert weight(tab) == (2, 3, 3, 3, 2, 2, 1, 1)


def test_psi_bijection_small_sweep():
    for shape in shapes_in_box(3):
        region = region_of_shape(shape)
        for k in (1, 2):
            tuples = list(enumerate_tuples(region, k))
            images = set()
            for t in tuples:
                tab, _ = checked_round_trip(t)
                assert weight(tab) == expected_weight(t)
                images.add(tab)
            assert images == set(enumerate_flagged_ssyt(shape, k))


def test_easy_bijection_pinned():
    assert easy_bijection(WIDE_TRIPLE).rows == (
        (1, 1, 2, 2, 3, 4),
        (2, 2, 4, 5),
        (3, 5, 5),
        (5, 6, 7),
        (6,),
    )


def test_easy_bijection_k0():
    pt = PathTuple(region_of_shape(YoungShape((2, 2))), ())
    assert easy_bijection(pt).rows == ((1, 1), (2, 2))


def test_easy_bijection_image_matches_psi_image():
    for shape in shapes_in_box(2):
        region = region_of_shape(shape)
        for k in (1, 2):
            tuples = list(enumerate_tuples(region, k))
            easy_images = {easy_bijection(t) for t in tuples}
            psi_images = {psi(t) for t in tuples}
            assert easy_images == psi_images == set(enumerate_flagged_ssyt(shape, k))


def test_flagged_ssyt_match_filtered_fillings():
    # every filling with entries up to one past the largest flag, row-major
    # in lexicographic order, kept when it is a flagged semistandard tableau
    for shape in shapes_in_box(3):
        cells = sum(shape.parts)
        if cells > 6:
            continue
        for k in (0, 1, 2):
            top = k + shape.rows + 1
            expected = []
            for values in product(range(1, top + 1), repeat=cells):
                entries = iter(values)
                rows = tuple(tuple(next(entries) for _ in range(p)) for p in shape.parts)
                tab = Tableau(rows, k)
                if is_flagged_ssyt(tab):
                    expected.append(tab)
            assert list(enumerate_flagged_ssyt(shape, k)) == expected, (shape, k)


def test_shapes_in_box_are_sorted_and_counted():
    for box in range(6):
        parts = [shape.parts for shape in shapes_in_box(box)]
        assert parts == sorted(set(parts))
        assert all(p and p[0] <= box and len(p) <= box and p[-1] > 0 for p in parts)
        assert len(parts) == comb(2 * box, box) - 1


def test_flagged_schur_single_cell():
    poly = flagged_schur(YoungShape((1,)), 1, 2)
    assert poly == MultiPoly(("x1", "x2"), {(1, 0): 1, (0, 1): 1})


# Every shape of the 3x3 box, trailing zero rows and the empty shape, with
# k <= 3 and both the fewest variables and two more than that.
SCHUR_CASES = [
    (shape, k, k + len([p for p in shape.parts if p]) + extra)
    for shape in shapes_in_box(3) + [YoungShape(p) for p in ((2, 1, 0), (3, 0, 0), ())]
    for k in range(4)
    for extra in (0, 2)
]


def h_complete(n: int, first: int, nvars: int) -> dict[tuple[int, ...], int]:
    """The complete homogeneous polynomial of degree n in x1 .. x_first, as
    exponent vectors over nvars variables; none for n < 0."""
    terms: dict[tuple[int, ...], int] = {}
    for combo in combinations_with_replacement(range(first), n) if n >= 0 else ():
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + 1
    return terms


def flagged_jacobi_trudi(shape: YoungShape, k: int, nvars: int) -> MultiPoly:
    """The flagged Schur function as the determinant of h_{lambda_i - i + j}
    in x1 .. x_{k+i} (Gessel-Viennot; Wachs), expanded as a Leibniz sum:
    the determinant oracle for the branching rule of ``flagged_schur``."""
    parts = [p for p in shape.parts if p > 0]
    matrix = [
        [h_complete(lam - i + j, k + i + 1, nvars) for j in range(len(parts))]
        for i, lam in enumerate(parts)
    ]
    total: dict[tuple[int, ...], int] = {}
    for sign, perm in leibniz(len(parts)):
        term = {(0,) * nvars: sign}
        for row, j in zip(matrix, perm):
            product_terms: dict[tuple[int, ...], int] = {}
            for e1, c1 in term.items():
                for e2, c2 in row[j].items():
                    exp = tuple(a + b for a, b in zip(e1, e2))
                    product_terms[exp] = product_terms.get(exp, 0) + c1 * c2
            term = product_terms
        for exp, c in term.items():
            total[exp] = total.get(exp, 0) + c
    return MultiPoly(tuple(f"x{i}" for i in range(1, nvars + 1)), total)


def ssyt_weight_sum(shape: YoungShape, k: int, nvars: int) -> MultiPoly:
    """The weights of the enumerated flagged tableaux, summed."""
    terms: dict[tuple[int, ...], int] = {}
    for tab in enumerate_flagged_ssyt(shape, k):
        w = weight(tab)
        exp = w + (0,) * (nvars - len(w))
        terms[exp] = terms.get(exp, 0) + 1
    return MultiPoly(tuple(f"x{i}" for i in range(1, nvars + 1)), terms)


def test_flagged_schur_matches_ssyt_sum():
    for shape, k, nvars in SCHUR_CASES:
        assert flagged_schur(shape, k, nvars) == ssyt_weight_sum(shape, k, nvars), (shape, k, nvars)


def test_flagged_schur_matches_leibniz_determinant():
    for shape, k, nvars in SCHUR_CASES:
        assert flagged_schur(shape, k, nvars) == flagged_jacobi_trudi(shape, k, nvars), (shape, k, nvars)


def test_flagged_schur_counts_nested_tuples():
    for shape in shapes_in_box(4):
        for k in range(4):
            poly = flagged_schur(shape, k, k + shape.rows)
            assert poly.coefficient_sum() == lgv_count(region_of_shape(shape), k), (shape, k)


def test_flagged_schur_stops_at_the_last_flag():
    # entries stop at k + l, so the variables past it only pad the exponents
    start = time.perf_counter()
    poly = flagged_schur(YoungShape((2, 1)), 1, 100_000)
    assert time.perf_counter() - start < 1.0
    assert poly == ssyt_weight_sum(YoungShape((2, 1)), 1, 100_000)


def test_tuple_weights_sum_to_flagged_schur():
    # the weight identity of the bijection: nested tuples weighted by
    # expected_weight give the flagged Schur function
    for shape in shapes_in_box(3):
        region = region_of_shape(shape)
        for k in range(4):
            terms: dict[tuple[int, ...], int] = {}
            for t in enumerate_tuples(region, k):
                exp = expected_weight(t)
                terms[exp] = terms.get(exp, 0) + 1
            variables = tuple(f"x{i}" for i in range(1, k + shape.rows + 1))
            assert MultiPoly(variables, terms) == flagged_schur(shape, k, len(variables)), (shape, k)


def test_flagged_schur_symmetry_prefix():
    poly = flagged_schur(YoungShape((2, 2)), 2, 4)
    swapped = poly.permute_variables({"x1": "x2", "x2": "x1"})
    assert poly == swapped
    swapped3 = poly.permute_variables({"x2": "x3", "x3": "x2"})
    assert poly == swapped3


def test_bijection_handles_empty_bottom_rows():
    # bottom boundary starting with norths leaves bottom rows without cells
    shape = YoungShape((2, 1, 0))
    region = region_of_shape(shape)
    assert region.y == 3 and region.bottom.heights == (1, 2)
    tuples = list(enumerate_tuples(region, 2))
    images = set()
    for t in tuples:
        tab, _ = checked_round_trip(t)
        assert weight(tab) == expected_weight(t)
        images.add(tab)
    assert len(images) == len(tuples) == len(set(enumerate_flagged_ssyt(shape, 2)))


def violations_by_definition(t: Tableau) -> tuple[list, list]:
    """The semistandard and path violations read off the definition, one
    Tableau.entry lookup at a time: the reference for the scan kernel."""
    ssv, pv = [], []
    for r, row in enumerate(t.rows, start=1):
        for c, e in enumerate(row, start=1):
            above = t.entry(r - 1, c)
            left = t.entry(r, c - 1)
            if (above is not None and above >= e) or (left is not None and left > e):
                ssv.append((r, c))
            if e <= t.k + 1:
                below = t.entry(r + 1, c)
                if below is not None and below > t.k + 1 and below != t.k + r + 1:
                    pv.append((r, c))
                    continue
                right = t.entry(r, c + 1)
                if right is not None and right > t.k + 1:
                    column_smalls = [
                        t.rows[rr - 1][c]
                        for rr in range(1, r + 1)
                        if t.rows[rr - 1][c] <= t.k + 1
                    ]
                    if all(v < e for v in column_smalls):
                        pv.append((r, c))
    return ssv, pv


def assert_scan_matches_definition(t: Tableau):
    assert _violations([list(row) for row in t.rows], t.k) == violations_by_definition(t), t


@pytest.mark.parametrize("k", [0, 1, 2])
def test_scan_matches_definition_on_every_small_filling(k):
    # arbitrary fillings reach cases no repair visits, such as equal
    # entries in a column
    for shape in shapes_in_box(3):
        cells = sum(shape.parts)
        if cells > 5:
            continue
        for values in product(range(1, k + shape.rows + 1), repeat=cells):
            it = iter(values)
            rows = tuple(tuple(next(it) for _ in range(p)) for p in shape.parts)
            assert_scan_matches_definition(Tableau(rows, k))


DIFFERENTIAL_SWEEP = [(3, k) for k in (1, 2, 3)] + [(4, k) for k in (1, 2)]


@pytest.mark.parametrize("box,k", DIFFERENTIAL_SWEEP)
def test_repairs_match_oracle_and_definition(box, k):
    for shape in shapes_in_box(box):
        for t in enumerate_tuples(region_of_shape(shape), k):
            _, steps = checked_round_trip(t)
            # every tableau both repairs pass through, in either direction
            for step in steps:
                assert_scan_matches_definition(step)


OPTIMIZED_CHECK = """
import itertools, sys
from pathlab import InvariantError, tableaux, verify
from pathlab.enumeration import enumerate_tuples, lgv_count
if not sys.flags.optimize:
    sys.exit("not running under -O")
result = verify.run("tableau-bijection", 2)
if not result.ok:
    sys.exit(result.line())


def expect_raise(call, fault):
    try:
        call()
    except InvariantError as exc:
        print("raised:", exc)
    else:
        sys.exit(f"accepted {fault}")


# a tuple whose repair makes at least one move in each direction
region = tableaux.region_of_shape(tableaux.YoungShape((2, 2)))
pt = next(
    t for t in enumerate_tuples(region, 1)
    if tableaux._violations(tableaux.tab_of_tuple(t).rows, 1)[0]
)
tab = tableaux.psi(pt)
exact = tableaux.weight
shifts = itertools.count()
tableaux.weight = lambda t: tuple(v + next(shifts) for v in exact(t))
expect_raise(lambda: tableaux.psi(pt), "a changed weight")
tableaux.weight = exact
j_step = tableaux._j_step
tableaux._j_step = lambda rows, r, c: 0
expect_raise(lambda: tableaux.psi(pt), "a j-move that leaves the rows alone")
tableaux._j_step = j_step
tableaux._j_inv_step = lambda rows, r, c, k: 0
expect_raise(lambda: tableaux.psi_inv(tab), "an inverse move that leaves the rows alone")
"""


def test_tableau_checks_survive_optimized_mode():
    src = str(FilePath(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "raised: psi changed the weight",
        "raised: j-move must raise the potential",
        "raised: inverse move must lower the potential",
    ]
