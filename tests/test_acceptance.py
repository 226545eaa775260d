"""Acceptance criteria.

Each test replays one exit criterion at its stated bound and prints one
pass/fail line.  All comparisons are exact; the stated wall-clock budgets
are asserted where the criterion names one.
"""

import time

from pathlab.applications import conjecture_52_check, conjecture_53_check
from pathlab.cli import main
from pathlab.enumeration import enumerate_tuples, lgv_count, path_distribution
from pathlab.paths import Path, Region
from pathlab.polynomials import parse_poly
from pathlab.tableaux import psi, psi_inv, weight
from pathlab.triangulations import (
    Triangulation,
    catalan_det,
    degree_sequence,
    degrees_from_tuple,
    fan_region,
)
from pathlab.tuples import PathTuple, h_stats, u_stats
from pathlab.verify import (
    check_activity_reorder,
    check_brak_essam,
    check_closed_formulas,
    check_contact_involution,
    check_nicolas,
    check_permutation_bridge,
    check_switch_words,
    check_tableau_bijection,
    check_tutte_orders,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_displayed_polynomials(capsys):
    start = time.monotonic()
    region = Region.from_steps("NNENEE", "ENEENN")
    tb = path_distribution(region, ["t", "b"])
    bl = path_distribution(region, ["b", "l"])
    elapsed = time.monotonic() - start
    ok = (
        tb == parse_poly("x^3+x^2*y+x*y^2+y^3+2*x^2+2*x*y+2*y^2+2*x+2*y+1", ("x", "y"))
        and bl == parse_poly("x^3+x^2*y+y^3+2*x^2+3*x*y+3*y^2+2*x+2*y", ("x", "y"))
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"displayed polynomials reproduced in {elapsed:.3f}s")


def test_criterion_02_involution_sweep(capsys):
    start = time.monotonic()
    result = check_contact_involution(8)
    elapsed = time.monotonic() - start
    ok = result.ok and elapsed < 300.0
    with capsys.disabled():
        report(2, ok, f"{result.detail} in {elapsed:.1f}s (budget 300s)")


def test_criterion_03_switch_words(capsys):
    result = check_switch_words(14)
    with capsys.disabled():
        report(3, result.ok, result.detail)


def test_criterion_04_tutte_order_independence(capsys):
    result = check_tutte_orders(6)
    with capsys.disabled():
        report(4, result.ok, result.detail)


def test_criterion_05_activity_reorder(capsys):
    result = check_activity_reorder(6)
    with capsys.disabled():
        report(5, result.ok, result.detail)


def test_criterion_06_tableau_bijection(capsys):
    result = check_tableau_bijection(4)
    pinned = PathTuple(
        Region(Path((5,) * 6, 5), Path((0, 1, 1, 3, 4, 4), 5)),
        (
            Path((2, 3, 5, 5, 5, 5), 5),
            Path((0, 3, 4, 4, 5, 5), 5),
            Path((0, 1, 2, 4, 4, 5), 5),
        ),
    )
    tab = psi(pinned)
    pinned_ok = (
        tab.rows == ((1, 1, 2, 2, 3, 4), (2, 3, 3, 4), (4, 5, 6), (5, 6, 7), (8,))
        and weight(tab) == (2, 3, 3, 3, 2, 2, 1, 1)
        and psi_inv(tab) == pinned
    )
    ok = result.ok and pinned_ok
    with capsys.disabled():
        report(6, ok, f"{result.detail}; pinned instance reproduced")


def test_criterion_07_determinant_consistency(capsys):
    ok = True
    details = []
    for k in (1, 2):
        for n in range(2 * k + 1, 10):
            region = fan_region(n, k)
            det = catalan_det(n, k)
            ok = ok and det == lgv_count(region, k) == sum(
                1 for _ in enumerate_tuples(region, k)
            )
    region = fan_region(8, 3)
    ok = ok and catalan_det(8, 3) == lgv_count(region, 3) == sum(
        1 for _ in enumerate_tuples(region, 3)
    )
    ok = ok and catalan_det(6, 2) == 3
    with capsys.disabled():
        report(7, ok, "determinants agree for n <= 9, k <= 2 and n = 8, k = 3; det(6,2) = 3")


def test_criterion_08_degree_distributions(capsys):
    result = check_nicolas()
    example = Triangulation(8, 2, frozenset({(5, 8), (3, 8), (3, 6), (2, 6), (1, 6), (2, 5)}))
    degrees = degree_sequence(example)
    region = fan_region(8, 2)
    matching = [
        t
        for t in enumerate_tuples(region, 2)
        if degrees_from_tuple(t, 8, 2) == degrees
    ]
    instance_ok = degrees == (1, 2, 2, 0, 1) and matching and all(
        h_stats(t)[:3] == (1, 2, 2) for t in matching
    )
    ok = result.ok and bool(instance_ok)
    with capsys.disabled():
        report(8, ok, f"{result.detail}; octagon instance maps (1,2,2,0,1) <-> h=(1,2,2)")


def test_criterion_09_applications_suite(capsys):
    start = time.monotonic()
    perm = check_permutation_bridge(7)
    formulas = check_closed_formulas(7)
    melons = check_brak_essam(8)
    conj_fast_start = time.monotonic()
    conj4 = all(
        conjecture_52_check(n).holds and conjecture_53_check(n).holds
        for n in range(1, 5)
    )
    conj4_time = time.monotonic() - conj_fast_start
    conj5_start = time.monotonic()
    conj5 = conjecture_52_check(5).holds and conjecture_53_check(5).holds
    conj5_time = time.monotonic() - conj5_start
    ok = (
        perm.ok
        and formulas.ok
        and melons.ok
        and conj4
        and conj4_time < 60.0
        and conj5
        and conj5_time < 900.0
    )
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            9,
            ok,
            f"permutations, formulas, configurations, conjectures n<=4 in "
            f"{conj4_time:.1f}s and n=5 in {conj5_time:.1f}s (total {elapsed:.1f}s)",
        )


def test_criterion_10_negative_control(capsys):
    region = Region.from_steps("NNEE", "ENEN")
    counts = {}
    for t in enumerate_tuples(region, 2):
        counts[h_stats(t)] = counts.get(h_stats(t), 0) + 1
    ok = counts.get((0, 1, 2), 0) == 1 and counts.get((1, 1, 1), 0) == 2
    with capsys.disabled():
        report(10, ok, "exactly 1 tuple with h=(0,1,2) and 2 with h=(1,1,1)")


def test_cli_verify_all_exits_clean(capsys):
    code = main(["verify", "--suite", "negative-control", "--max", "6"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("ok")
