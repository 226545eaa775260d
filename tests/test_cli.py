import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path as FilePath
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pathlab import applications, cli, verify
from pathlab.applications import ConjectureReport, conjecture_check
from pathlab.cli import main
from pathlab.enumeration import path_distribution
from pathlab.paths import Path, Region
from pathlab.polynomials import MultiPoly
from pathlab.verify import SUITES
from pathlab.words import switch_inv

from oracles import json_by_payload, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dist_reproduces_display_polynomial(capsys):
    code, out = run(
        capsys, "dist", "--T", "NNENEE", "--B", "ENEENN", "--stats", "t,b",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vars"] == ["x", "y"]
    terms = {tuple(t["exp"]): t["coef"] for t in payload["terms"]}
    assert terms[(0, 0)] == 1 and terms[(1, 1)] == 2 and terms[(3, 0)] == 1
    assert sum(terms.values()) == 15
    region = Region.from_steps("NNENEE", "ENEENN")
    assert out == json_by_payload(path_distribution(region, ["t", "b"])) + "\n"


def test_output_is_deterministic(capsys):
    args = ("dist", "--T", "NNENEE", "--B", "ENEENN", "--stats", "b,l", "--format", "json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert first.strip() == (
        '{"vars":["x","y"],"terms":[{"exp":[0,1],"coef":2},{"exp":[0,2],"coef":3},'
        '{"exp":[0,3],"coef":1},{"exp":[1,0],"coef":2},{"exp":[1,1],"coef":3},'
        '{"exp":[2,0],"coef":2},{"exp":[2,1],"coef":1},{"exp":[3,0],"coef":1}]}'
    )


def test_swapall_verb(capsys):
    code, out = run(capsys, "swapall", "--T", "NNEE", "--B", "ENEN", "--path", "NNEE")
    assert code == 0
    assert "heights [0, 1]" in out
    assert "(2, 0," in out and "(0, 2," in out


@pytest.mark.parametrize(
    "bad_swapall, message",
    [
        (lambda region, path: path, "swapall did not exchange the contact counts"),
        (lambda region, path: Path((2, 1, 0), 3), "swapall changed the descent set"),
        (lambda region, path: Path((0, 2, 2), 3), "swapall changed the free heights"),
    ],
)
def test_swapall_verb_checks_what_it_prints(capsys, monkeypatch, bad_swapall, message):
    # the path NENENE has heights (1, 2, 3): one top contact, free heights 1, 2
    monkeypatch.setattr(cli, "swapall", bad_swapall)
    code = main(["swapall", "--T", "NNNEEE", "--B", "EEENNN", "--path", "NENENE"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_python_dash_m_runs_the_cli():
    src = str(FilePath(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pathlab", "switch", "--word", "tt"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "bt\n"


def test_enumerate_verb(capsys):
    code, out = run(capsys, "enumerate", "--T", "NNENEE", "--B", "ENEENN")
    assert code == 0
    assert out.strip().endswith("total 15")


def test_switch_verb(capsys):
    code, out = run(capsys, "switch", "--word", "bttbtbbbttbttbtbtt")
    assert code == 0
    assert out.strip() == "bttbtbbbbtbttbtbtt"
    code, out = run(capsys, "switch", "--word", out.strip(), "--inverse")
    assert out.strip() == "bttbtbbbttbttbtbtt"


PINNED_TRIPLE = "NNENENNEEEE;ENNNENEENEE;ENENENNEENE"


def test_psi_on_pinned_triple(capsys):
    code, out = run(
        capsys,
        "psi",
        "--T",
        "NNNNNEEEEEE",
        "--B",
        "ENEENNENEEN",
        "--paths",
        PINNED_TRIPLE,
    )
    assert code == 0
    rows = [line.replace(" ", "") for line in out.strip().splitlines()]
    assert rows == ["112234", "2334", "456", "567", "8"]
    code2, out2 = run(
        capsys, "psi-inv", "--tableau", "112234/2334/456/567/8", "--k", "3"
    )
    assert code2 == 0
    assert out2.strip() == PINNED_TRIPLE


def test_tutte_verb(capsys):
    code, out = run(capsys, "tutte", "--T", "NE", "--B", "EN", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {tuple(t["exp"]) for t in payload["terms"]} == {(0, 1), (1, 0)}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["tutte", "--T", "", "--B", "", "--order", "perm:"], "1"),
        (["tutte", "--T", "", "--B", "", "--order", "perm:", "--format", "json"],
         '{"vars":["x","y"],"terms":[{"exp":[0,0],"coef":1}]}'),
        (["activities", "--T", "", "--B", "", "--base", "", "--order", "perm:"],
         "internal [] external [] -> (0, 0)"),
    ],
)
def test_empty_ranking_orders_the_empty_ground_set(capsys, argv, expected):
    natural = [arg if arg != "perm:" else "natural" for arg in argv]
    assert run(capsys, *natural) == (0, expected + "\n")
    assert run(capsys, *argv) == (0, expected + "\n")


@pytest.mark.parametrize("verb", [["tutte"], ["activities", "--base", "1,2"]])
def test_empty_ranking_on_a_nonempty_ground_set_is_usage_error(capsys, verb):
    argv = [*verb, "--T", "NNEE", "--B", "ENEN", "--order", "perm:"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ranking must order all 4 ground elements\n"


@pytest.mark.parametrize(
    "ranking, message",
    [
        ("1,1,2,3", "bad ranking '1,1,2,3': ranking must be a permutation of 1..m"),
        ("0,1,2,3", "bad ranking '0,1,2,3': ranking must be a permutation of 1..m"),
        ("2,3,4,5", "bad ranking '2,3,4,5': ranking must be a permutation of 1..m"),
        ("1,x", "bad ranking '1,x': invalid literal for int() with base 10: 'x'"),
        ("1,2", "ranking must order all 4 ground elements"),
        ("1,2,3,4,5", "ranking must order all 4 ground elements"),
    ],
)
def test_perm_ranking_is_checked_as_input(capsys, ranking, message):
    """``perm:`` text is the one order read from outside the program: a
    ranking that is not a permutation of 1..m is a usage error."""
    assert main(["tutte", "--T", "NNEE", "--B", "ENEN", "--order", f"perm:{ranking}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_activities_empty_base_on_rank_zero_region(capsys):
    code, out = run(capsys, "activities", "--T", "EE", "--B", "EE", "--base", "")
    assert code == 0
    assert out.strip() == "internal [] external [1, 2] -> (0, 2)"


def test_activities_empty_base_on_positive_rank_is_not_a_base(capsys):
    assert main(["activities", "--T", "NE", "--B", "EN", "--base", ""]) == 2
    assert capsys.readouterr().err == "error: [] is not a base of the region's path matroid\n"


def test_empty_boundaries_name_the_empty_region(capsys):
    code, out = run(capsys, "dist", "--T", "", "--B", "", "--stats", "t,b")
    assert (code, out) == (0, "1\n")
    assert main(["tutte", "--T", "N", "--B", ""]) == 2
    assert capsys.readouterr().err == "error: boundaries must share their endpoint\n"


def test_perm_verb(capsys):
    code, out = run(capsys, "perm", "--to-path", "35681742")
    assert code == 0
    assert "pattern-positions [1, 3, 5]" in out
    assert "rl-minima 2 rl-maxima 4" in out


def test_count_ab_verb(capsys):
    code, out = run(capsys, "count-ab", "--case", "1", "--params", "2,1,0")
    assert code == 0 and out.strip() == "5"
    code, out = run(
        capsys, "count-ab", "--case", "1", "--params", "2,1,0", "--contacts", "1,0"
    )
    assert out.strip() == "1"


def test_triangulate_verb(capsys):
    code, out = run(capsys, "triangulate", "--n", "6", "--k", "2")
    assert code == 0
    assert "total 3" in out


def test_nicolas_verb(capsys):
    code, out = run(capsys, "nicolas-check", "--n", "6", "--k", "1")
    assert code == 0
    assert "window True" in out and "full True" in out


def test_check_conjectures_verb(capsys):
    code, out = run(capsys, "check-conjectures", "--n", "2")
    assert code == 0
    assert "COUNTEREXAMPLE" not in out


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "negative-control", "--max", "4")
    assert code == 0
    assert out.startswith("ok")


# Stdout of ``verify --suite all --max 3``: one line per sweep with what it
# covered, so a change to what any sweep checks shows here.
VERIFY_ALL_MAX_3 = """\
ok   activity-contacts: 31 paths checked (x+y <= 3)
ok   activity-reorder: 1788 base transpositions checked
ok   bltr-tuples: 73 tuples checked (x+y <= 3, k <= 2)
ok   closed-formulas: families swept to total 3
ok   conjectures: both conjectures hold for n <= 3
ok   contact-involution: 32 paths over 22 regions (x+y <= 3)
ok   fan-determinants: 14 staircase cases up to n = 9
ok   negative-control: pair-count control values confirmed
ok   permutation-bridge: 9 paths across n <= 3
ok   switch-words: 127 words checked up to length 6
ok   tableau-bijection: 5287 tuples over shapes in a 3x3 box, k <= 3
ok   triangulation-counts: 7 polygon cases
ok   triangulation-degrees: 7 (n, k) cases
ok   tuple-symmetry: 128 tuples (x+y <= 3, k <= 3)
ok   tutte-orders: 22 regions, all ground orders (x+y <= 3)
ok   watermelons: 10 (x, y, k) cases with x <= 3
"""


def test_verify_all_at_max_3_matches_its_golden(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--max", "3")
    assert code == 0
    assert out == VERIFY_ALL_MAX_3


def test_a_fault_inside_a_sweep_fails_its_suite_and_the_later_suites_run(capsys, monkeypatch):
    """With ``switch`` reversed, ``switch_inv`` raises inside switch-words:
    that suite prints FAIL with the exception, every other suite still
    prints its line, and the run exits 1, with no traceback."""
    monkeypatch.setattr(verify, "switch", switch_inv)
    assert main(["verify", "--suite", "all", "--max", "3"]) == 1
    captured = capsys.readouterr()
    failed = "FAIL switch-words: raised ValueError: word has no unmatched b"
    expected = [failed if " switch-words:" in line else line for line in VERIFY_ALL_MAX_3.splitlines()]
    assert captured.out.splitlines() == expected
    assert len(captured.err.splitlines()) == len(SUITES)
    assert "Traceback" not in captured.err


# One planted fault per suite: a name that ``verify`` imports, replaced so
# that the sweep meets an instance breaking the claim it checks.
PLANTED_FAULTS = {
    "switch-words": ("switch_inv", lambda word: word),
    "contact-involution": ("swapall", lambda region, path: path),
    "tuple-symmetry": ("lgv_count", lambda region, k: -1),
    "tutte-orders": ("path_distribution", lambda region, names: MultiPoly(("x", "y"), {})),
    "activity-reorder": ("activities", lambda oracle, base, order: order),
    "activity-contacts": ("left_contact_positions", lambda region, path: None),
    "bltr-tuples": ("bltr_tuple_bijection", lambda t: t),
    "tableau-bijection": ("psi_inv", lambda tab: None),
    "fan-determinants": ("catalan_det", lambda n, k: 0),
    "triangulation-counts": ("enumerate_k_triangulations", lambda n, k: iter(())),
    "triangulation-degrees": ("nicolas_check", lambda n, k: SimpleNamespace(holds=False)),
    "permutation-bridge": ("path_of_perm", lambda perm: None),
    "closed-formulas": ("andre_barbier_count", lambda case, params: -1),
    "watermelons": ("brak_essam_counts", lambda x, y, k: (0, 1)),
    "conjectures": ("conjecture_check", lambda n: (SimpleNamespace(holds=False, counterexample="n=1"),) * 2),
    "negative-control": ("h_stats", lambda t: (0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_planted_fault_fails_its_suite(capsys, monkeypatch, name):
    """Each sweep reports its planted fault as a counterexample of its own:
    one FAIL line, exit 1, and no traceback."""
    monkeypatch.setattr(verify, *PLANTED_FAULTS[name])
    assert main(["verify", "--suite", name, "--max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"FAIL {name}: ") and captured.out.count("\n") == 1
    assert ": raised " not in captured.out
    assert "Traceback" not in captured.err


def planted_conjecture_check(failing):
    """``conjecture_check`` with the verdicts at the indices ``failing``
    (0 for 5.2, 1 for 5.3) turned into counterexamples at n = 2."""
    def check(n):
        reports = conjecture_check(n)
        return tuple(
            ConjectureReport(False, r.regions_checked, "T=NNEE;B=EENN") if n == 2 and i in failing else r
            for i, r in enumerate(reports)
        )
    return check


# the dist lines that each conjecture's FAIL line names for its region
DIST = "pathlab dist --region 'T=NNEE;B=EENN' --stats "
CONJECTURE_LINES = {
    "distribution equivalence conjecture": " vs ".join(DIST + pair for pair in ("b,l", "b,t", "l,r", "t,r")),
    "sum-dependence conjecture": DIST + "b,l",
}


@pytest.mark.parametrize(
    "failing, what",
    [
        ({0}, "distribution equivalence conjecture"),
        ({1}, "sum-dependence conjecture"),
        ({0, 1}, "distribution equivalence conjecture"),  # 5.2 is reported first
    ],
)
def test_each_conjecture_verdict_fails_the_suite(capsys, monkeypatch, failing, what):
    monkeypatch.setattr(verify, "conjecture_check", planted_conjecture_check(failing))
    assert main(["verify", "--suite", "conjectures", "--max", "3"]) == 1
    assert capsys.readouterr().out == f"FAIL conjectures: {what} [{CONJECTURE_LINES[what]}]\n"


def commands_in(line: str) -> list[list[str]]:
    """The argument lists of the CLI lines that a FAIL line's bracket names,
    one per ``pathlab`` command, split at " vs "."""
    where = line[line.index("[") + 1 : line.rindex("]")]
    commands = [shlex.split(command) for command in where.split(" vs ")]
    assert all(argv[0] == "pathlab" for argv in commands)
    return [argv[1:] for argv in commands]


def planted_distribution(letters: str, change):
    """``path_distribution`` with the terms of one letter list replaced by
    ``change(region, terms)``."""
    def dist(region, names, south_allowed=False):
        poly = path_distribution(region, names, south_allowed)
        if "".join(names) != letters:
            return poly
        return MultiPoly(poly.variables, change(region, dict(poly.terms)))
    return dist


def one_more_path(region, terms):
    return {**terms, (9, 9): 1}


def one_path_moved(region, terms):
    """One path of the least exponent vector moved to one more t contact,
    which keeps the coefficient sum."""
    first = min(terms)
    moved = Counter(terms)
    moved[first] -= 1
    moved[first[0] + 1, *first[1:]] += 1
    return {exps: n for exps, n in moved.items() if n}


def bl_read_as_bt(region, terms):
    return path_distribution(region, ["b", "t"]).terms


def same_polynomial(outputs, argvs):
    return outputs[0] == outputs[1]


def count_is_coefficient_sum(outputs, argvs):
    return int(outputs[0]) == parse_poly(outputs[1], "xy").coefficient_sum()


def count_is_coefficient(outputs, argvs):
    i, j = map(int, argvs[0][argvs[0].index("--contacts") + 1].split(","))
    return int(outputs[0]) == parse_poly(outputs[1], "xy").terms.get((i, j), 0)


def bl_differs_from_bt(outputs, argvs):
    return len(outputs) == 4 and outputs[0] != outputs[1]


# A wrong distribution planted where a sweep reads it: the module, the letter
# list, the change, the counterexample text, and what the outputs of the
# printed commands, run through the unchanged CLI, must show.
PLANTED_DISTRIBUTIONS = {
    "tutte-natural": ("tutte-orders", verify, "lb", one_more_path, "natural order mismatch", same_polynomial),
    "tutte-reversed": ("tutte-orders", verify, "rt", one_more_path, "reversed order mismatch", same_polynomial),
    "closed-count": ("closed-formulas", verify, "tb", one_more_path, "case 1 count", count_is_coefficient_sum),
    "closed-contacts": (
        "closed-formulas", verify, "tb", one_path_moved, "case 1 contacts (0,0)", count_is_coefficient
    ),
    # 5.2 breaks at the first region off the staircases, where (b, l) and
    # (b, t) differ
    "conjecture-52": (
        "conjectures", applications, "bl", bl_read_as_bt, "distribution equivalence conjecture",
        bl_differs_from_bt,
    ),
}


@pytest.mark.parametrize("case", sorted(PLANTED_DISTRIBUTIONS))
def test_a_distribution_mismatch_prints_runnable_commands(capsys, monkeypatch, case):
    """The FAIL line of a planted wrong distribution names CLI lines that run
    as printed; their outputs show the library's true polynomials, which
    agree where the planted one did not."""
    suite, module, letters, change, what, shows = PLANTED_DISTRIBUTIONS[case]
    monkeypatch.setattr(module, "path_distribution", planted_distribution(letters, change))
    assert main(["verify", "--suite", suite, "--max", "3"]) == 1
    line = capsys.readouterr().out
    assert line.startswith(f"FAIL {suite}: {what} [pathlab "), line
    monkeypatch.undo()
    argvs = commands_in(line)
    outputs = []
    for argv in argvs:
        assert main(argv) == 0, argv
        outputs.append(capsys.readouterr().out.strip())
    assert shows(outputs, argvs), (line, outputs)


def test_check_conjectures_reports_a_counterexample_and_every_n(capsys, monkeypatch):
    monkeypatch.setattr(cli, "conjecture_check", planted_conjecture_check({1}))
    code, out = run(capsys, "check-conjectures", "--n", "2")
    assert code == 1
    assert out.splitlines() == [
        "equivalences n=1: 1 regions, ok",
        "equivalences n=2: 3 regions, ok",
        "sum-dependence n=1: 1 regions, ok",
        "sum-dependence n=2: 3 regions, COUNTEREXAMPLE T=NNEE;B=EENN",
    ]


def test_run_builds_each_kind_of_result_line(monkeypatch):
    def sweep(bound):
        if bound == 1:
            return "1 instance checked"
        if bound == 2:
            raise verify.Counterexample("claim broken", "instance")
        if bound == 3:
            raise verify.Counterexample("claim broken")
        raise KeyError("lost")

    monkeypatch.setitem(SUITES, "fake", ("ignores M", sweep))
    assert [verify.run("fake", bound).line() for bound in (1, 2, 3, 4)] == [
        "ok   fake: 1 instance checked",
        "FAIL fake: claim broken [instance]",
        "FAIL fake: claim broken",
        "FAIL fake: raised KeyError: 'lost'",
    ]


def test_verify_help_says_what_max_bounds_in_every_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    rows = capsys.readouterr().out.split("bounds each sweep as follows:\n", 1)[1].splitlines()
    assert [row.split()[0] for row in rows if row[2] != " "] == sorted(SUITES)


def test_every_suite_states_the_clamp_its_run_applies():
    # the help text of a suite names every integer its run bounds --max
    # with; a suite that names its sweep itself passes --max on unclamped
    for name, (bounds, run) in SUITES.items():
        clamped = run.__name__ == "<lambda>"
        clamps = {c for c in run.__code__.co_consts if isinstance(c, int)} if clamped else set()
        assert clamps <= {int(n) for n in re.findall(r"\d+", bounds)}, name


def test_verify_list(capsys):
    code, out = run(capsys, "verify", "--list")
    assert code == 0
    assert "contact-involution" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["dist", "--T", "NNEE"])  # missing --stats
    assert err.value.code == 2


def test_failure_exit_code(capsys):
    code = main(["switch", "--word", "tb"])  # fully matched word
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["swapall", "--T", "NNEE", "--B", "ENEN", "--path", "NNXE"],  # bad step
        ["swapall", "--T", "ENEN", "--B", "NNEE", "--path", "NNEE"],  # crossing
        ["dist", "--region", "B=ENEN;Q=NNEE", "--stats", "t,b"],  # bad label
        ["swapall", "--T", "NNEE", "--B", "ENEN", "--path", "EENN"],  # leaves the region
        ["perm", "--to-path", "1123"],  # not a permutation
        ["enumerate", "--T", "NNEE", "--B", "ENEN", "--descents", "x"],
        ["flagged-schur", "--shape", "2,3", "--k", "1", "--nvars", "3"],  # rows increase
        ["flagged-schur", "--shape", "1", "--k", "-1", "--nvars", "1"],  # negative k
        ["watermelon", "--paths", "UxUD"],  # x is not a step
        ["triangulate", "--n", "3", "--k", "2"],  # polygon too small
        ["nicolas-check", "--n", "3", "--k", "2"],
        ["dist", "--T", "NE", "--B", "EN", "--stats", "t,b,l,r,t,b,l"],  # seven letters, six variables
        ["triangulate", "--n", "5", "--k", "0"],  # k below 1
        ["nicolas-check", "--n", "5", "--k", "0"],
        ["activities", "--T", "NNEE", "--B", "ENEN", "--path", "NNE"],  # ends short of the region
    ],
)
def test_malformed_path_or_region_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_unknown_stat_is_usage_error(capsys):
    assert main(["dist", "--T", "NNEE", "--B", "ENEN", "--stats", "t,q"]) == 2
    message = capsys.readouterr().err
    assert message.startswith("error:") and message.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--T", "NNEE", "--B", "ENEN", "--paths", "EENN"],  # leaves the region
        ["psi-inv", "--tableau", "21", "--k", "1"],  # row decreases
        ["psi-inv", "--tableau", "13/24", "--k", "1"],  # 3 breaks the row-1 flag bound
        ["psi-inv", "--tableau", "1x", "--k", "1"],  # not an integer
        ["activities", "--T", "NNEE", "--B", "ENEN", "--base", "1,9"],  # not a base
        ["activities", "--T", "NNEE", "--B", "ENEN", "--order", "perm:1,2", "--base", "1,2"],
        ["activities", "--T", "NNEE", "--B", "ENEN"],  # neither --base nor --path
        ["ktuple-dist", "--T", "NNEE", "--B", "ENEN", "--k", "0", "--stats", "h"],
        ["enumerate", "--T", "NNEE", "--B", "ENEN", "--k", "-1"],
        ["perm"],  # neither --to-path nor --from-path
        ["count-ab", "--case", "1", "--params", "1,2"],  # two of three parameters
        ["verify", "--max", "-5", "--suite", "switch-words"],  # a sweep of nothing
        ["check-conjectures", "--n", "0"],
        ["check-conjectures", "--n", "-1"],
        ["verify", "--max", "0", "--suite", "watermelons"],
        # path filters, which a tuple listing would silently drop
        ["enumerate", "--T", "NNEE", "--B", "ENEN", "--k", "1", "--south"],
        ["enumerate", "--T", "NNEE", "--B", "ENEN", "--k", "1", "--descents", "1"],
        ["enumerate", "--T", "NNEE", "--B", "ENEN", "--k", "1", "--heights", "1"],
    ],
)
def test_bad_verb_input_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_sweeps_write_wall_times_to_stderr(capsys):
    assert main(["verify", "--suite", "negative-control"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("ok")
    assert re.fullmatch(r"negative-control: \d+\.\d\ds\n", captured.err)
    assert main(["check-conjectures", "--n", "2"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [re.fullmatch(r"(.*): \d+\.\d\ds", line).group(1) for line in lines] == [
        "conjectures n=1", "conjectures n=2",
    ]


# Arguments for the fuzz test: short texts over each format's alphabet plus a
# junk character, and integers small enough that every call stays under a second.
STEPS = st.text("NESX", max_size=6)
LISTS = st.text("0123,-x", max_size=6)
SMALL = st.integers(-1, 4).map(str)


def opt(flag, values=None):
    """An argument that is absent, or present (with a drawn value)."""
    present = st.just([flag]) if values is None else values.map(lambda v: [flag, v])
    return st.one_of(st.just([]), present)


REGION = st.one_of(
    st.tuples(STEPS, STEPS).map(lambda tb: ["--T", tb[0], "--B", tb[1]]),
    st.tuples(STEPS, STEPS).map(lambda tb: ["--region", f"T={tb[0]};B={tb[1]}"]),
    st.text("TB=;NEX", max_size=10).map(lambda text: ["--region", text]),
    st.just([]),
)
PATHS = st.lists(STEPS, max_size=3).map(";".join)
ORDER = st.one_of(st.sampled_from(["natural", "reversed", "x"]), LISTS.map("perm:".__add__))
VERB_ARGS = {
    "enumerate": [REGION, opt("--south"), opt("--descents", LISTS), opt("--heights", LISTS), opt("--k", SMALL)],
    "dist": [REGION, opt("--stats", st.text("tblrq,", max_size=5)), opt("--south")],
    "swapall": [REGION, opt("--path", STEPS)],
    "switch": [opt("--word", st.text("tbx", max_size=8)), opt("--inverse")],
    "psi": [REGION, opt("--paths", PATHS)],
    "psi-inv": [opt("--tableau", st.text("0123/, a", max_size=8)), opt("--k", SMALL)],
    "tab": [REGION, opt("--paths", PATHS)],
    "flagged-schur": [opt("--shape", LISTS), opt("--k", SMALL), opt("--nvars", SMALL)],
    "tutte": [REGION, opt("--order", ORDER)],
    "activities": [REGION, opt("--order", ORDER), opt("--base", LISTS), opt("--path", STEPS)],
    "ktuple-dist": [REGION, opt("--k", SMALL), opt("--stats", st.sampled_from("hvux"))],
    "perm": [opt("--to-path", st.text("0123456789,", max_size=8)), opt("--from-path", STEPS)],
    "watermelon": [opt("--paths", st.text("UD+-x;", max_size=10))],
    "count-ab": [opt("--case", st.sampled_from("123")), opt("--params", LISTS), opt("--contacts", LISTS)],
    "check-cor-ij": [REGION],
    "check-conjectures": [opt("--n", st.integers(-1, 3).map(str))],
    "triangulate": [opt("--n", st.integers(-1, 8).map(str)), opt("--k", SMALL)],
    "nicolas-check": [opt("--n", st.integers(-1, 8).map(str)), opt("--k", SMALL)],
    "verify": [
        opt("--suite", st.sampled_from(sorted(SUITES) + ["all", "x"])),
        st.integers(-1, 2).map(lambda m: ["--max", str(m)]),  # the default, 6, takes minutes
        opt("--list"),
    ],
}
FORMAT = opt("--format", st.sampled_from(["text", "json", "x"]))
ARGV = st.sampled_from(sorted(VERB_ARGS)).flatmap(
    lambda verb: st.tuples(*VERB_ARGS[verb], FORMAT).map(
        lambda parts: [verb] + [arg for part in parts for arg in part]
    )
)


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_every_verb_exits_0_1_or_2_without_a_traceback(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
