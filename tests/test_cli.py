import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings, strategies as st

from pathlab import cli
from pathlab.cli import main
from pathlab.paths import Path
from pathlab.verify import SUITES


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
        "equivalences n=1", "equivalences n=2", "sum-dependence n=1", "sum-dependence n=2",
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
