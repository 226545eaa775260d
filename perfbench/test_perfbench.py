"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke test runs each workload for one pass over a small set, untraced
and traced; the negative control corrupts one output of pathlab and expects
the run to fail.  Seed 3 has no pinned digests, so the small sets pass.
"""

import json
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads
from pathlab import swaps

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


SMOKE_SEED = "3"


@pytest.fixture
def small(monkeypatch):
    """One fresh-process setup, one pass and ten groups per run."""
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    for wl in workloads.WORKLOADS.values():
        monkeypatch.setattr(wl, "size", 10)


def run_main(capsys, *args):
    code = run.main(["--seconds", "0", "--seed", SMOKE_SEED, *args])
    lines = capsys.readouterr().out.splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_every_metric_reported(small, capsys, workload, trace):
    code, lines, summary = run_main(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == dict(wanted)
    for name, unit in wanted:
        assert any(line.startswith(f"{workload} {name} ") and f" {unit} (n=" in line for line in lines)


def test_negative_control_corrupted_output_fails(small, capsys, monkeypatch):
    original = swaps.swapall
    corrupted = []

    def swapall_once_wrong(region, path):
        image = original(region, path)
        if image != path and not corrupted:
            corrupted.append(path)
            return path
        return image

    monkeypatch.setattr(swaps, "swapall", swapall_once_wrong)
    code, lines, summary = run_main(capsys, "--workload", "involution", "--trace", "0")
    assert corrupted
    assert code != 0
    assert not summary["correct"] and summary["failed"] > 0
    share = next(line for line in lines if line.startswith("involution failed_share "))
    assert float(share.split()[2]) > 0
    assert any(line.startswith("FAIL involution: contact counts not exchanged") for line in lines)


def test_default_seed_matches_its_pin():
    name = "distributions"
    chk = workloads.Checks()
    groups = workloads.build(name, run.PINS["default_seed"])
    result = run.check_pass(workloads.WORKLOADS[name], groups, chk, {})
    assert chk.failed == 0
    assert result.digest == run.PINS["digests"][str(run.PINS["default_seed"])][name]


def test_self_time_subtracts_children_and_generator_gaps():
    ticks = iter(range(100))
    rec = spans.Recorder(lambda: next(ticks))

    def gen():
        yield 1
        yield 2

    traced_gen = spans._traced_generator(rec, "gen", gen)
    root = rec.open("root")  # t=0
    for _ in traced_gen():  # resumes at 1-2, 3-4, 5-6: busy 3
        leaf = rec.open("leaf")
        rec.close(leaf)  # busy 1 each, children of root
    rec.close(root)  # t=11
    table = rec.self_times()
    assert table["gen"] == (1, 3)
    assert table["leaf"] == (2, 2)
    assert table["root"] == (1, 11 - 3 - 2)
    assert rec.items == {"gen": 2}


def test_same_seed_same_set():
    a, b, c = (list(map(str, workloads.build("distributions", seed))) for seed in (5, 5, 6))
    assert a == b
    assert a != c
    # Every workload keeps at least 100 latency units.
    assert all(wl.size >= 100 for wl in workloads.WORKLOADS.values())


def test_reference_scales_by_the_median_of_nearby_times():
    nominal = reference.NOMINAL_S
    times = [nominal] * 5 + [2 * nominal] * 5 + [100 * nominal]
    scales = reference.scales(times, window=1)
    assert scales[:4] == [1.0] * 4
    assert scales[6:9] == [0.5] * 3
    # One stray reference time does not move its neighbours' scale.
    assert scales[9] == 0.5
