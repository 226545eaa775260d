#!/usr/bin/env python3
"""pathlab benchmark.

One run checks a seeded set of groups of one workload, in passes, for a
fixed time and prints its metrics, one per line, then a JSON summary as the
last line:

    python3 perfbench/run.py --workload involution --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` checks the set
untraced and traced, in turn, and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process.  The exit
code is 0 only when every check held and every pinned digest matched.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
PINS = json.loads((BENCH / "pins.json").read_text())
sys.path[:0] = [str(SRC), str(BENCH)]

import pathlab  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
# Fresh processes timed for setup_s, spread between the passes; the median
# is reported.
SETUP_REPS = 5
# Passes over the set; each unit's median time over them is kept.
MIN_PASSES = 3
THREADS = "1"

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
_SPAN_FIELDS = [
    ("paths.contact_stats", ("calls", "self_s")),
    ("paths.descent_set", ("self_s",)),
    ("paths.noncontact_heights", ("self_s",)),
    ("swaps.swapall", ("calls", "self_s", "steps")),
    ("swaps.contact_word", ("self_s",)),
    ("words.switch", ("calls", "self_s")),
    ("enumeration.enumerate_paths", ("calls", "self_s", "items")),
    ("enumeration.path_distribution", ("calls", "self_s")),
    ("enumeration.enumerate_tuples", ("calls", "self_s", "items")),
    ("enumeration.lgv_count", ("calls", "self_s")),
    ("tuples.h_stats", ("self_s",)),
    ("tuples.u_stats", ("self_s",)),
    ("tableaux.psi", ("calls", "self_s", "cells")),
    ("tableaux.psi_inv", ("calls", "self_s")),
    ("tableaux.weight", ("self_s",)),
    ("tableaux.expected_weight", ("self_s",)),
    ("tableaux.enumerate_flagged_ssyt", ("calls", "self_s", "items")),
    ("matroids.tutte_poly", ("calls", "self_s")),
    ("matroids.bases", ("yield",)),
    ("polynomials.eq", ("calls", "self_s")),
    ("polynomials", ("terms",)),
    ("applications.corollary_ij_check", ("calls", "self_s")),
    ("verify.all_regions", ("self_s",)),
    ("applications.regions_touching_only_at_ends", ("self_s",)),
    ("verify.shapes_in_box", ("self_s",)),
    ("bench.driver", ("self_s",)),
    ("trace", ("overhead_s",)),
]
_UNITS = {"self_s": "s", "overhead_s": "s", "yield": "ratio"}
PER_LAYER = [(f"{span}.{what}", _UNITS.get(what, "count")) for span, whats in _SPAN_FIELDS for what in whats]
SETUP_SPANS = {"verify.all_regions", "applications.regions_touching_only_at_ends", "verify.shapes_in_box"}
ROOT_SPAN = "bench.driver"


class Pass:
    """The outcome of checking the run's set of groups once.  Untraced
    passes time the reference before each group and report the group and
    unit times scaled to reference speed."""

    def __init__(self, seconds, items, group_seconds, unit_seconds, reference_s, digest):
        self.seconds = seconds
        self.items = items
        self.group_seconds = group_seconds
        self.unit_seconds = unit_seconds
        self.reference_s = reference_s  # median reference time, unscaled
        self.digest = digest


def check_pass(wl, groups: list, chk, counts: dict, rec=None) -> Pass:
    """Check every group from cold caches.  The digest is over the sorted
    per-group digests, so it does not depend on the group order."""
    clock = time.perf_counter
    workloads.clear_caches()
    digests = []
    references = []
    group_seconds = []
    unit_seconds: list[float] = []
    unit_spans = []
    items = 0
    for unit, group in enumerate(groups):
        if rec is None:
            references.append(reference.seconds(wl.reference, clock))
        else:
            rec.unit = unit
        ctx = workloads.Context(chk, counts, unit_seconds, clock)
        first_unit = len(unit_seconds)
        t0 = clock()
        try:
            items += wl.check(group, ctx)
        except Exception:
            chk.fail("raised on", group, traceback.format_exc(limit=-3))
        group_seconds.append(clock() - t0)
        unit_spans.append((first_unit, len(unit_seconds)))
        digests.append(ctx.digest.hexdigest())
    # The time spent checking, without the references between groups.
    seconds = sum(group_seconds)
    if references:
        factors = reference.scales(references)
        group_seconds = [t * f for t, f in zip(group_seconds, factors)]
        for (lo, hi), f in zip(unit_spans, factors):
            unit_seconds[lo:hi] = [t * f for t in unit_seconds[lo:hi]]
    if wl.group_is_unit:
        unit_seconds = group_seconds
    digest = hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest()
    reference_s = statistics.median(references) if references else None
    return Pass(seconds, items, group_seconds, unit_seconds, reference_s, digest)


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Wall time of a new interpreter that imports pathlab and builds the
    workload's inputs, scaled to reference speed by references timed just
    before and just after it."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import workloads; workloads.build(sys.argv[3], int(sys.argv[4]))"
    )
    cmd = [sys.executable, "-c", code, str(SRC), str(BENCH), name, str(seed)]
    clock = time.perf_counter
    work = workloads.WORKLOADS[name].reference
    references = [reference.seconds(work, clock) for _ in range(5)]
    start = clock()
    subprocess.run(cmd, check=True, env=dict(os.environ, PATHLAB_THREADS=THREADS))
    wall = clock() - start
    references += [reference.seconds(work, clock) for _ in range(5)]
    return wall * reference.NOMINAL_S / statistics.median(references)


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def more_passes(done: int, minimum: int, elapsed: float, last: float, seconds: float) -> bool:
    """Whether to start another pass: until the minimum is done, then while
    one more pass, as long as the last, still ends within --seconds."""
    return done < minimum or elapsed + last <= seconds


def timed_phase(name: str, seed: int, groups: list, seconds: float, chk) -> tuple[dict, str, int]:
    """Check the set in passes, from cold caches each time; each group's and
    each unit's time is its median over the passes, at reference speed."""
    wl = workloads.WORKLOADS[name]
    setup: list[float] = []
    passes: list[Pass] = []
    elapsed = last = 0.0
    while more_passes(len(passes), MIN_PASSES, elapsed, last, seconds):
        if len(setup) < SETUP_REPS:
            setup.append(fresh_setup_seconds(name, seed))
        p = check_pass(wl, groups, chk, {})
        if passes:
            chk.that(p.digest == passes[0].digest, "passes gave different outputs", name)
        passes.append(p)
        last = p.seconds
        elapsed += last
    while len(setup) < SETUP_REPS:
        setup.append(fresh_setup_seconds(name, seed))
    group_s = [statistics.median(v) for v in zip(*(p.group_seconds for p in passes))]
    unit_ms = [statistics.median(v) * 1e3 for v in zip(*(p.unit_seconds for p in passes))]
    n = len(unit_ms)
    items = passes[0].items
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "items_per_s": (items / sum(group_s), items),
        "unit_p50_ms": (quantile(unit_ms, 50), n),
        "unit_p90_ms": (quantile(unit_ms, 90), n),
    }
    # Reported only where at least ten units lie beyond it.
    if n >= 1000:
        metrics["unit_p99_ms"] = (quantile(unit_ms, 99), n)
    # The host's speed: the reference's unscaled time, median over the passes.
    metrics["reference_ms"] = (statistics.median(p.reference_s for p in passes) * 1e3, len(passes))
    return metrics, passes[0].digest, len(passes)


def traced_phase(wl, groups: list, seconds: float, chk, rec, setup_table: dict) -> tuple[dict, str, int]:
    """Check the set untraced, then traced, until --seconds have passed;
    each pair of passes gives one sample of every per-layer metric, and the
    median is kept."""
    samples: dict[str, list[float]] = {name: [] for name, _ in PER_LAYER}
    mark = len(rec.start)
    digest = None
    elapsed = last = 0.0
    reps = 0
    while more_passes(reps, 1, elapsed, last, seconds):
        plain = check_pass(wl, groups, chk, {})
        rec.truncate(mark)
        rec.items.clear()
        counts: dict[str, int] = {}
        with spans.instrument(rec):
            root = rec.open(ROOT_SPAN)
            traced = check_pass(wl, groups, chk, counts, rec)
            rec.close(root)
        rec.unit = -1
        table = rec.self_times(mark)
        values = layer_values(table, rec.items, counts, setup_table, traced.seconds - plain.seconds)
        for name, value in values.items():
            samples[name].append(value)
        digest = digest or plain.digest
        chk.that(plain.digest == digest and traced.digest == digest, "passes gave different outputs")
        last = plain.seconds + traced.seconds
        elapsed += last
        reps += 1
    return {name: (statistics.median(v), reps) for name, v in samples.items()}, digest, reps


def layer_values(table: dict, items: dict, counts: dict, setup_table: dict, overhead: float) -> dict:
    out = {}
    for name, _ in PER_LAYER:
        span, _, what = name.rpartition(".")
        if name == "trace.overhead_s":
            value = overhead
        elif name == "matroids.bases.yield":
            scanned = counts.get("matroids.bases.scanned", 0)
            value = counts.get("matroids.bases.found", 0) / scanned if scanned else 0.0
        elif span in SETUP_SPANS:
            value = setup_table.get(span, (0, 0.0))[1]
        elif what == "calls":
            value = table.get(span, (0, 0.0))[0]
        elif what == "self_s":
            value = table.get(span, (0, 0.0))[1]
        elif what == "items":
            value = items.get(span, 0)
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else "unknown"


def stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "PATHLAB_THREADS": os.environ["PATHLAB_THREADS"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run one workload in this process; returns the summary and exit code."""
    os.environ["PATHLAB_THREADS"] = THREADS
    if Path(pathlab.__file__).resolve().parent != SRC / "pathlab":
        raise SystemExit(f"pathlab was imported from {pathlab.__file__}, not from {SRC}")
    chk = workloads.Checks()
    if trace:
        rec = spans.Recorder(time.perf_counter)
        with spans.instrument(rec):
            groups = workloads.build(name, seed)
        setup_table = rec.self_times(0)
        metrics, digest, passes = traced_phase(workloads.WORKLOADS[name], groups, seconds, chk, rec, setup_table)
        units = dict(PER_LAYER)
    else:
        groups = workloads.build(name, seed)
        metrics, digest, passes = timed_phase(name, seed, groups, seconds, chk)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        units = dict(END_TO_END, unit_p99_ms="ms", reference_ms="ms")
    pinned = PINS["digests"].get(str(seed), {}).get(name)
    if pinned is not None:
        chk.that(digest == pinned, "digest differs from its pin", name, f"seed {seed}", digest)
    failed_share = chk.failed / max(chk.attempted, 1)
    record = {
        "workload": name,
        "trace": int(trace),
        "stamp": stamp(seed),
        "digest": digest,
        "digest_pinned": pinned,
        "passes": passes,
        "checks": chk.attempted,
        "failed": chk.failed,
        "failed_share": failed_share,
        "failures": chk.failures,
        "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    if trace:
        rec.dump(RESULTS / f"{name}.spans.tsv.gz")
    for line in chk.failures:
        print(f"FAIL {name}: {line}")
    print(f"{name} seed={seed} passes={passes} digest={digest} pinned={'match' if pinned == digest else pinned}")
    for key, (value, n) in metrics.items():
        print(f"{name} {key} {value:.6g} {units[key]} (n={n})")
    print(f"{name} failed_share {failed_share:.6g} ratio (n={chk.attempted})")
    wanted = PER_LAYER if trace else END_TO_END
    summary = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in wanted},
    }
    return summary, 0 if chk.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            code = 1
            continue
        code = code or proc.returncode
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for key, value in summary["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=PINS["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        summary, code = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        summary, code = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
