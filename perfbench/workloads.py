"""The benchmark's three workloads.

Each workload turns a seed into a set of groups (regions, or (shape, k)
pairs), and checks one group at a time: it calls pathlab's public
functions, re-checks the paper's claim on every object it touches, and
folds the outputs into a digest.  Every call into pathlab goes through
a module attribute (``paths.contact_stats``, not a bare name) so that the
traced run can rebind those attributes; see ``spans.py``.
"""

from __future__ import annotations

import hashlib
import random
from itertools import permutations
from math import comb, prod

import reference
from pathlab import (
    applications,
    enumeration,
    matroids,
    paths,
    swaps,
    tableaux,
    tuples,
    verify,
    words,
)

# Sizes of the families the samples are drawn from.
INVOLUTION_SEMI = 10  # boundary pairs with x + y = 10
TABLEAU_BOX = 4  # shapes in the 4x4 box
TABLEAU_KS = (1, 2, 3)
CONJECTURE_N = 5  # regions on the 5x5 grid meeting only at their ends

SWAP_XY = {"x": "y", "y": "x"}


class Checks:
    """Counts the claims checked and keeps the first few failures."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def that(self, ok: bool, what: str, *where) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, *where)

    def fail(self, what: str, *where) -> None:
        self.failed += 1
        if len(self.failures) < self.KEEP:
            self.failures.append(" ".join([what, *map(str, where)]))


class Context:
    """What one group's check reports into: claim checks, the digest of its
    outputs, the benchmark's own counters and, for the tableau workload, the
    latency of each tuple's round trip."""

    def __init__(self, checks: Checks, counts: dict[str, int], latencies: list[float], clock):
        self.checks = checks
        self.counts = counts
        self.latencies = latencies
        self.clock = clock
        self.digest = hashlib.sha256()

    def fold(self, text: str) -> None:
        self.digest.update(text.encode())
        self.digest.update(b"\n")

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# ---------------------------------------------------------------------------
# families and their cost keys


def involution_family() -> list:
    return [r for r in verify.all_regions(INVOLUTION_SEMI) if r.x + r.y == INVOLUTION_SEMI]


def involution_cost(region) -> int:
    """Estimated work: the paths of the region when south steps are allowed
    (any height in each column's range), each costing about x + 5 units, as
    measured on the tuning host."""
    return prod(t - b + 1 for t, b in zip(region.t_heights, region.b_heights)) * (region.x + 5)


def tableau_family() -> list:
    return [(shape, k) for shape in verify.shapes_in_box(TABLEAU_BOX) for k in TABLEAU_KS]


def tuple_count(pair) -> int:
    shape, k = pair
    return enumeration.lgv_count(tableaux.region_of_shape(shape), k)


def distributions_family() -> list:
    return applications.regions_touching_only_at_ends(CONJECTURE_N)


def monotone_path_count(region) -> int:
    return enumeration.lgv_count(region, 1)


# ---------------------------------------------------------------------------
# checks


def check_involution(region, ctx: Context) -> int:
    """Criterion 2 on one region, as ``verify.check_contact_involution``
    checks it, plus the contact word of the image: it is ``switch`` applied
    t - b times (or ``switch_inv`` b - t times) to the path's word."""
    chk = ctx.checks
    class_data: dict[tuple, dict] = {}
    count = 0
    steps = 0
    for p in enumeration.enumerate_paths(region, south_allowed=True):
        count += 1
        st = paths.contact_stats(region, p)
        image = swaps.swapall(region, p)
        ist = paths.contact_stats(region, image)
        chk.that((ist.t, ist.b) == (st.b, st.t), "contact counts not exchanged", region, p)
        descents = paths.descent_set(p)
        chk.that(paths.descent_set(image) == descents, "descent set changed", region, p)
        free = paths.noncontact_heights(region, p)
        chk.that(paths.noncontact_heights(region, image) == free, "free heights changed", region, p)
        chk.that(swaps.swapall(region, image) == p, "not an involution", region, p)
        word = swaps.contact_word(region, p)
        for _ in range(st.t - st.b):
            word = words.switch(word)
        for _ in range(st.b - st.t):
            word = words.switch_inv(word)
        chk.that(swaps.contact_word(region, image) == word, "image word is not the switched word", region, p)
        steps += 2 * abs(st.t - st.b)
        data = class_data.setdefault((descents, free), {"dist": {}, "t1b0": 0, "t0b1": 0})
        data["dist"][(st.t, st.b)] = data["dist"].get((st.t, st.b), 0) + 1
        data["t1b0"] += (st.t, st.b) == (1, 0)
        data["t0b1"] += (st.t, st.b) == (0, 1)
        ctx.fold(f"{p.heights}>{image.heights}")
    for key, data in class_data.items():
        chk.that(data["t1b0"] <= 1 and data["t0b1"] <= 1, "extreme path not unique", region, key)
        dist = data["dist"]
        chk.that(
            all(dist.get((b, a), 0) == n for (a, b), n in dist.items()),
            "class distribution asymmetric",
            region,
            key,
        )
    ctx.add("swaps.swapall.steps", steps)
    return count


def check_tableau(pair, ctx: Context) -> int:
    """Criterion 6 on one (shape, k): tuple count against the determinant,
    h-symmetry within each u-class, and the psi / psi_inv round trip onto
    exactly the flagged semistandard tableaux.  Each tuple's round trip is
    one latency sample."""
    shape, k = pair
    chk = ctx.checks
    clock = ctx.clock
    region = tableaux.region_of_shape(shape)
    found = list(enumeration.enumerate_tuples(region, k))
    chk.that(enumeration.lgv_count(region, k) == len(found), "determinant disagrees", shape, k)
    by_u: dict[tuple, dict] = {}
    for t in found:
        dist = by_u.setdefault(tuples.u_stats(t), {})
        h = tuples.h_stats(t)
        dist[h] = dist.get(h, 0) + 1
    for dist in by_u.values():
        chk.that(
            all(
                dist.get(tuple(h[i] for i in perm), 0) == n
                for h, n in dist.items()
                for perm in permutations(range(len(h)))
            ),
            "h-distribution asymmetric",
            shape,
            k,
        )
    images = set()
    cells = 0
    for t in found:
        start = clock()
        tab = tableaux.psi(t)
        chk.that(tableaux.weight(tab) == tableaux.expected_weight(t), "weight mismatch", shape, k, t)
        chk.that(tableaux.psi_inv(tab) == t, "round trip failed", shape, k, t)
        ctx.latencies.append(clock() - start)
        images.add(tab)
        cells += sum(map(len, tab.rows))
        ctx.fold(repr(tab.rows))
    ssyt = set(tableaux.enumerate_flagged_ssyt(shape, k))
    chk.that(images == ssyt, "image is not all flagged tableaux", shape, k)
    ctx.add("tableaux.psi.cells", cells)
    return len(found)


def check_distributions(region, ctx: Context) -> int:
    """Criteria 4 and 9 on one region of the conjecture family: six contact
    distributions, the per-region predicates of conjectures 5.2 and 5.3,
    the three conditions of the (i, j) corollary, and the activity
    polynomial in natural and reversed order."""
    chk = ctx.checks
    n = CONJECTURE_N
    dist = {
        pair: enumeration.path_distribution(region, list(pair))
        for pair in (("t", "b"), ("b", "l"), ("l", "r"), ("t", "r"), ("l", "b"), ("r", "t"))
    }
    tb, bl, lr, tr = dist["t", "b"], dist["b", "l"], dist["l", "r"], dist["t", "r"]
    chk.that(tb == tb.permute_variables(SWAP_XY), "(t, b) distribution asymmetric", region)
    # By that symmetry the (b, t) distribution is the (t, b) one.
    bt = tb
    special_52 = region.t_heights == tuple(range(1, n + 1)) or region.b_heights == tuple(range(n))
    conds = [bl == bt, bl == lr, tr == bt, tr == lr]
    chk.that(all(c == special_52 for c in conds), "conjecture 5.2 predicate", region)
    special_53 = (
        region.t_heights == (n,) * n and region.b_heights == tuple(range(n))
    ) or (region.t_heights == tuple(range(1, n + 1)) and region.b_heights == (0,) * n)
    chk.that(_depends_on_sum(bl.terms, n + 1) == special_53, "conjecture 5.3 predicate", region)
    report = applications.corollary_ij_check(region)
    chk.that(report.agree, "corollary conditions disagree", region)
    m = region.x + region.y
    oracle = matroids.lpm_oracle(region)
    natural = matroids.tutte_poly(oracle, matroids.natural_order(m))
    reverse = matroids.tutte_poly(oracle, matroids.reversed_order(m))
    chk.that(natural == dist["l", "b"], "natural order mismatch", region)
    chk.that(reverse == dist["r", "t"], "reversed order mismatch", region)
    ctx.add("matroids.bases.found", natural.coefficient_sum() + reverse.coefficient_sum())
    ctx.add("matroids.bases.scanned", 2 * comb(m, region.y))
    polys = [*dist.values(), natural, reverse]
    ctx.add("polynomials.terms", sum(len(p.terms) for p in polys))
    for p in polys:
        ctx.fold(p.to_json())
    ctx.fold(f"{report.cond_counts} {report.cond_order} {report.cond_boundary}")
    return bl.coefficient_sum()


def _depends_on_sum(counts: dict[tuple[int, int], int], bound: int) -> bool:
    """Whether the count of (i, j) depends only on i + j, for i, j <= bound.
    Kept apart from pathlab's own helper so that the check does not rest on
    the code it checks."""
    for total in range(2 * bound + 1):
        values = {counts.get((i, total - i), 0) for i in range(bound + 1) if 0 <= total - i <= bound}
        if len(values) > 1:
            return False
    return True


def clear_caches() -> None:
    """Empty pathlab's unbounded caches, so a timed pass starts cold."""
    paths.vertices.cache_clear()
    paths.north_edges.cache_clear()


class Workload:
    """A family of groups, a cost key that orders them, and the check run
    on each group.

    A seed draws the run's set of groups by stratified sampling: the family,
    sorted by cost, is cut into ``size`` equal slices, and the set takes one
    group from each slice, picked by a generator seeded with the seed.  The set then holds
    one group of each cost percentile, so runs with different seeds check
    samples of the same make-up and their timings stay comparable.
    """

    def __init__(self, family, key, size, check, group_is_unit, reference, max_key=None):
        self.family = family
        self.key = key
        self.size = size
        self.check = check
        # Whether one group is one latency unit; otherwise the check records
        # its own units (tuples, for the tableau workload).
        self.group_is_unit = group_is_unit
        # The work this workload's times are scaled by; see reference.py.
        self.reference = reference
        self.max_key = max_key


WORKLOADS = {
    # Groups whose cost key is above max_key are left out: they make up the
    # far tail of the cost distribution, where one group alone takes seconds
    # (up to 1.7 s for a region, 25 s for a pair), so a set could not be
    # checked several times within a run, and its timings would depend on
    # which of them the seed drew.  This drops 545 of the 58,786 regions
    # (21% of the paths) and 42 of the 207 pairs.
    "involution": Workload(
        involution_family, involution_cost, 400, check_involution, True, reference.path_work, max_key=20000
    ),
    "tableau": Workload(
        tableau_family, tuple_count, 100, check_tableau, False, reference.tableau_work, max_key=1000
    ),
    "distributions": Workload(
        distributions_family, monotone_path_count, 100, check_distributions, True, reference.path_work
    ),
}


def build(name: str, seed: int) -> list:
    """The seed's set of groups for a workload: what ``setup_s`` times."""
    wl = WORKLOADS[name]
    keyed = sorted(((wl.key(g), str(g), g) for g in wl.family()), key=lambda e: e[:2])
    if wl.max_key is not None:
        keyed = [e for e in keyed if e[0] <= wl.max_key]
    rng = random.Random(seed)
    n, s = len(keyed), wl.size
    return [rng.choice(keyed[n * i // s : n * (i + 1) // s])[2] for i in range(s)]
