"""Named verification sweeps over desk-scale instances.

Each sweep replays one of the library's structural claims exhaustively over
a bounded family.  It returns what it covered, or raises ``Counterexample``
at the first instance that breaks the claim.  ``run`` turns a suite's
outcome into its result line; the ``verify`` verb and the tests both go
through it.
"""

from __future__ import annotations

import shlex
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Callable

from .applications import (
    andre_barbier_count,
    brak_essam_counts,
    case1_region,
    case2_region,
    conjecture_check,
    contact_formula_count,
    dyck_region,
    path_of_perm,
    perm_of_path,
    perm_stats,
)
from .enumeration import (
    _height_sequences,
    all_regions,
    enumerate_paths,
    enumerate_tuples,
    lgv_count,
    path_distribution,
)
from .matroids import (
    activities,
    active_elements,
    activity_terms,
    bltr_tuple_bijection,
    bottom_contact_positions,
    left_contact_positions,
    lpm_oracle,
    natural_order,
    north_index_set,
    phi_xy,
    reversed_order,
    uniform_oracle,
)
from .paths import Path, Region, contact_stats, descent_set, noncontact_heights
from .polynomials import MultiPoly
from .swaps import swapall
from .tableaux import (
    YoungShape,
    enumerate_flagged_ssyt,
    expected_weight,
    psi,
    psi_inv,
    region_of_shape,
    weight,
)
from .triangulations import (
    catalan_det,
    enumerate_k_triangulations,
    fan_region,
    nicolas_check,
)
from .tuples import h_stats, u_stats, v_stats
from .words import factorize, switch, switch_inv


@dataclass(frozen=True)
class VerifyResult:
    name: str
    ok: bool
    detail: str
    counterexample: str | None = None

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = f" [{self.counterexample}]" if self.counterexample else ""
        return f"{status:4} {self.name}: {self.detail}{extra}"


class Counterexample(Exception):
    """A sweep's finding: what failed and, when one instance shows it, where.
    Not an ``AssertionError``, so it never reads as the library's own
    ``InvariantError``."""

    def __init__(self, what: str, where: str | None = None):
        super().__init__(what)
        self.what = what
        self.where = where


def _symmetric(dist: dict[tuple[int, ...], int]) -> bool:
    """Whether every permutation of each exponent vector has its count.
    Adjacent transpositions generate the symmetric group, so it suffices
    that each vector in the support shares its count with every vector that
    swaps two neighbouring exponents."""
    return all(
        dist.get(exp[:i] + (exp[i + 1], exp[i]) + exp[i + 2:], 0) == count
        for exp, count in dist.items()
        for i in range(len(exp) - 1)
    )


def _dist_command(region: Region | str, letters: str) -> str:
    """The CLI line that prints the region's distribution of the letters."""
    return f"pathlab dist --region '{region}' --stats {','.join(letters)}"


def _swapall_command(region: Region, path: Path) -> str:
    """The CLI line that applies the involution to one path of the region."""
    return f"pathlab swapall --region '{region}' --path {shlex.quote(str(path))}"


def _class_command(region: Region, descents: frozenset[int], free: tuple[int, ...]) -> str:
    """The CLI line that lists the region's paths, south steps allowed, of
    one (descent set, free heights) class."""
    d, h = (shlex.quote(",".join(map(str, values))) for values in (sorted(descents), free))
    return f"pathlab enumerate --region '{region}' --south --descents {d} --heights {h}"


# ---------------------------------------------------------------------------


def check_switch_words(max_len: int) -> str:
    """Unmatched-letter shape, class bijectivity, and the neighbourhood of
    the flipped letter, over all words up to the length bound."""
    classes: dict[tuple[int, int, int, int], list[str]] = {}
    total = 0
    for length in range(0, max_len + 1):
        for bits in range(1 << length):
            word = "".join("t" if bits >> i & 1 else "b" for i in range(length))
            bs, ts = factorize(word)
            if bs and ts and max(bs) > min(ts):
                raise Counterexample("unmatched letters out of order", word)
            e = word.count("t")
            f = word.count("b")
            u = len(bs) + len(ts)
            classes.setdefault((length, e, f, u), []).append(word)
            total += 1
            if ts:
                flipped = switch(word)
                if switch_inv(flipped) != word:
                    raise Counterexample("switch not inverted", word)
                i = next(k for k in range(length) if word[k] != flipped[k])
                if i > 0 and not (word[i - 1] == flipped[i - 1] == "b"):
                    raise Counterexample("letter before flip not b", word)
                if i < length - 1 and not (word[i + 1] == flipped[i + 1] == "t"):
                    raise Counterexample("letter after flip not t", word)
    for (length, e, f, u), members in classes.items():
        if e == 0 or u < max(e - f, f - e + 2):
            continue
        image = {switch(w) for w in members}
        target = set(classes.get((length, e - 1, f + 1, u), []))
        if image != target:
            raise Counterexample(f"class ({e},{f},{u}) not mapped bijectively")
    return f"{total} words checked up to length {max_len}"


def check_contact_involution(max_semi: int) -> str:
    """The contact-exchanging involution on every region and every path with
    prescribed descents: statistics swap, class data preserved, involutive,
    and each descent/heights class has at most one path of each extreme."""
    regions = paths = 0
    for region in all_regions(max_semi):
        regions += 1
        class_dist = defaultdict(Counter)
        for p in enumerate_paths(region, south_allowed=True):
            paths += 1
            st = contact_stats(region, p)
            image = swapall(region, p)
            ist = contact_stats(region, image)
            if (ist.t, ist.b) != (st.b, st.t):
                raise Counterexample("contact counts not exchanged", _swapall_command(region, p))
            descents = descent_set(p)
            if descent_set(image) != descents:
                raise Counterexample("descent set changed", _swapall_command(region, p))
            free = noncontact_heights(region, p)
            if noncontact_heights(region, image) != free:
                raise Counterexample("free heights changed", _swapall_command(region, p))
            if swapall(region, image) != p:
                raise Counterexample("not an involution", _swapall_command(region, p))
            class_dist[descents, free][st.t, st.b] += 1
        for key, dist in class_dist.items():
            if dist[1, 0] > 1 or dist[0, 1] > 1:
                raise Counterexample("extreme path not unique", _class_command(region, *key))
            if not _symmetric(dist):
                raise Counterexample("class distribution asymmetric", _class_command(region, *key))
    return f"{paths} paths over {regions} regions (x+y <= {max_semi})"


def check_tuple_symmetry(max_semi: int) -> str:
    """Coincidence-vector symmetry on every unused-edge class, plus the
    nesting determinant against brute-force counts, for k <= 3."""
    checked = 0
    for region in all_regions(max_semi):
        for k in (1, 2, 3):
            tuples = list(enumerate_tuples(region, k))
            if lgv_count(region, k) != len(tuples):
                raise Counterexample("determinant disagrees", f"{region} k={k}")
            by_u = defaultdict(Counter)
            for t in tuples:
                by_u[u_stats(t)][h_stats(t)] += 1
            checked += len(tuples)
            if not all(_symmetric(dist) for dist in by_u.values()):
                raise Counterexample("h-distribution asymmetric", f"{region}")
    return f"{checked} tuples (x+y <= {max_semi}, k <= 3)"


def check_tutte_orders(max_semi: int) -> str:
    """Activity polynomial identical under every ground order; natural and
    reversed orders match the contact-pair distributions."""
    regions = 0
    for region in all_regions(max_semi):
        m = region.x + region.y
        oracle = lpm_oracle(region)
        terms = activity_terms(oracle, tuple(range(1, m + 1)))
        orders = permutations(range(1, m + 1))
        changed = next((order for order in orders if activity_terms(oracle, order) != terms), None)
        tutte = f"pathlab tutte --region '{region}'"
        if changed is not None:
            where = f"{tutte} vs {tutte} --order perm:{','.join(map(str, changed))}"
            raise Counterexample("order changed the polynomial", where)
        regions += 1

        # Every order, the reversed one included, gave the natural order's
        # polynomial.
        poly = MultiPoly(("x", "y"), terms)
        lb = path_distribution(region, ["l", "b"])
        rt = path_distribution(region, ["r", "t"])
        if poly != lb:
            where = f"{tutte} vs {_dist_command(region, 'lb')}"
            raise Counterexample("natural order mismatch", where)
        if poly != rt:
            where = f"{tutte} --order reversed vs {_dist_command(region, 'rt')}"
            raise Counterexample("reversed order mismatch", where)
    return f"{regions} regions, all ground orders (x+y <= {max_semi})"


def check_activity_reorder(max_semi: int) -> str:
    """The adjacent-transposition bijection preserves activity pairs and
    composes to the identity with its mirror, on path matroids and uniform
    matroids of ground size at most 5.  The mirror undoing every image
    makes the map injective on the bases, so it is a bijection of them."""
    oracles = []
    for region in all_regions(max_semi):
        oracles.append((f"{region}", lpm_oracle(region)))
    for m in range(1, 6):
        for r in range(0, m + 1):
            oracles.append((f"U({r},{m})", uniform_oracle(r, m)))
    checked = 0
    for label, oracle in oracles:
        m = oracle.ground_size
        bases = oracle.bases()
        if not bases:
            continue
        orders = [natural_order(m), reversed_order(m)]
        if m <= 4:
            orders = list(permutations(range(1, m + 1)))
        for order in orders:
            for pos in range(m - 1):
                x, y = order[pos], order[pos + 1]
                order_prime = (*order[:pos], y, x, *order[pos + 2 :])
                for base in bases:
                    image = phi_xy(oracle, order, x, y, base)
                    if phi_xy(oracle, order_prime, y, x, image) != base:
                        raise Counterexample("mirror composition not identity", f"{label}")
                    if activities(oracle, base, order) != activities(oracle, image, order_prime):
                        raise Counterexample("activity pair changed", f"{label}")
                    checked += 1
    return f"{checked} base transpositions checked"


def check_activity_contacts(max_semi: int) -> str:
    """With the natural order, internally active elements are exactly the
    north steps shared with the top boundary and externally active elements
    exactly the east steps shared with the bottom boundary."""
    checked = 0
    for region in all_regions(max_semi):
        oracle = lpm_oracle(region)
        order = natural_order(region.x + region.y)
        for p in enumerate_paths(region):
            base = north_index_set(p)
            internal, external = active_elements(oracle, base, order)
            if internal != left_contact_positions(region, p):
                raise Counterexample("internal actives differ", f"{region} {p}")
            if external != bottom_contact_positions(region, p):
                raise Counterexample("external actives differ", f"{region} {p}")
            checked += 1
    return f"{checked} paths checked (x+y <= {max_semi})"


def check_bltr_tuples(max_semi: int) -> str:
    """The bottom/left to top/right sweep on tuples: statistics transfer per
    instance and the two joint distributions agree, for k <= 2."""
    checked = 0
    for region in all_regions(max_semi):
        for k in (1, 2):
            tuples = list(enumerate_tuples(region, k))
            source, target = Counter(), Counter()
            for t in tuples:
                h, v = h_stats(t), v_stats(t)
                source[h[-1], v[0]] += 1
                image = bltr_tuple_bijection(t)
                if (h_stats(image)[0], v_stats(image)[-1]) != (h[-1], v[0]):
                    raise Counterexample("statistics not transferred", f"{region} k={k}")
                target[h[0], v[-1]] += 1
                checked += 1
            if source != target:
                raise Counterexample("distributions differ", f"{region} k={k}")
    return f"{checked} tuples checked (x+y <= {max_semi}, k <= 2)"


def check_tableau_bijection(box: int) -> str:
    """The repaired filling is a weight-true bijection onto flagged
    semistandard tableaux for every shape in a square box and k <= 3."""
    checked = 0
    for shape in shapes_in_box(box):
        region = region_of_shape(shape)
        for k in range(4):
            tuples = list(enumerate_tuples(region, k))
            images = set()
            for t in tuples:
                tab = psi(t)
                if weight(tab) != expected_weight(t):
                    raise Counterexample("weight mismatch", f"{shape} k={k}")
                if psi_inv(tab) != t:
                    raise Counterexample("round trip failed", f"{shape} k={k}")
                images.add(tab)
                checked += 1
            ssyt = set(enumerate_flagged_ssyt(shape, k))
            if images != ssyt:
                raise Counterexample("image is not all flagged tableaux", f"{shape} k={k}")
    return f"{checked} tuples over shapes in a {box}x{box} box, k <= 3"


def shapes_in_box(box: int) -> list[YoungShape]:
    """The nonempty shapes that fit a box-by-box square, in order of their
    row lengths: the weakly increasing sequences in [0, box]^box, reversed
    and stripped of zero rows."""
    sequences = _height_sequences((0,) * box, (box,) * box)
    parts = sorted(tuple(p for p in reversed(seq) if p) for seq in sequences)
    return [YoungShape(p) for p in parts if p]


def check_fan_determinants(max_n: int) -> str:
    """Catalan determinant, nesting determinant, and brute-force tuple
    counts agree on the staircase regions."""
    cases = [(n, k) for k in (1, 2) for n in range(2 * k + 1, max_n + 1)]
    cases += [(n, 3) for n in range(7, min(max_n, 8) + 1)]
    for n, k in cases:
        region = fan_region(n, k)
        det = catalan_det(n, k)
        brute = sum(1 for _ in enumerate_tuples(region, k))
        lgv = lgv_count(region, k)
        if not det == brute == lgv:
            raise Counterexample(f"{det} vs {brute} vs {lgv}", f"n={n} k={k}")
    return f"{len(cases)} staircase cases up to n = {max_n}"


# the (n, k) polygons of the two triangulation sweeps
_TRIANGULATION_CASES = ((5, 1), (6, 1), (7, 1), (8, 1), (6, 2), (7, 2), (8, 2))
_NICOLAS_CASES = ((5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (7, 2), (8, 2))


def check_triangulation_counts() -> str:
    for n, k in _TRIANGULATION_CASES:
        count = sum(1 for _ in enumerate_k_triangulations(n, k))
        det = catalan_det(n, k)
        if count != det:
            raise Counterexample(f"{count} != {det}", f"n={n} k={k}")
    return f"{len(_TRIANGULATION_CASES)} polygon cases"


def check_nicolas() -> str:
    for n, k in _NICOLAS_CASES:
        report = nicolas_check(n, k)
        if not report.holds:
            raise Counterexample("degree distributions differ", f"n={n} k={k}")
    return f"{len(_NICOLAS_CASES)} (n, k) cases"


def check_permutation_bridge(max_n: int) -> str:
    """The staircase bijection matches contacts with right-to-left extremes
    and descents with the dashed-pattern positions, exhaustively."""
    checked = 0
    for n in range(1, max_n + 1):
        region = dyck_region(n)
        seen = set()
        by_positions = defaultdict(Counter)
        for p in enumerate_paths(region, south_allowed=True):
            perm = perm_of_path(p)
            if path_of_perm(perm) != p:
                raise Counterexample("round trip failed", f"n={n} {p}")
            rl_min, rl_max, positions = perm_stats(perm)
            st = contact_stats(region, p)
            if (rl_min, rl_max) != (st.t, st.b):
                raise Counterexample("extremes do not match contacts", f"{perm}")
            if positions != descent_set(p):
                raise Counterexample("pattern positions differ", f"{perm}")
            by_positions[positions][rl_min, rl_max] += 1
            seen.add(perm)
            checked += 1
        if len(seen) != factorial(n):
            raise Counterexample("not onto all permutations", f"n={n}")
        if not all(_symmetric(dist) for dist in by_positions.values()):
            raise Counterexample("class extreme distribution asymmetric", f"n={n}")
    return f"{checked} paths across n <= {max_n}"


def check_closed_formulas(max_total: int) -> str:
    """Closed counting formulas against the (t, b) contact distribution:
    its coefficient sum is the path count, and its coefficients are the
    contact-refined counts."""
    families = [
        (1, (n, r, s))
        for n in range(max_total + 1)
        for r in range(max_total - n + 1)
        for s in range(max_total - n - r + 1)
    ] + [(2, params) for params in product(range(4), range(4), range(3))]
    for case, params in families:
        region = (case1_region if case == 1 else case2_region)(*params)
        count = f"pathlab count-ab --case {case} --params {','.join(map(str, params))}"
        dist = path_distribution(region, ["t", "b"])
        if andre_barbier_count(case, params) != dist.coefficient_sum():
            raise Counterexample(f"case {case} count", f"{count} vs {_dist_command(region, 'tb')}")
        if params[1] > 0:  # the contact formulas need a trailing north run, r > 0
            counts = dist.terms
            for c in range(region.x + 2):
                for i in range(c + 1):
                    if contact_formula_count(case, params, i, c - i) != counts.get((i, c - i), 0):
                        where = f"{count} --contacts {i},{c - i} vs {_dist_command(region, 'tb')}"
                        raise Counterexample(f"case {case} contacts ({i},{c - i})", where)
    return f"families swept to total {max_total}"


def check_brak_essam(max_x: int) -> str:
    """Return counts of configurations match the truncated-family counts
    for every number of axis returns, for k <= 2."""
    cases = 0
    for k in (1, 2):
        for x in range(1, max_x + 1):
            for y in range(x % 2, x + 1, 2):
                lhs, rhs = brak_essam_counts(x, y, k)
                if lhs != rhs:
                    raise Counterexample(f"{lhs} vs {rhs}", f"x={x} y={y} k={k}")
                cases += 1
    return f"{cases} (x, y, k) cases with x <= {max_x}"


def check_conjectures(max_n: int) -> str:
    for n in range(1, max_n + 1):
        equivalence, sum_dependence = conjecture_check(n)
        if not equivalence.holds:
            region = equivalence.counterexample
            where = " vs ".join(_dist_command(region, pair) for pair in ("bl", "bt", "lr", "tr"))
            raise Counterexample("distribution equivalence conjecture", where)
        if not sum_dependence.holds:
            where = _dist_command(sum_dependence.counterexample, "bl")
            raise Counterexample("sum-dependence conjecture", where)
    return f"both conjectures hold for n <= {max_n}"


def check_negative_control() -> str:
    """The coincidence-vector count is genuinely asymmetric across classes
    that a naive sum-based reduction would identify."""
    region = Region.from_steps("NNEE", "ENEN")
    counts = Counter(map(h_stats, enumerate_tuples(region, 2)))
    if counts[0, 1, 2] != 1 or counts[1, 1, 1] != 2:
        raise Counterexample(f"unexpected counts {dict(counts)}")
    return "pair-count control values confirmed"


# Each sweep, with what ``verify --max M`` bounds in it (the help epilog of
# ``pathlab verify`` shows this text) and the run that applies that bound.
SUITES: dict[str, tuple[str, Callable[[int], str]]] = {
    "switch-words": ("words of length <= min(2M, 14)",
                     lambda m: check_switch_words(min(2 * m, 14))),
    "contact-involution": ("regions with x+y <= M", check_contact_involution),
    "tuple-symmetry": ("regions with x+y <= min(M, 8), k <= 3",
                       lambda m: check_tuple_symmetry(min(m, 8))),
    "tutte-orders": ("regions with x+y <= min(M, 6)", lambda m: check_tutte_orders(min(m, 6))),
    "activity-reorder": ("regions with x+y <= min(M, 6); uniform matroids\n"
                         "on up to 5 elements whatever M is",
                         lambda m: check_activity_reorder(min(m, 6))),
    "activity-contacts": ("regions with x+y <= min(M, 5)",
                          lambda m: check_activity_contacts(min(m, 5))),
    "bltr-tuples": ("regions with x+y <= min(M, 5), k <= 2",
                    lambda m: check_bltr_tuples(min(m, 5))),
    "tableau-bijection": ("shapes in a min(M, 4) box, k <= 3",
                          lambda m: check_tableau_bijection(min(m, 4))),
    "fan-determinants": ("n <= max(M, 9)", lambda m: check_fan_determinants(max(m, 9))),
    "triangulation-counts": ("ignores M", lambda m: check_triangulation_counts()),
    "triangulation-degrees": ("ignores M", lambda m: check_nicolas()),
    "permutation-bridge": ("n <= min(M, 7)", lambda m: check_permutation_bridge(min(m, 7))),
    "closed-formulas": ("case 1 with n+r+s <= min(M, 7); case 2 on a fixed grid",
                        lambda m: check_closed_formulas(min(m, 7))),
    "watermelons": ("x <= min(M, 8)", lambda m: check_brak_essam(min(m, 8))),
    "conjectures": ("n <= min(M, 4)", lambda m: check_conjectures(min(m, 4))),
    "negative-control": ("ignores M", lambda m: check_negative_control()),
}


def run(name: str, bound: int) -> VerifyResult:
    """Suite ``name`` run at ``verify --max bound``: ok with what it covered,
    FAIL with its counterexample, or FAIL naming any other exception the
    code under test raised."""
    sweep = SUITES[name][1]
    try:
        detail = sweep(bound)
    except Counterexample as exc:
        return VerifyResult(name, False, exc.what, exc.where)
    except Exception as exc:
        return VerifyResult(name, False, f"raised {type(exc).__name__}: {exc}")
    return VerifyResult(name, True, detail)
