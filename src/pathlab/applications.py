"""Consequences of the contact symmetries: counting corollaries and closed
formulas, a bijection with permutations, watermelon configurations read as
nested path tuples, and one finite checker for two conjectures."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .enumeration import _height_sequences, enumerate_tuples, path_distribution
from .paths import InvariantError, Path, Region


def binom(a: int, b: int) -> int:
    """Path-counting convention: choosing nothing is always one way, and a
    negative pool admits no positive choice."""
    if b < 0:
        return 0
    if b == 0:
        return 1
    if a < 0 or b > a:
        return 0
    return comb(a, b)


# ---------------------------------------------------------------------------
# contact-count corollaries


@dataclass(frozen=True)
class IJReport:
    cond_counts: bool
    cond_order: bool
    cond_boundary: bool

    @property
    def agree(self) -> bool:
        return self.cond_counts == self.cond_order == self.cond_boundary


def _counts_depend_on_sum(counts: dict[tuple[int, int], int], bound: int) -> bool:
    for total in range(0, 2 * bound + 1):
        values = {
            counts.get((i, total - i), 0)
            for i in range(0, bound + 1)
            if 0 <= total - i <= bound
        }
        if len(values) > 1:
            return False
    return True


def corollary_ij_check(region: Region) -> IJReport:
    """Three equivalent characterizations of regions whose (top, bottom)
    contact counts depend only on their sum.

    The ordering condition treats an east step shared by both boundaries as
    a bottom contact not preceding a top contact, which keeps the three
    conditions equivalent on degenerate regions.  The counts come from
    ``path_distribution`` and the order from ``_t_then_b``, so no path is
    listed.
    """
    counts = path_distribution(region, ["t", "b"]).terms
    shared = any(t == b for t, b in zip(region.t_heights, region.b_heights))
    cond_counts = _counts_depend_on_sum(counts, region.x + 1)
    cond_order = not shared and not _t_then_b(region)
    if region.x == 0:
        cond_boundary = True
    else:
        cond_boundary = region.b_heights[-1] < region.t_heights[0]
    report = IJReport(cond_counts, cond_order, cond_boundary)
    if not report.agree:
        raise InvariantError(f"conditions disagree on {region}")
    return report


def _t_then_b(region: Region) -> bool:
    """Whether some monotone path's contact word has a b right after a t.

    A walk over the columns the two boundaries do not share (a shared
    column gives no letter).  The first of them can hold a t, at its top
    height ``low``, and heights never fall: some path has a t before a b
    exactly when a later column's bottom height reaches ``low``, since
    then the first b after that t follows a t.  The walk stops there.
    """
    low = None
    for th, bh in zip(region.t_heights, region.b_heights):
        if th == bh:
            continue
        if low is None:
            low = th
        elif low <= bh:
            return True
    return False


# ---------------------------------------------------------------------------
# closed formulas and their boundary families


def case1_region(n: int, r: int, s: int) -> Region:
    top = "N" * (n + r) + "E" * (n + s)
    bottom = "E" * s + "NE" * n + "N" * r
    return Region.from_steps(top, bottom)


def case2_region(n: int, r: int, k: int) -> Region:
    top = "N" * (k * n + r) + "E" * (n + 1)
    bottom = "E" + ("N" * k + "E") * n + "N" * r
    return Region.from_steps(top, bottom)


def andre_barbier_count(case: int, params: tuple[int, ...]) -> int:
    """Exact path counts for the two boundary families with closed formulas."""
    if case == 1:
        n, r, s = params
        return binom(2 * n + r + s, n + s) - binom(2 * n + r + s, n - 1)
    if case == 2:
        n, r, k = params
        num = (r + 1) * binom(r + (n + 1) * (k + 1), n)
        if num % (n + 1):
            raise InvariantError(f"case 2 count {num}/{n + 1} is not an integer")
        return num // (n + 1)
    raise ValueError("case must be 1 or 2")


def contact_formula_count(case: int, params: tuple[int, ...], i: int, j: int) -> int:
    """Exact count of paths with i top and j bottom contacts in the closed
    formula families; requires a positive trailing north run."""
    c = i + j
    if case == 1:
        n, r, s = params
        if r <= 0:
            raise ValueError("requires r > 0")
        return binom(2 * n + r + s - c - 2, n + s - c) - binom(
            2 * n + r + s - c - 2, n - 1 - c
        )
    if case == 2:
        n, r, k = params
        if r <= 0:
            raise ValueError("requires r > 0")
        if c > n + 1:
            return 0
        if c == n + 1:
            return 1
        num = (k * c + r - 1) * binom(r - c - 2 + (n + 1) * (k + 1), n - c)
        if num % (n - c + 1):
            raise InvariantError(f"case 2 contact count {num}/{n - c + 1} is not an integer")
        return num // (n - c + 1)
    raise ValueError("case must be 1 or 2")


# ---------------------------------------------------------------------------
# permutations


def dyck_region(n: int) -> Region:
    return Region.from_steps("N" * n + "E" * n, "NE" * n)


def perm_of_path(path: Path) -> tuple[int, ...]:
    """Read a permutation off a path in the staircase region: the i-th value
    is chosen by the height of the i-th east step among the unused values."""
    n = path.x
    if path.y != n:
        raise ValueError("need a path in the n-by-n staircase region")
    remaining = list(range(1, n + 1))
    out = []
    for y_i in path.heights:
        p_i = n + 1 - y_i
        if not 1 <= p_i <= len(remaining):
            raise ValueError("path leaves the staircase region")
        out.append(remaining.pop(p_i - 1))
    return tuple(out)


def path_of_perm(perm: tuple[int, ...]) -> Path:
    """Inverse reading: heights record the rank of each value among the
    values not yet placed."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a permutation in one-line notation")
    remaining = list(range(1, n + 1))
    heights = []
    for v in perm:
        p_i = remaining.index(v) + 1
        heights.append(n + 1 - p_i)
        remaining.pop(p_i - 1)
    return Path(tuple(heights), n)


def perm_stats(perm: tuple[int, ...]) -> tuple[int, int, frozenset[int]]:
    """(right-to-left minima, right-to-left maxima, positions i where some
    later value falls strictly between the entries at i and i+1)."""
    n = len(perm)
    rl_min = sum(
        all(perm[i] < perm[j] for j in range(i + 1, n)) for i in range(n)
    )
    rl_max = sum(
        all(perm[i] > perm[j] for j in range(i + 1, n)) for i in range(n)
    )
    positions = frozenset(
        i + 1
        for i in range(n - 1)
        if any(perm[i] < perm[j] < perm[i + 1] for j in range(i + 2, n))
    )
    return rl_min, rl_max, positions


# ---------------------------------------------------------------------------
# watermelon configurations


def watermelon_region(x: int, y: int) -> Region:
    """The region whose weakly nested k-tuples are the configurations of k
    walks of length x and deviation y.

    A configuration's i-th +-1 walk runs from (0, 2i) to (x, y + 2i); the
    bottom walk never goes below the axis, and each walk stays strictly
    above the one below it.  Read as a path's step string, N = +1 and
    E = -1, the top walk is the tuple's first path.
    """
    if (x + y) % 2:
        raise ValueError("length and deviation must have equal parity")
    if not 0 <= y <= x:
        raise ValueError("deviation must lie between 0 and the length")
    m = (x - y) // 2
    top = "N" * ((x + y) // 2) + "E" * m
    bottom = "NE" * m + "N" * y
    return Region.from_steps(top, bottom)


def _walk(path: Path) -> tuple[int, ...]:
    """The path's step string read as a walk: N = +1, E = -1."""
    return tuple(1 if step == "N" else -1 for step in path.steps())


def walk_returns(path: Path) -> int:
    """Down steps of the path read as a walk from the axis that land back
    on the axis: the returns of a configuration's bottom walk."""
    walk = _walk(path)
    return sum(v == -1 and h == 0 for v, h in zip(walk, accumulate(walk)))


def brak_essam_counts(x: int, y: int, k: int) -> tuple[dict[int, int], dict[int, int]]:
    """(returns distribution, truncated-family counts) for every e.

    The configurations are the weakly nested tuples of
    ``watermelon_region``, read as walks; there are none, and no families,
    when x + y is odd or y lies outside [0, x].  The bottom walk's i-th down
    step returns to the axis when the last path has h_i = i.

    The family for e has the lower k-1 paths forming a configuration of the
    full length while the top path, from (0, 2k-2), stops at
    (x-e-1, y+2k+e-3), all disjoint.  For each configuration of the lower
    paths the top walks are counted column by column, as a map from height
    to the number of walks ending there; after i steps the map holds the
    walks of the family for e = x-1-i.  A step goes to h - 1 or h + 1 and
    must stay strictly above the (k-1)-th path's trace, or at or above the
    axis where there is none.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if (x + y) % 2 or not 0 <= y <= x:
        return {}, {}
    region = watermelon_region(x, y)
    bottoms = (t.paths[-1].heights for t in enumerate_tuples(region, k))
    lhs = dict(Counter(sum(h == i for i, h in enumerate(b, 1)) for b in bottoms))
    if k == 1:
        floors = [(-1,) * x]
    else:
        floors = [
            tuple(accumulate(_walk(t.paths[0]), initial=2 * (k - 2)))
            for t in enumerate_tuples(region, k - 1)
        ]
    families = [0] * x
    for floor in floors:
        counts = {2 * (k - 1): 1}
        for i in range(x):
            if i:
                nxt: dict[int, int] = {}
                for h, count in counts.items():
                    for v in (h - 1, h + 1):
                        if v > floor[i]:
                            nxt[v] = nxt.get(v, 0) + count
                counts = nxt
            e = x - 1 - i
            families[e] += counts.get(y + 2 * k + e - 3, 0)
    return lhs, {e: count for e, count in enumerate(families) if count}


# ---------------------------------------------------------------------------
# conjecture checker


@dataclass(frozen=True)
class ConjectureReport:
    holds: bool
    regions_checked: int
    counterexample: str | None


def regions_touching_only_at_ends(n: int) -> list[Region]:
    """The regions in the n-by-n square whose boundaries share only their
    endpoints, ordered by top and then bottom heights.

    Such a top starts with N and ends with E: t_1 >= 1 and t_n = n.  Such a
    bottom starts with E, b_1 = 0, and at each inner x-coordinate i its
    vertical run, up to b_{i+1}, stays below the top's, from t_i: so
    b_{i+1} <= t_i - 1.  Every height lies in [0, n] and the caps keep the
    bottom below the top, so the paths and regions skip their checks.
    """
    regions = []
    lows = (1,) * (n - 1) + (n,) if n else ()
    for top in _height_sequences(lows, (n,) * n):
        top_path = Path._of(top, n)
        caps = (0, *(t - 1 for t in top))[:n]
        for bottom in _height_sequences((0,) * n, caps):
            regions.append(Region._of(top_path, Path._of(bottom, n)))
    return regions


def conjecture_check(n: int) -> tuple[ConjectureReport, ConjectureReport]:
    """Conjectures 5.2 and 5.3 over the regions meeting only at their ends,
    from one listing of them and four pair distributions per region.

    5.2: each of (b, l) = (b, t), (b, l) = (l, r), (t, r) = (b, t) and
    (t, r) = (l, r) holds exactly when the top or the bottom is a
    staircase.  5.3: the (b, l) counts depend only on their sum exactly
    when a staircase faces the full opposite corner.  Each report names the
    first region that breaks its conjecture.
    """
    regions = regions_touching_only_at_ends(n)
    stair_top, stair_bottom = tuple(range(1, n + 1)), tuple(range(n))
    corners = {((n,) * n, stair_bottom), (stair_top, (0,) * n)}
    found: list[str | None] = [None, None]
    for region in regions:
        bl, bt, lr, tr = (path_distribution(region, list(pair)) for pair in ("bl", "bt", "lr", "tr"))
        special = region.t_heights == stair_top or region.b_heights == stair_bottom
        holds_52 = all(c == special for c in (bl == bt, bl == lr, tr == bt, tr == lr))
        corner = (region.t_heights, region.b_heights) in corners
        holds_53 = _counts_depend_on_sum(bl.terms, n + 1) == corner
        for i, holds in enumerate((holds_52, holds_53)):
            if not holds and found[i] is None:
                found[i] = str(region)
    return tuple(ConjectureReport(where is None, len(regions), where) for where in found)
