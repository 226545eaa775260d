"""Young shapes, flagged semistandard tableaux, the direct filling of a
nested path tuple, the weight-preserving bijection psi and its inverse,
and the weight polynomial of flagged tableaux by the branching rule.

psi starts from the direct filling of a tuple and repairs its ordering
defects one local move at a time; the moves are invertible, so psi_inv
undoes them.  Entries at most k+1 are called small, larger ones large; a
large entry equal to k+r in row r is maximal.

Both repairs run on mutable rows with one violation scan per move and
freeze to a Tableau only at the API boundary.  Every move must change the
potential, the sum of (r + c) * e over the cells, in its direction, which
bounds both loops.  The single moves on a Tableau and the relaxed flagged
conditions they keep are test oracles in tests/test_tableaux.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .enumeration import _height_sequences, _shift_into
from .paths import InvariantError, Path, Region
from .polynomials import MultiPoly
from .tuples import PathTuple, h_stats, u_stats

Cell = tuple[int, int]


@dataclass(frozen=True)
class YoungShape:
    """Weakly decreasing row lengths; trailing zero rows are meaningful and
    record empty rows of the ambient region."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("row lengths must weakly decrease")
        if any(p < 0 for p in self.parts):
            raise ValueError("row lengths must be nonnegative")

    @property
    def rows(self) -> int:
        return len(self.parts)

    @property
    def width(self) -> int:
        return self.parts[0] if self.parts else 0


def shape_from_region(region: Region) -> YoungShape:
    """Row lengths of the cell diagram between the boundaries, top row
    first.  Requires the top boundary to run all norths then all easts."""
    y = region.y
    if any(t != y for t in region.t_heights):
        raise ValueError("top boundary must be of the form N^y E^x")
    parts = tuple(
        sum(1 for b in region.b_heights if b <= y - r) for r in range(1, y + 1)
    )
    return YoungShape(parts)


def region_of_shape(shape: YoungShape) -> Region:
    """The region whose cell diagram is the shape: full-height top boundary,
    bottom boundary read off the column lengths."""
    y = shape.rows
    x = shape.width
    col_lengths = [sum(1 for p in shape.parts if p >= c) for c in range(1, x + 1)]
    bottom = Path(tuple(y - cl for cl in col_lengths), y)
    top = Path((y,) * x, y)
    return Region(top, bottom)


@dataclass(frozen=True)
class Tableau:
    rows: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        YoungShape(tuple(len(r) for r in self.rows))

    @property
    def shape(self) -> YoungShape:
        return YoungShape(tuple(len(r) for r in self.rows))

    def entry(self, r: int, c: int) -> int | None:
        """1-based lookup; None when the cell is outside the shape."""
        if 1 <= r <= len(self.rows) and 1 <= c <= len(self.rows[r - 1]):
            return self.rows[r - 1][c - 1]
        return None

    def text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows if row)


def weight(t: Tableau) -> tuple[int, ...]:
    """Multiplicities of the entries 1 .. k + number of rows."""
    top = t.k + len(t.rows)
    counts = [0] * top
    for row in t.rows:
        for e in row:
            counts[e - 1] += 1
    return tuple(counts)


def is_flagged_ssyt(t: Tableau) -> bool:
    for r, row in enumerate(t.rows, start=1):
        for c, e in enumerate(row, start=1):
            if not 1 <= e <= t.k + r:
                return False
            if c > 1 and row[c - 2] > e:
                return False
            above = t.entry(r - 1, c)
            if above is not None and above >= e:
                return False
    return True


def _violations(rows, k: int) -> tuple[list[Cell], list[Cell]]:
    """Semistandard and path violations of a filling given as rows of
    entries (lists or tuples), each in row-major order.  This one scan
    serves both repair loops."""
    small = k + 1
    ssv: list[Cell] = []
    pv: list[Cell] = []
    above = ()
    last = len(rows) - 1
    for i, row in enumerate(rows):
        r = i + 1
        below = rows[r] if i < last else ()
        n_below = len(below)
        n_right = len(row) - 1
        maximal_below = small + r
        for j, e in enumerate(row):
            if (i and above[j] >= e) or (j and row[j - 1] > e):
                ssv.append((r, j + 1))
            if e > small:
                continue
            if j < n_below:
                f = below[j]
                if f > small and f != maximal_below:
                    pv.append((r, j + 1))
                    continue
            if j < n_right and row[j + 1] > small:
                # every small entry above the large right neighbour is below e
                for upper in rows[:i]:
                    v = upper[j + 1]
                    if e <= v <= small:
                        break
                else:
                    pv.append((r, j + 1))
        above = row
    return ssv, pv


def _select(rows, cells: list[Cell], sign: int, what: str) -> Cell | None:
    """The cell of least (entry, column) for sign 1, of greatest for sign
    -1; the moves are defined only when it is unique."""
    best = None
    best_key = None
    ties = 0
    for cell in cells:
        r, c = cell
        key = (sign * rows[r - 1][c - 1], sign * c)
        if best is None or key < best_key:
            best, best_key, ties = cell, key, 1
        elif key == best_key:
            ties += 1
    if ties > 1:
        raise InvariantError(f"{what} must be unique")
    return best


def _j_step(rows: list[list[int]], r: int, c: int) -> int:
    """The j-move in place at the minimal semistandard violation (r, c).
    Returns the change of potential: swapping e with its neighbour a, above
    or to the left, changes it by a - e."""
    row = rows[r - 1]
    e = row[c - 1]
    e_a = rows[r - 2][c - 1] if r > 1 else 0
    e_l = row[c - 2] if c > 1 else 0
    if e_l > e_a:
        row[c - 2], row[c - 1] = e, e_l
        return e_l - e
    rows[r - 2][c - 1], row[c - 1] = e, e_a
    return e_a - e


def _j_inv_step(rows: list[list[int]], r: int, c: int, k: int) -> int:
    """The inverse move in place at the maximal path violation (r, c).
    Returns the change of potential: swapping the small entry f with its
    larger neighbour g, below or to the right, changes it by f - g."""
    small = k + 1
    row = rows[r - 1]
    f = row[c - 1]
    f_b = rows[r][c - 1] if r < len(rows) and c <= len(rows[r]) else None
    f_r = row[c] if c < len(row) else None
    b_large = f_b is not None and f_b > small
    r_large = f_r is not None and f_r > small
    if b_large and (not r_large or f_b <= f_r):
        rows[r][c - 1], row[c - 1] = f, f_b
        return f - f_b
    if r_large:
        row[c], row[c - 1] = f, f_r
        return f - f_r
    raise InvariantError("path violation without a large neighbour")


def tab_of_tuple(pt: PathTuple) -> Tableau:
    """Direct filling: each cell takes one more than the index of the lowest
    path whose east step bounds it above (the top boundary counts as index
     0); uncovered cells in row r take the maximal value k+r."""
    region = pt.region
    shape = shape_from_region(region)
    if shape.width != region.x:
        raise ValueError("bottom boundary touches the top edge; no cell column there")
    y, k = region.y, pt.k
    chain = (region.top,) + pt.paths
    rows = []
    for r in range(1, y + 1):
        row = []
        for c in range(1, shape.parts[r - 1] + 1):
            edge_height = y - r + 1
            best = None
            for i, p in enumerate(chain):
                if p.heights[c - 1] == edge_height:
                    best = i
            row.append(best + 1 if best is not None else k + r)
        rows.append(tuple(row))
    return Tableau(tuple(rows), k)


def _tuple_of_rows(rows, k: int) -> PathTuple:
    """The inverse of the direct filling, on rows of entries already known
    to have no path violation: in each column the small entries, top down,
    say where the paths they index cross that column."""
    region = region_of_shape(YoungShape(tuple(len(row) for row in rows)))
    y, x = region.y, region.x
    small = k + 1
    b_heights = region.b_heights
    heights = [[0] * x for _ in range(k)]
    for c in range(x):
        boundary = 1
        for i, row in enumerate(rows):
            if c < len(row) and row[c] <= small:
                e = row[c]
                for p in range(boundary, e):
                    heights[p - 1][c] = y - i
                boundary = max(boundary, e)
        for p in range(boundary, k + 1):
            heights[p - 1][c] = b_heights[c]
    return PathTuple(region, tuple(Path(tuple(h), y) for h in heights))


def expected_weight(pt: PathTuple) -> tuple[int, ...]:
    """The weight the bijection must produce: column count minus each
    coincidence statistic, then the unused-edge counts."""
    lam1 = shape_from_region(pt.region).width
    return tuple(lam1 - h for h in h_stats(pt)) + u_stats(pt)


def psi(pt: PathTuple) -> Tableau:
    """Repair the direct filling into a flagged semistandard tableau by
    repeated j-moves at the minimal semistandard violation; weight is
    preserved throughout.

    The repair scans once per move on mutable rows and freezes them to a
    Tableau only when done.  Each j-move must raise the potential.
    """
    t = tab_of_tuple(pt)
    w = weight(t)
    k = t.k
    rows = [list(row) for row in t.rows]
    while True:
        ssv, _ = _violations(rows, k)
        if not ssv:
            break
        r, c = _select(rows, ssv, 1, "minimal semistandard violation")
        if _j_step(rows, r, c) <= 0:
            raise InvariantError("j-move must raise the potential")
    t = Tableau(rows, k)
    if weight(t) != w:
        raise InvariantError("psi changed the weight")
    return t


def psi_inv(t: Tableau) -> PathTuple:
    """Inverse repair: undo local moves at the maximal path violation until
    the direct filling reappears, then read the paths off its columns.

    Like psi, it scans once per move on mutable rows; each move must lower
    the potential, and the number of moves is capped.
    """
    k = t.k
    cells = sum(len(r) for r in t.rows)
    cap = (len(t.rows) + t.shape.width) * (k + len(t.rows)) * max(cells, 1)
    rows = [list(row) for row in t.rows]
    for _ in range(cap + 1):
        _, pv = _violations(rows, k)
        if not pv:
            return _tuple_of_rows(rows, k)
        r, c = _select(rows, pv, -1, "maximal path violation")
        if _j_inv_step(rows, r, c, k) >= 0:
            raise InvariantError("inverse move must lower the potential")
    raise InvariantError("inverse move iteration exceeded its bound")


def enumerate_flagged_ssyt(shape: YoungShape, k: int):
    """All semistandard fillings with row r bounded by k+r, in
    lexicographic order of their rows.  Row r is a weakly increasing
    sequence from ``_height_sequences``, each entry at least one more than
    the entry above it and at most k+r."""
    parts = [p for p in shape.parts if p > 0]

    def rec(rows: tuple[tuple[int, ...], ...]):
        r = len(rows)
        if r == len(parts):
            yield Tableau(rows, k)
            return
        lo = tuple(e + 1 for e in rows[-1][: parts[r]]) if rows else (1,) * parts[r]
        for row in _height_sequences(lo, (k + r + 1,) * parts[r]):
            yield from rec(rows + (row,))

    yield from rec(())


def flagged_schur(shape: YoungShape, k: int, nvars: int) -> MultiPoly:
    """Weight generating polynomial of the flagged semistandard tableaux of
    the shape, by the branching rule (Stanley, EC2, ch. 7).

    The cells with entries at most m form a shape mu inside lambda, and
    entry m adds a horizontal strip nu: mu_r <= nu_r <= mu_{r-1}, with
    nu_r = lambda_r once m >= k + r (the flag).  The state maps each mu to
    the counts of the fillings that reach it, by exponents packed as in
    ``enumeration.path_distribution`` (radix |lambda| + 1, x1 most
    significant); x_m gains |nu| - |mu|.  No entry exceeds k + l, l the
    number of nonzero rows, so the later variables only pad the exponents.
    """
    parts = tuple(p for p in shape.parts if p > 0)
    ell = len(parts)
    if k < 0:
        raise ValueError("k must be a natural number")
    if nvars < k + ell:
        raise ValueError("need at least k + number of parts variables")
    radix = sum(parts) + 1
    places = [radix**p for p in reversed(range(k + ell))]
    state = {(0,) * ell: {0: 1}}
    for m, place in enumerate(places, start=1):
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for mu, counts in state.items():
            ranges = [
                range(lam if m >= k + r else low, min(lam, cap) + 1)
                for r, (lam, low, cap) in enumerate(zip(parts, mu, parts[:1] + mu), start=1)
            ]
            size = sum(mu)
            for nu in product(*ranges):
                _shift_into(nxt.setdefault(nu, {}), counts, place * (sum(nu) - size))
        state = nxt
    padding = (0,) * (nvars - len(places))
    terms = {
        tuple([code // place % radix for place in places]) + padding: n
        for code, n in state[parts].items()
    }
    return MultiPoly(tuple(f"x{i}" for i in range(1, nvars + 1)), terms)
