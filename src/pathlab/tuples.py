"""Weakly nested k-tuples of monotone paths in a region, their coincidence
statistics, and the bijections that permute those statistics."""

from __future__ import annotations

from dataclasses import dataclass

from .paths import InvariantError, Path, Region, contains, north_edges
from .swaps import swapall


@dataclass(frozen=True)
class PathTuple:
    """k monotone paths in a region, each weakly above the next.

    For statistics the top boundary acts as the 0-th path and the bottom
    boundary as the (k+1)-st.
    """

    region: Region
    paths: tuple[Path, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        for p in self.paths:
            if not p.is_monotone:
                raise ValueError("tuple paths must be monotone")
            if not contains(self.region, p):
                raise ValueError("tuple path leaves the region")
        for upper, lower in zip(self.paths, self.paths[1:]):
            if any(a < b for a, b in zip(upper.heights, lower.heights)):
                raise ValueError("paths are not weakly nested")

    @classmethod
    def _of(cls, region: Region, paths: tuple[Path, ...]) -> "PathTuple":
        """A tuple whose paths, a tuple, are known to be monotone paths of
        the region, each weakly above the next: the checks of
        ``__post_init__`` are skipped.  For trusted callers only."""
        t = object.__new__(cls)
        object.__setattr__(t, "region", region)
        object.__setattr__(t, "paths", paths)
        return t

    @property
    def k(self) -> int:
        return len(self.paths)

    def with_boundaries(self) -> tuple[Path, ...]:
        return (self.region.top,) + self.paths + (self.region.bottom,)


def h_stats(t: PathTuple) -> tuple[int, ...]:
    """Numbers of east steps where consecutive paths coincide, boundaries
    included: entry 0 pairs the top boundary with the first path."""
    chain = t.with_boundaries()
    return tuple(
        sum(a == b for a, b in zip(p.heights, q.heights))
        for p, q in zip(chain, chain[1:])
    )


def v_stats(t: PathTuple) -> tuple[int, ...]:
    """Numbers of north edges where consecutive paths coincide."""
    chain = t.with_boundaries()
    return tuple(
        len(north_edges(p) & north_edges(q)) for p, q in zip(chain, chain[1:])
    )


def u_stats(t: PathTuple) -> tuple[int, ...]:
    """Entry s-1 counts east edges at height y-s strictly between the
    boundaries that no path of the tuple uses, for s = 1 .. y-1."""
    y = t.region.y
    out = [0] * (y - 1)
    for j, (b, top) in enumerate(zip(t.region.b_heights, t.region.t_heights)):
        used = {p.heights[j] for p in t.paths}
        for h in range(b + 1, top):
            if h not in used:
                out[y - h - 1] += 1
    return tuple(out)


def _replace(t: PathTuple, i: int, new_path: Path) -> PathTuple:
    paths = list(t.paths)
    paths[i - 1] = new_path
    return PathTuple(t.region, tuple(paths))


def _inner_region(t: PathTuple, i: int) -> Region:
    """The region between the neighbours of the i-th path; the tuple's
    checks already nest them, so the region skips its own."""
    chain = t.with_boundaries()
    return Region._of(chain[i - 1], chain[i + 1])


def transpose_h(t: PathTuple, i: int) -> PathTuple:
    """Swap the i-1st and i-th coincidence counts by applying the
    contact-exchanging involution to the i-th path between its neighbours."""
    if not 1 <= i <= t.k:
        raise ValueError("transposition index out of range")
    local = _inner_region(t, i)
    image = _replace(t, i, swapall(local, t.paths[i - 1]))
    before, after = h_stats(t), h_stats(image)
    if not (after[i - 1] == before[i] and after[i] == before[i - 1]):
        raise InvariantError(f"transposition {i} did not exchange the coincidence counts")
    if u_stats(image) != u_stats(t):
        raise InvariantError(f"transposition {i} changed the unused-edge counts")
    return image


def bubble_swaps(items, target) -> list[int]:
    """Positions p of the adjacent swaps (entries p and p+1) that take
    ``items`` to the ranking ``target``, the same items listed in their
    wanted order, each swapping the leftmost pair out of that order."""
    rank = {item: p for p, item in enumerate(target)}
    cur = list(items)
    out = []
    p = 0
    while p < len(cur) - 1:
        if rank[cur[p]] > rank[cur[p + 1]]:
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
            out.append(p)
            p = max(p - 1, 0)
        else:
            p += 1
    return out


def apply_perm_h(t: PathTuple, perm) -> PathTuple:
    """Compose adjacent transpositions so that the image's coincidence
    vector is the original one permuted by ``perm``.

    ``perm`` lists, for each slot j in 0..k, the index of the original entry
    that should end up there.  The factorization is ``bubble_swaps``.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(t.k + 1)):
        raise ValueError("perm must be a permutation of 0..k")
    original = h_stats(t)
    image = t
    for p in bubble_swaps(range(t.k + 1), perm):
        image = transpose_h(image, p + 1)
    if h_stats(image) != tuple(original[i] for i in perm):
        raise InvariantError("composed transpositions did not permute the coincidence vector")
    return image
