"""Path-level transformations that turn top contacts into bottom contacts.

``swap`` moves one contact; iterating it (``swapall``) is an involution that
exchanges the top- and bottom-contact counts while preserving the descent
set and the heights of the non-contact east steps.

One kernel per direction, ``_down`` and ``_up``, moves one contact in place
on a height list and checks the columns it rewrote.  ``swapall`` reads its
moves off ``paths._columns``, the one column scan.  Both keep what they
computed for the region last asked about, keyed by the path's heights (see
``paths._keep``): the involution meets each path twice, once itself and
once as another path's image, and each height vector is scanned once and
swapped once, every move with its checks, while the region stays.
"""

from __future__ import annotations

from .paths import InvariantError, Path, Region, _columns, _held, _images, _keep

# what ``_images.get`` returns for heights that no swap has kept
_UNSEEN = object()


def _scan(region: Region, path: Path) -> tuple[list[int], list[int], list[int]]:
    """``paths._columns``'s contact columns and unmatched b's and t's, as
    fresh lists: the moves rewrite ``cols``."""
    record = _columns(region, path)
    return list(record.cols), list(record.unmatched_b), list(record.unmatched_t)


def contact_word(region: Region, path: Path) -> str:
    """The path's contact letters in column order (see ``paths._columns``)."""
    return _columns(region, path).word


def _land(region: Region, h: list[int], cols: list[int], k: int, land: int, boundary, letter: str, name: str):
    """Slide the contact at column ``cols[k]`` of ``h`` to ``land`` on the
    boundary, in place.  Only the columns between change, so the move switched
    the contact word unless one of them leaves the region or holds a contact
    other than ``letter`` at ``land``: then raise ``InvariantError``."""
    c = cols[k]
    if land > c:
        h[c - 1 : land - 1] = h[c:land]
        first, last = c, land
    else:
        h[land:c] = h[land - 1 : c - 1]
        first, last = land, c
    h[land - 1] = boundary[land - 1]
    t_heights, b_heights = region.top.heights, region.bottom.heights
    for j in range(first - 1, last):
        v, th, bh = h[j], t_heights[j], b_heights[j]
        if v > th or v < bh:
            raise InvariantError(f"{name} left the region")
        if ("t" if v == th != bh else "b" if v == bh != th else "") != (letter if j == land - 1 else ""):
            raise InvariantError(f"{name} did not switch the contact word")
    cols[k] = land


def _down(region: Region, h: list[int], cols: list[int], k: int) -> None:
    """One move of ``swap``, in place: the top contact at column ``cols[k]``
    of the heights ``h`` lands on the bottom boundary."""
    c_t = cols[k]
    b_heights = region.bottom.heights
    # Column j (1-based) is a descent when h[j - 1] > h[j]; the right end of
    # column j lies on the bottom boundary when h[j - 1] <= b_heights[j],
    # since the path is weakly above the bottom's vertical run there.
    x_start = c_t
    while x_start > 1 and h[x_start - 2] <= h[x_start - 1] and h[x_start - 2] > b_heights[x_start - 1]:
        x_start -= 1
    y_end = c_t
    while y_end < len(h) and h[y_end - 1] > h[y_end]:
        y_end += 1

    # The contact columns increase, so a block holds a contact exactly when
    # the neighbouring contact column falls inside it.
    if k > 0 and cols[k - 1] >= x_start:
        raise InvariantError("block X may not contain contacts")
    if k + 1 < len(cols) and cols[k + 1] <= y_end:
        raise InvariantError("block Y may not contain contacts")
    # W X Y b Z: the contact slides right past Y; W b X Y Z: left past X
    right = x_start == c_t or (y_end > c_t and h[c_t - 2] <= h[c_t])
    _land(region, h, cols, k, y_end if right else x_start, b_heights, "b", "swap")


def _up(region: Region, h: list[int], cols: list[int], k: int) -> None:
    """One move of ``swap_inv``, in place: the bottom contact at column
    ``cols[k]`` lands on the top boundary (``_down`` rotated half a turn)."""
    c_b = cols[k]
    t_heights = region.top.heights
    # Column j is a descent when h[j - 1] > h[j]; the left end of column
    # j + 1 lies on the top boundary when h[j] >= t_heights[j - 1], since
    # the path is weakly below the top's vertical run there.
    s_start = c_b
    while s_start > 1 and h[s_start - 2] > h[s_start - 1]:
        s_start -= 1
    u_end = c_b
    while u_end < len(h) and h[u_end - 1] <= h[u_end] and h[u_end] < t_heights[u_end - 1]:
        u_end += 1

    if k > 0 and cols[k - 1] >= s_start:
        raise InvariantError("block S may not contain contacts")
    if k + 1 < len(cols) and cols[k + 1] <= u_end:
        raise InvariantError("block U may not contain contacts")
    # R t S U V: the contact slides left past S; R S U t V: right past U
    left = u_end == c_b or (s_start < c_b and h[c_b - 2] <= h[c_b])
    _land(region, h, cols, k, s_start if left else u_end, t_heights, "t", "inverse swap")


def _moved(region: Region, path: Path, cols: list[int], move, moves) -> Path:
    """The path after ``move`` on the contact ``cols[k]`` for each k of
    ``moves`` in turn."""
    h = list(path.heights)
    for k in moves:
        move(region, h, cols, k)
    return Path._of(tuple(h), path.y)


def swap(region: Region, path: Path) -> Path:
    """Replace the leftmost unmatched top contact by a bottom contact.

    The east steps decompose as W X t Y Z around the selected contact: X is
    the maximal block before it with no descent after any step and no right
    endpoint on the bottom boundary; Y is the maximal block after it with a
    descent before each step.  The contact moves past whichever of X, Y is
    higher at the junction, and lands on the bottom boundary.
    """
    cols, _, unmatched_t = _scan(region, path)
    if not unmatched_t:
        raise ValueError("contact word has no unmatched top contact")
    return _moved(region, path, cols, _down, unmatched_t[:1])


def swap_inv(region: Region, path: Path) -> Path:
    """Inverse of ``swap``: the rightmost unmatched bottom contact becomes a
    top contact (the picture of ``swap`` rotated half a turn)."""
    cols, unmatched_b, _ = _scan(region, path)
    if not unmatched_b:
        raise ValueError("contact word has no unmatched bottom contact")
    return _moved(region, path, cols, _up, unmatched_b[-1:])


def swapall(region: Region, path: Path) -> Path:
    """Involution exchanging the top- and bottom-contact counts.

    Applies ``swap`` (or its inverse) as many times as the difference of the
    two counts; when the counts already agree it is the identity.  Columns
    shared by both boundaries count toward both, so the difference is that
    of the letters of the contact word.  Matched letters pair off, so it is
    also the number of unmatched ``t``'s less the number of unmatched
    ``b``'s, which one ``_scan`` gives with the moves themselves.

    The matching stack is empty at the leftmost unmatched ``t``, so switching
    it leaves every other letter matched or unmatched as before: the moves
    are the first t - b unmatched ``t``'s, or the last b - t unmatched
    ``b``'s taken rightmost first.

    The image is kept under the path's heights, ``None`` when the path
    stays (see ``paths._keep``); a swap that raises keeps nothing.
    """
    if _held[0] is region and path.y == region.top.y:
        image = _images.get(path.heights, _UNSEEN)
        if image is not _UNSEEN:
            return path if image is None else image
    cols, unmatched_b, unmatched_t = _scan(region, path)
    diff = len(unmatched_t) - len(unmatched_b)
    if diff == 0:
        image = None
    elif diff > 0:
        image = _moved(region, path, cols, _down, unmatched_t[:diff])
    else:
        image = _moved(region, path, cols, _up, reversed(unmatched_b[diff:]))
    _keep(region, _images, path.heights, image)
    return path if image is None else image
