"""Path-level transformations that turn top contacts into bottom contacts.

``swap`` moves one contact; iterating it (``swapall``) is an involution that
exchanges the top- and bottom-contact counts while preserving the descent
set and the heights of the non-contact east steps.
"""

from __future__ import annotations

from .paths import InvariantError, Path, Region, RegionError, check_dimensions
from .words import factorize, switch


def _scan(region: Region, heights: tuple[int, ...]):
    """One pass over the columns: ``None`` if the heights leave the region,
    else the contact columns and the contact word.

    Every east step that is a top or bottom contact but not both gives one
    (1-based) column and one letter, ``t`` or ``b``; steps shared by both
    boundaries are omitted.
    """
    cols = []
    letters = []
    col = 0
    for h, th, bh in zip(heights, region.t_heights, region.b_heights):
        col += 1
        if h == th:
            if h != bh:
                cols.append(col)
                letters.append("t")
        elif h == bh:
            cols.append(col)
            letters.append("b")
        elif h > th or h < bh:
            return None
    return cols, "".join(letters)


def _letters(region: Region, path: Path):
    """``_scan`` of a path given at the API, which raises ``RegionError``
    if it does not lie in the region."""
    check_dimensions(region, path)
    scan = _scan(region, path.heights)
    if scan is None:
        raise RegionError("path does not lie in the region")
    return scan


def contact_word(region: Region, path: Path) -> str:
    """The path's contact letters in column order (see ``_scan``)."""
    return _letters(region, path)[1]


def _swap(region: Region, h: tuple[int, ...], cols: list[int], word: str):
    """One step of ``swap`` on heights in the region with the given contact
    columns and word; returns the image's heights, columns and word."""
    _, unmatched_t = factorize(word)
    if not unmatched_t:
        raise ValueError("contact word has no unmatched top contact")
    k = unmatched_t[0] - 1
    c_t = cols[k]
    x = len(h)
    b_heights = region.b_heights

    # Column j (1-based) is a descent when h[j - 1] > h[j]; the right end of
    # column j lies on the bottom boundary when h[j - 1] <= b_heights[j],
    # since the path is weakly above the bottom's vertical run there.
    x_start = c_t
    while x_start > 1 and h[x_start - 2] <= h[x_start - 1] and h[x_start - 2] > b_heights[x_start - 1]:
        x_start -= 1
    y_end = c_t
    while y_end < x and h[y_end - 1] > h[y_end]:
        y_end += 1
    len_y = y_end - c_t

    # The contact columns increase, so a block holds a contact exactly when
    # the neighbouring contact column falls inside it.
    if k > 0 and cols[k - 1] >= x_start:
        raise InvariantError("block X may not contain contacts")
    if k + 1 < len(cols) and cols[k + 1] <= y_end:
        raise InvariantError("block Y may not contain contacts")

    h_x = None if x_start == c_t else h[c_t - 2]
    h_y = None if len_y == 0 else h[c_t]
    if h_x is None or (h_y is not None and h_x <= h_y):
        # W X Y b Z: the contact slides right past Y onto the bottom boundary
        b_col = c_t + len_y
        new = h[: c_t - 1] + h[c_t : c_t + len_y] + (b_heights[b_col - 1],) + h[c_t + len_y :]
    else:
        # W b X Y Z: the contact slides left past X
        b_col = x_start
        new = h[: x_start - 1] + (b_heights[x_start - 1],) + h[x_start - 1 : c_t - 1] + h[c_t:]
    scan = _scan(region, new)
    if scan is None:
        raise InvariantError("swap left the region")
    if scan[1] != switch(word):
        raise InvariantError("swap did not switch the contact word")
    return new, *scan


def _swap_inv(region: Region, h: tuple[int, ...], cols: list[int], word: str):
    """One step of ``swap_inv``, with the arguments and result of ``_swap``."""
    unmatched_b, _ = factorize(word)
    if not unmatched_b:
        raise ValueError("contact word has no unmatched bottom contact")
    k = unmatched_b[-1] - 1
    c_b = cols[k]
    x = len(h)
    t_heights = region.t_heights

    # Column j is a descent when h[j - 1] > h[j]; the left end of column
    # j + 1 lies on the top boundary when h[j] >= t_heights[j - 1], since
    # the path is weakly below the top's vertical run there.
    s_start = c_b
    while s_start > 1 and h[s_start - 2] > h[s_start - 1]:
        s_start -= 1
    len_s = c_b - s_start
    u_end = c_b
    while u_end < x and h[u_end - 1] <= h[u_end] and h[u_end] < t_heights[u_end - 1]:
        u_end += 1
    len_u = u_end - c_b

    if k > 0 and cols[k - 1] >= s_start:
        raise InvariantError("block S may not contain contacts")
    if k + 1 < len(cols) and cols[k + 1] <= u_end:
        raise InvariantError("block U may not contain contacts")

    h_s = None if len_s == 0 else h[c_b - 2]
    h_u = None if len_u == 0 else h[c_b]
    if len_u == 0 or (len_s > 0 and h_s <= h_u):
        # R t S U V: the contact slides left past S onto the top boundary
        t_col = c_b - len_s
        new = h[: t_col - 1] + (t_heights[t_col - 1],) + h[t_col - 1 : c_b - 1] + h[c_b:]
    else:
        # R S U t V: the contact slides right past U
        t_col = c_b + len_u
        new = h[: c_b - 1] + h[c_b : c_b + len_u] + (t_heights[t_col - 1],) + h[c_b + len_u :]
    scan = _scan(region, new)
    if scan is None:
        raise InvariantError("inverse swap left the region")
    return new, *scan


def swap(region: Region, path: Path) -> Path:
    """Replace the leftmost unmatched top contact by a bottom contact.

    The east steps decompose as W X t Y Z around the selected contact: X is
    the maximal block before it with no descent after any step and no right
    endpoint on the bottom boundary; Y is the maximal block after it with a
    descent before each step.  The contact moves past whichever of X, Y is
    higher at the junction, and lands on the bottom boundary.
    """
    return Path(_swap(region, path.heights, *_letters(region, path))[0], path.y)


def swap_inv(region: Region, path: Path) -> Path:
    """Inverse of ``swap``: the rightmost unmatched bottom contact becomes a
    top contact (the picture of ``swap`` rotated half a turn)."""
    return Path(_swap_inv(region, path.heights, *_letters(region, path))[0], path.y)


def swapall(region: Region, path: Path) -> Path:
    """Involution exchanging the top- and bottom-contact counts.

    Applies ``swap`` (or its inverse) as many times as the difference of the
    two counts; when the counts already agree it is the identity.  Columns
    shared by both boundaries count toward both, so the difference is that
    of the letters of the contact word.
    """
    cols, word = _letters(region, path)
    diff = 2 * word.count("t") - len(word)
    if diff == 0:
        return path
    step = _swap if diff > 0 else _swap_inv
    h = path.heights
    for _ in range(abs(diff)):
        h, cols, word = step(region, h, cols, word)
    return Path(h, path.y)
