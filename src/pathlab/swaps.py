"""Path-level transformations that turn top contacts into bottom contacts.

``swap`` moves one contact; iterating it (``swapall``) is an involution that
exchanges the top- and bottom-contact counts while preserving the descent
set and the heights of the non-contact east steps.
"""

from __future__ import annotations

from .paths import InvariantError, Path, Region, RegionError, contains, descent_set, vertices
from .words import factorize, switch


def contact_letters(region: Region, path: Path) -> tuple[tuple[int, str], ...]:
    """(column, letter) for every east step that is a top or bottom contact
    but not both; steps shared by both boundaries are omitted."""
    out = []
    for i, (h, th, bh) in enumerate(
        zip(path.heights, region.t_heights, region.b_heights)
    ):
        if h == th and h == bh:
            continue
        if h == th:
            out.append((i + 1, "t"))
        elif h == bh:
            out.append((i + 1, "b"))
    return tuple(out)


def contact_word(region: Region, path: Path) -> str:
    if not contains(region, path):
        raise RegionError("path does not lie in the region")
    return "".join(letter for _, letter in contact_letters(region, path))


def swap(region: Region, path: Path) -> Path:
    """Replace the leftmost unmatched top contact by a bottom contact.

    The east steps decompose as W X t Y Z around the selected contact: X is
    the maximal block before it with no descent after any step and no right
    endpoint on the bottom boundary; Y is the maximal block after it with a
    descent before each step.  The contact moves past whichever of X, Y is
    higher at the junction, and lands on the bottom boundary.
    """
    letters = contact_letters(region, path)
    word = "".join(l for _, l in letters)
    _, unmatched_t = factorize(word)
    if not unmatched_t:
        raise ValueError("contact word has no unmatched top contact")
    c_t = letters[unmatched_t[0] - 1][0]

    h = path.heights
    x = len(h)
    descents = descent_set(path)
    b_pts = vertices(region.bottom)

    x_start = c_t
    while (
        x_start > 1
        and (x_start - 1) not in descents
        and (x_start - 1, h[x_start - 2]) not in b_pts
    ):
        x_start -= 1
    y_end = c_t
    while y_end < x and y_end in descents:
        y_end += 1
    len_y = y_end - c_t

    contact_cols = {col for col, _ in letters}
    if any(j in contact_cols for j in range(x_start, c_t)):
        raise InvariantError("block X may not contain contacts")
    if any(j in contact_cols for j in range(c_t + 1, y_end + 1)):
        raise InvariantError("block Y may not contain contacts")

    h_x = None if x_start == c_t else h[c_t - 2]
    h_y = None if len_y == 0 else h[c_t]
    if h_x is None or (h_y is not None and h_x <= h_y):
        # W X Y b Z: the contact slides right past Y onto the bottom boundary
        b_col = c_t + len_y
        new = h[: c_t - 1] + h[c_t : c_t + len_y] + (region.b_heights[b_col - 1],) + h[c_t + len_y :]
    else:
        # W b X Y Z: the contact slides left past X
        b_col = x_start
        new = h[: x_start - 1] + (region.b_heights[x_start - 1],) + h[x_start - 1 : c_t - 1] + h[c_t:]
    image = Path(new, path.y)
    if not contains(region, image):
        raise InvariantError("swap left the region")
    if contact_word(region, image) != switch(word):
        raise InvariantError("swap did not switch the contact word")
    return image


def swap_inv(region: Region, path: Path) -> Path:
    """Inverse of ``swap``: the rightmost unmatched bottom contact becomes a
    top contact (the picture of ``swap`` rotated half a turn)."""
    letters = contact_letters(region, path)
    word = "".join(l for _, l in letters)
    unmatched_b, _ = factorize(word)
    if not unmatched_b:
        raise ValueError("contact word has no unmatched bottom contact")
    c_b = letters[unmatched_b[-1] - 1][0]

    h = path.heights
    x = len(h)
    descents = descent_set(path)
    t_pts = vertices(region.top)

    s_start = c_b
    while s_start > 1 and (s_start - 1) in descents:
        s_start -= 1
    len_s = c_b - s_start
    u_end = c_b
    while (
        u_end < x
        and u_end not in descents
        and (u_end, h[u_end]) not in t_pts
    ):
        u_end += 1
    len_u = u_end - c_b

    contact_cols = {col for col, _ in letters}
    if any(j in contact_cols for j in range(s_start, c_b)):
        raise InvariantError("block S may not contain contacts")
    if any(j in contact_cols for j in range(c_b + 1, u_end + 1)):
        raise InvariantError("block U may not contain contacts")

    h_s = None if len_s == 0 else h[c_b - 2]
    h_u = None if len_u == 0 else h[c_b]
    if len_u == 0 or (len_s > 0 and h_s <= h_u):
        # R t S U V: the contact slides left past S onto the top boundary
        t_col = c_b - len_s
        new = h[: t_col - 1] + (region.t_heights[t_col - 1],) + h[t_col - 1 : c_b - 1] + h[c_b:]
    else:
        # R S U t V: the contact slides right past U
        t_col = c_b + len_u
        new = h[: c_b - 1] + h[c_b : c_b + len_u] + (region.t_heights[t_col - 1],) + h[c_b + len_u :]
    image = Path(new, path.y)
    if not contains(region, image):
        raise InvariantError("inverse swap left the region")
    return image


def swapall(region: Region, path: Path) -> Path:
    """Involution exchanging the top- and bottom-contact counts.

    Applies ``swap`` (or its inverse) as many times as the difference of the
    two counts; when the counts already agree it is the identity.
    """
    if not contains(region, path):
        raise RegionError("path does not lie in the region")
    t = sum(h == th for h, th in zip(path.heights, region.t_heights))
    b = sum(h == bh for h, bh in zip(path.heights, region.b_heights))
    image = path
    for _ in range(t - b):
        image = swap(region, image)
    for _ in range(b - t):
        image = swap_inv(region, image)
    return image
