import os
import subprocess
import sys
from itertools import product
from pathlib import Path as FilePath

import pytest

from oracles import outcome
from pathlab import swaps
from pathlab.enumeration import enumerate_paths, enumerate_tuples
from pathlab.paths import (
    InvariantError,
    Path,
    Region,
    RegionError,
    contact_stats,
    contains,
    descent_set,
    noncontact_heights,
    vertices,
)
from pathlab.swaps import contact_word, swap, swap_inv, swapall
from pathlab.verify import all_regions
from pathlab.words import factorize, switch

FIG4 = Region.from_steps("NNNEEENEE", "EENEEENNN")
DYCK22 = Region.from_steps("NNEE", "ENEN")


def test_contact_word_examples():
    assert contact_word(FIG4, Path((2, 3, 2, 3, 4), 4)) == "tt"
    small = Region.from_steps("NNENEE", "ENEENN")
    assert contact_word(small, small.bottom) == "bbb"
    assert contact_word(small, Path((0, 1, 2), 3)) == "bb"


def test_contact_word_omits_shared_steps():
    r = Region.from_steps("EN", "EN")
    assert contact_word(r, r.bottom) == ""


def test_swap_with_descents_slides_right():
    # larger region with one top contact; junction prefers the right block
    region = Region.from_steps("NNNNEENEEEENEE", "EEENEEEENENNNN")
    src = Path((2, 1, 2, 3, 5, 3, 2, 5), 6)
    assert swap(region, src) == Path((2, 1, 2, 3, 3, 2, 1, 5), 6)
    assert swap_inv(region, swap(region, src)) == src


def test_swap_with_descents_slides_left():
    region = Region.from_steps("NNNNEENEEEENEE", "EEENEEEENENNNN")
    src = Path((2, 1, 2, 4, 5, 3, 2, 5), 6)
    assert swap(region, src) == Path((2, 0, 1, 2, 4, 3, 2, 5), 6)
    assert swap_inv(region, swap(region, src)) == src


def test_swap_on_small_staircase():
    assert swap(DYCK22, Path((2, 2), 2)) == Path((0, 2), 2)


def test_swap_monotone_remark():
    # with no descents the contact hops left over the block not touching
    # the bottom boundary
    region = Region.from_steps("NNEEE", "EEENN")
    src = Path((1, 1, 2), 2)
    image = swap(region, src)
    assert contact_word(region, src) == "t"
    assert image == Path((0, 1, 1), 2)


def test_swap_requires_unmatched_top():
    with pytest.raises(ValueError):
        swap(DYCK22, Path((1, 1), 2))  # contact word "b" has no top
    with pytest.raises(ValueError):
        swap_inv(DYCK22, Path((2, 2), 2))  # contact word "tt" has no bottom


def test_swapall_small_staircase():
    assert swapall(DYCK22, Path((2, 2), 2)) == Path((0, 1), 2)
    assert swapall(DYCK22, Path((1, 2), 2)) == Path((1, 1), 2)


def test_swapall_identity_when_balanced():
    p = Path((0, 2), 2)
    assert swapall(DYCK22, p) == p


def test_swapall_two_steps_top_row():
    assert swapall(FIG4, Path((2, 3, 2, 3, 4), 4)) == Path((2, 2, 1, 1, 3), 4)


def test_swapall_two_steps_bottom_row():
    assert swapall(FIG4, Path((3, 3, 2, 2, 3), 4)) == Path((0, 2, 1, 2, 3), 4)


def test_commuting_square_and_class_bijectivity():
    for region in (FIG4, DYCK22, Region.from_steps("NNENEE", "ENEENN")):
        classes = {}
        for p in enumerate_paths(region, south_allowed=True):
            word = contact_word(region, p)
            bs, ts = factorize(word)
            if ts:
                image = swap(region, p)
                assert contact_word(region, image) == switch(word)
                key = (descent_set(p), noncontact_heights(region, p))
                e, f = word.count("t"), word.count("b")
                u = len(bs) + len(ts)
                classes.setdefault((key, e, f, u), []).append((p, image))
        for (key, e, f, u), pairs in classes.items():
            if u >= max(e - f, f - e + 2):
                images = {img for _, img in pairs}
                assert len(images) == len(pairs)
                for _, img in pairs:
                    w = contact_word(region, img)
                    assert (w.count("t"), w.count("b")) == (e - 1, f + 1)
                    bs, ts = factorize(w)
                    assert len(bs) + len(ts) == u


def test_at_most_one_extreme_path_per_class():
    for region in (FIG4, DYCK22):
        seen = {}
        for p in enumerate_paths(region, south_allowed=True):
            st = contact_stats(region, p)
            if (st.t, st.b) in ((1, 0), (0, 1)):
                key = (descent_set(p), noncontact_heights(region, p), st.t, st.b)
                assert key not in seen, "duplicate extreme path in a class"
                seen[key] = p


def test_class_bijectivity_sweep():
    # one application moves every (e, f, u)-class onto the (e-1, f+1, u)
    # class, across all small regions and prescribed-descent paths
    for region in all_regions(5):
        classes = {}
        for p in enumerate_paths(region, south_allowed=True):
            word = contact_word(region, p)
            bs, ts = factorize(word)
            key = (
                descent_set(p),
                noncontact_heights(region, p),
                word.count("t"),
                word.count("b"),
                len(bs) + len(ts),
            )
            classes.setdefault(key, []).append(p)
        for (dset, free, e, f, u), members in classes.items():
            if e == 0 or u < max(e - f, f - e + 2):
                continue
            images = {swap(region, p) for p in members}
            target = set(classes.get((dset, free, e - 1, f + 1, u), []))
            assert images == target


# The swaps as first written: contact letters recomputed and containment
# checked again at every step, blocks found through descent_set and the
# boundaries' vertex sets.  The fused kernels must agree with them.


def oracle_letters(region, path):
    out = []
    for i, (h, th, bh) in enumerate(zip(path.heights, region.t_heights, region.b_heights)):
        if h == th and h == bh:
            continue
        if h == th:
            out.append((i + 1, "t"))
        elif h == bh:
            out.append((i + 1, "b"))
    return tuple(out)


def oracle_word(region, path):
    if not contains(region, path):
        raise RegionError("path does not lie in the region")
    return "".join(letter for _, letter in oracle_letters(region, path))


def oracle_swap(region, path):
    letters = oracle_letters(region, path)
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
    while x_start > 1 and (x_start - 1) not in descents and (x_start - 1, h[x_start - 2]) not in b_pts:
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
        b_col = c_t + len_y
        new = h[: c_t - 1] + h[c_t : c_t + len_y] + (region.b_heights[b_col - 1],) + h[c_t + len_y :]
    else:
        b_col = x_start
        new = h[: x_start - 1] + (region.b_heights[x_start - 1],) + h[x_start - 1 : c_t - 1] + h[c_t:]
    image = Path(new, path.y)
    if not contains(region, image):
        raise InvariantError("swap left the region")
    if oracle_word(region, image) != switch(word):
        raise InvariantError("swap did not switch the contact word")
    return image


def oracle_swap_inv(region, path):
    letters = oracle_letters(region, path)
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
    while u_end < x and u_end not in descents and (u_end, h[u_end]) not in t_pts:
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
        t_col = c_b - len_s
        new = h[: t_col - 1] + (region.t_heights[t_col - 1],) + h[t_col - 1 : c_b - 1] + h[c_b:]
    else:
        t_col = c_b + len_u
        new = h[: c_b - 1] + h[c_b : c_b + len_u] + (region.t_heights[t_col - 1],) + h[c_b + len_u :]
    image = Path(new, path.y)
    if not contains(region, image):
        raise InvariantError("inverse swap left the region")
    return image


def oracle_swapall(region, path):
    if not contains(region, path):
        raise RegionError("path does not lie in the region")
    t = sum(h == th for h, th in zip(path.heights, region.t_heights))
    b = sum(h == bh for h, bh in zip(path.heights, region.b_heights))
    image = path
    for _ in range(t - b):
        image = oracle_swap(region, image)
    for _ in range(b - t):
        image = oracle_swap_inv(region, image)
    return image


def test_swaps_match_oracle():
    multistep = 0
    for region in all_regions(7):
        for p in enumerate_paths(region, south_allowed=True):
            word = contact_word(region, p)
            assert word == oracle_word(region, p)
            assert outcome(swap, region, p) == outcome(oracle_swap, region, p)
            assert outcome(swap_inv, region, p) == outcome(oracle_swap_inv, region, p)
            assert swapall(region, p) == oracle_swapall(region, p)
            multistep += abs(word.count("t") - word.count("b")) > 1
    assert multistep > 1000


# The swaps as written before the single column scan: the contact word from
# oracle_letters, its unmatched letters from factorize, then the same move
# kernels.  The scan must pick the same moves and raise the same errors.


def factorized_word(region, path):
    if not contains(region, path):
        raise RegionError("path does not lie in the region")
    letters = oracle_letters(region, path)
    word = "".join(letter for _, letter in letters)
    unmatched_b, unmatched_t = factorize(word)
    cols = [col for col, _ in letters]
    return cols, word, [i - 1 for i in unmatched_b], [i - 1 for i in unmatched_t]


def factorized_contact_word(region, path):
    return factorized_word(region, path)[1]


def factorized_swap(region, path):
    cols, _, _, unmatched_t = factorized_word(region, path)
    if not unmatched_t:
        raise ValueError("contact word has no unmatched top contact")
    return swaps._moved(region, path, cols, swaps._down, unmatched_t[:1])


def factorized_swap_inv(region, path):
    cols, _, unmatched_b, _ = factorized_word(region, path)
    if not unmatched_b:
        raise ValueError("contact word has no unmatched bottom contact")
    return swaps._moved(region, path, cols, swaps._up, unmatched_b[-1:])


def factorized_swapall(region, path):
    cols, word, unmatched_b, unmatched_t = factorized_word(region, path)
    diff = word.count("t") - word.count("b")
    if diff >= 0:
        return swaps._moved(region, path, cols, swaps._down, unmatched_t[:diff])
    return swaps._moved(region, path, cols, swaps._up, unmatched_b[::-1][:-diff])


SCANNED = [
    (contact_word, factorized_contact_word),
    (swap, factorized_swap),
    (swap_inv, factorized_swap_inv),
    (swapall, factorized_swapall),
]


def test_scan_matches_factorize():
    paths = no_b = no_t = multistep = outside = 0
    for region in all_regions(6):
        for south_allowed in (False, True):
            for p in enumerate_paths(region, south_allowed):
                paths += 1
                cols, _, unmatched_b, unmatched_t = factorized_word(region, p)
                assert swaps._scan(region, p) == (cols, unmatched_b, unmatched_t)
                for fn, reference in SCANNED:
                    assert outcome(fn, region, p) == outcome(reference, region, p)
                no_b += not unmatched_b
                no_t += not unmatched_t
                multistep += abs(len(unmatched_t) - len(unmatched_b)) > 1
        for heights in product(range(region.y + 1), repeat=region.x):
            p = Path(heights, region.y)
            if not contains(region, p):
                outside += 1
                for fn, reference in SCANNED:
                    assert outcome(fn, region, p) == outcome(reference, region, p)
    # swap_inv raises on the paths with no unmatched b, swap on those with
    # no unmatched t; swapall makes more than one move on the multistep ones
    assert (paths, no_b, no_t, multistep, outside) == (6512, 3220, 3220, 1896, 22061)
    for wrong in (Path((2, 2, 2), 2), Path((1,), 1), Path((2, 2), 3)):
        for fn, reference in SCANNED:
            assert outcome(fn, DYCK22, wrong) == outcome(reference, DYCK22, wrong)
            assert outcome(fn, DYCK22, wrong) == (RegionError, "path and region dimensions differ")


def test_unchecked_paths_pass_the_full_checks():
    # enumerate_paths, enumerate_tuples and the swaps build their paths without
    # the checks of Path.__post_init__; each must equal the checked path and lie
    # in the region
    for region in all_regions(6):
        built = [q for k in (1, 2) for t in enumerate_tuples(region, k) for q in t.paths]
        for south_allowed in (False, True):
            for p in enumerate_paths(region, south_allowed):
                built += [p, swapall(region, p)]
                for fn in (swap, swap_inv):
                    try:
                        built.append(fn(region, p))
                    except ValueError:
                        pass
        for q in built:
            assert q == Path(q.heights, q.y)
            assert contains(region, q)


OPTIMIZED_CHECK = """
import sys
from pathlab import InvariantError, swaps
from pathlab.verify import check_contact_involution
if not sys.flags.optimize:
    sys.exit("not running under -O")
scan = swaps._scan


def every_t_unmatched(region, path):
    cols, unmatched_b, _ = scan(region, path)
    ts = [k for k, col in enumerate(cols) if path.heights[col - 1] == region.top.heights[col - 1]]
    return cols, unmatched_b, ts


def shared_columns_as_tops(region, path):
    cols, unmatched_b, unmatched_t = [], [], []
    for col, (h, th, bh) in enumerate(zip(path.heights, region.top.heights, region.bottom.heights), 1):
        if h == th:
            unmatched_t.append(len(cols))
        elif h == bh:
            if unmatched_t:
                unmatched_t.pop()
            else:
                unmatched_b.append(len(cols))
        else:
            continue
        cols.append(col)
    return cols, unmatched_b, unmatched_t


swaps._scan = every_t_unmatched if sys.argv[1] == "matching" else shared_columns_as_tops
try:
    check_contact_involution(4)
except InvariantError as exc:
    print("raised:", exc)
else:
    sys.exit("swapall accepted a planted fault")
"""


def run_optimized_check(plant):
    src = str(FilePath(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK, plant],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_swap_checks_survive_optimized_mode():
    # the scan reports matched t's as unmatched, so a move starts at a
    # matched t and the next contact lies in its block Y
    assert run_optimized_check("matching") == "raised: block Y may not contain contacts\n"


def test_swap_window_check_survives_optimized_mode():
    # the contact scan keeps the columns both boundaries share, as top
    # contacts: a move from one lands where the bottom meets the top, so the
    # landing column holds no bottom contact
    assert run_optimized_check("shared") == "raised: swap did not switch the contact word\n"
