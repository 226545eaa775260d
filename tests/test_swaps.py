import os
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from pathlab.enumeration import enumerate_paths
from pathlab.paths import Path, Region, contact_stats, descent_set, noncontact_heights
from pathlab.swaps import contact_word, swap, swap_inv, swapall
from pathlab.words import factorize, switch, unmatched_count

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
                    assert unmatched_count(w) == u


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
    from pathlab.verify import all_regions

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


OPTIMIZED_CHECK = """
import sys
from pathlab import InvariantError, swaps
from pathlab.verify import check_contact_involution
if not sys.flags.optimize:
    sys.exit("not running under -O")
swaps.switch = lambda word: word
try:
    check_contact_involution(4)
except InvariantError as exc:
    print("raised:", exc)
else:
    sys.exit("swap accepted a contact word it did not switch")
"""


def test_swap_checks_survive_optimized_mode():
    src = str(FilePath(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: swap did not switch the contact word")
