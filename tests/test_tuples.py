import random
from collections import Counter
from itertools import permutations

import pytest

from pathlab import verify
from pathlab.enumeration import enumerate_paths, enumerate_tuples
from pathlab.paths import Path, Region, contact_stats, descent_set, noncontact_heights, parse_path
from pathlab.matroids import bltr_single_path, bltr_tuple_bijection
from pathlab.tuples import (
    PathTuple,
    _replace,
    apply_perm_h,
    h_stats,
    transpose_h,
    u_stats,
    v_stats,
)
from pathlab.verify import _symmetric, all_regions

# a wide region and a pinned pair of paths inside it
WIDE = Region.from_steps("NNENEENENENENEEEE", "EEENENEENENNEENEN")
WIDE_PAIR = PathTuple(
    WIDE,
    (
        Path((0, 3, 3, 3, 5, 5, 5, 5, 5, 7), 7),
        Path((0, 0, 1, 1, 4, 4, 5, 5, 5, 6), 7),
    ),
)

# the square-region 3-tuple whose statistics the tableau bijection preserves
SQ = Region(Path((5,) * 6, 5), Path((0, 1, 1, 3, 4, 4), 5))
SQ_TRIPLE = PathTuple(
    SQ,
    (
        Path((2, 3, 5, 5, 5, 5), 5),
        Path((0, 3, 4, 4, 5, 5), 5),
        Path((0, 1, 2, 4, 4, 5), 5),
    ),
)


def test_nesting_validation():
    r = Region.from_steps("NE", "EN")
    with pytest.raises(ValueError):
        PathTuple(r, (parse_path("EN"), parse_path("NE")))


def test_replace_keeps_the_checks():
    # the paper's maps hand _replace the paths they compute, so the tuple it
    # builds goes through every check of PathTuple
    with pytest.raises(ValueError, match="not weakly nested"):
        _replace(WIDE_PAIR, 2, WIDE.top)
    with pytest.raises(ValueError, match="leaves the region"):
        _replace(WIDE_PAIR, 1, Path((7,) * 10, 7))


def test_h_stats_wide_pair():
    assert h_stats(WIDE_PAIR) == (4, 4, 6)


def test_h_stats_square_triple():
    assert h_stats(SQ_TRIPLE) == (4, 3, 3, 3)


def test_h_stats_k1_bottom():
    r = Region.from_steps("NNENEE", "ENEENN")
    t = PathTuple(r, (r.bottom,))
    assert h_stats(t) == (0, 3)


def test_u_stats_examples():
    assert u_stats(WIDE_PAIR) == (3, 0, 1, 2, 3, 2)
    assert u_stats(SQ_TRIPLE) == (2, 2, 1, 1)


def test_u_stats_all_used():
    r = Region.from_steps("NNEE", "EENN")
    t = PathTuple(r, (Path((2, 2), 2), Path((1, 1), 2), Path((0, 0), 2)))
    assert u_stats(t) == (0,)


def u_stats_by_definition(t):
    """The definition: for each height y-s, scan every column for an east
    edge strictly between the boundaries that no path uses."""
    region = t.region
    y = region.y
    used = [set(p.heights[j] for p in t.paths) for j in range(region.x)]
    out = []
    for s in range(1, y):
        height = y - s
        count = 0
        for j in range(region.x):
            if region.b_heights[j] < height < region.t_heights[j] and height not in used[j]:
                count += 1
        out.append(count)
    return tuple(out)


def test_u_stats_match_definition():
    checked = 0
    for region in all_regions(6):
        for k in range(4):  # k = 0 leaves every edge unused
            for t in enumerate_tuples(region, k):
                assert u_stats(t) == u_stats_by_definition(t), t
                checked += 1
    assert checked == 40656


def test_v_stats_wide_path():
    t = PathTuple(WIDE, (Path((0, 3, 3, 3, 5, 5, 5, 5, 5, 7), 7),))
    assert v_stats(t) == (2, 1)


def test_v_stats_bottom_copies():
    r = Region.from_steps("NNENEE", "ENEENN")
    t = PathTuple(r, (r.bottom, r.bottom))
    assert v_stats(t)[-1] == 3


def test_transpose_h_small():
    r = Region.from_steps("NE", "EN")
    t = PathTuple(r, (parse_path("NE"), parse_path("EN")))
    assert h_stats(t) == (1, 0, 1)
    image = transpose_h(t, 1)
    assert h_stats(image) == (0, 1, 1)
    assert image.paths == (parse_path("EN"), parse_path("EN"))
    assert transpose_h(image, 1) == t


def test_transpose_preserves_u():
    for t in enumerate_tuples(Region.from_steps("NNEE", "ENEN"), 2):
        for i in (1, 2):
            image = transpose_h(t, i)
            assert u_stats(image) == u_stats(t)
            assert transpose_h(image, i) == t


def test_apply_perm_identity():
    t = WIDE_PAIR
    assert apply_perm_h(t, (0, 1, 2)) == t


def test_apply_perm_reversal_distribution():
    region = Region.from_steps("NNEE", "ENEN")
    tuples = list(enumerate_tuples(region, 2))
    reversed_images = [apply_perm_h(t, (2, 1, 0)) for t in tuples]
    assert sorted(h_stats(t) for t in reversed_images) == sorted(
        tuple(reversed(h_stats(t))) for t in tuples
    )
    assert len(set(reversed_images)) == len(tuples)


def test_h_distribution_symmetric_per_u_class():
    region = Region.from_steps("NNNEEE", "ENENEN")
    by_u = {}
    for t in enumerate_tuples(region, 2):
        by_u.setdefault(u_stats(t), []).append(h_stats(t))
    for hs in by_u.values():
        counts = {}
        for h in hs:
            counts[h] = counts.get(h, 0) + 1
        for h, c in counts.items():
            for perm in permutations(range(3)):
                assert counts.get(tuple(h[i] for i in perm), 0) == c


def test_bltr_tuple_small():
    region = Region.from_steps("NE", "EN")
    tuples = list(enumerate_tuples(region, 2))
    src = Counter((h_stats(t)[-1], v_stats(t)[0]) for t in tuples)
    images = [bltr_tuple_bijection(t) for t in tuples]
    dst = Counter((h_stats(t)[0], v_stats(t)[-1]) for t in images)
    assert src == dst
    assert len(set(images)) == len(tuples)


def test_bltr_k1_equals_single_path_map():
    region = Region.from_steps("NNEE", "ENEN")
    for t in enumerate_tuples(region, 1):
        image = bltr_tuple_bijection(t)
        assert image.paths[0] == bltr_single_path(region, t.paths[0])


def test_h_symmetry_invariant_full_scale():
    # the coincidence-vector symmetry on every unused-edge class, at the
    # documented sweep bound; ~2 minutes
    result = verify.run("tuple-symmetry", 8)
    assert result.ok, result.counterexample


def symmetric_by_every_permutation(dist):
    """The reference for verify._symmetric: every permutation of each
    exponent vector in the support has its count."""
    return all(
        dist.get(tuple(exp[i] for i in perm), 0) == count
        for exp, count in dist.items()
        for perm in permutations(range(len(exp)))
    )


def sweep_class_dicts(max_semi):
    """The class distributions the contact-involution and tuple-symmetry
    sweeps test, over every region with x + y at most the bound."""
    for region in all_regions(max_semi):
        classes = {}
        for p in enumerate_paths(region, south_allowed=True):
            st = contact_stats(region, p)
            dist = classes.setdefault((descent_set(p), noncontact_heights(region, p)), {})
            dist[(st.t, st.b)] = dist.get((st.t, st.b), 0) + 1
        for k in (1, 2, 3):
            for t in enumerate_tuples(region, k):
                dist = classes.setdefault((k, u_stats(t)), {})
                dist[h_stats(t)] = dist.get(h_stats(t), 0) + 1
        yield from classes.values()


def test_adjacent_swap_symmetry_matches_every_permutation():
    rng = random.Random(8)
    dicts = []
    for _ in range(5000):
        length = rng.randint(0, 4)
        dist = {}
        for _ in range(rng.randint(0, 5)):
            exp = tuple(rng.randint(0, 2) for _ in range(length))
            count = rng.randint(1, 3)
            # whole orbits as well as single vectors, so both answers occur
            for image in set(permutations(exp)) if rng.random() < 0.7 else [exp]:
                dist[image] = count
        dicts.append(dist)
    for dist in sweep_class_dicts(4):
        dicts.append(dist)
        dicts.append(dict(list(dist.items())[1:]))  # one count dropped
    answers = [symmetric_by_every_permutation(dist) for dist in dicts]
    assert True in answers and False in answers
    for dist, answer in zip(dicts, answers):
        assert _symmetric(dist) == answer, dist
