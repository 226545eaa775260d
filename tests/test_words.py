from itertools import product

import pytest
from hypothesis import given, strategies as st

from pathlab.words import factorize, switch, switch_inv

EXAMPLE = "bttbtbbbttbttbtbtt"


def test_factorize_example():
    bs, ts = factorize(EXAMPLE)
    assert bs == (1, 8)
    assert ts == (9, 12, 17, 18)


def test_factorize_dyck_word():
    assert factorize("tb") == ((), ())


def test_factorize_fully_unmatched():
    assert factorize("bt") == ((1,), (2,))


def test_switch_example():
    flipped = switch(EXAMPLE)
    assert flipped == EXAMPLE[:8] + "b" + EXAMPLE[9:]
    assert switch_inv(flipped) == EXAMPLE


def test_switch_singletons():
    assert switch("t") == "b"
    assert switch_inv("b") == "t"


def test_switch_requires_unmatched():
    with pytest.raises(ValueError):
        switch("tb")
    with pytest.raises(ValueError):
        switch_inv("tb")


words = st.text(alphabet="tb", max_size=12)


@given(words)
def test_unmatched_bs_before_ts(word):
    bs, ts = factorize(word)
    if bs and ts:
        assert max(bs) < min(ts)


@given(words)
def test_switch_preserves_unmatched_count(word):
    bs, ts = factorize(word)
    if not ts:
        return
    flipped = switch(word)
    fb, ft = factorize(flipped)
    assert len(fb) + len(ft) == len(bs) + len(ts)
    assert flipped.count("t") == word.count("t") - 1
    assert switch_inv(flipped) == word


def switch_by_factorize(word):
    _, ts = factorize(word)
    if not ts:
        raise ValueError("word has no unmatched t")
    i = ts[0] - 1
    return word[:i] + "b" + word[i + 1 :]


def switch_inv_by_factorize(word):
    bs, _ = factorize(word)
    if not bs:
        raise ValueError("word has no unmatched b")
    i = bs[-1] - 1
    return word[:i] + "t" + word[i + 1 :]


def outcome(fn, word):
    try:
        return fn(word)
    except ValueError as exc:
        return str(exc)


def test_switches_match_factorize_on_every_short_word():
    checked = 0
    for n in range(13):
        for letters in product("tb", repeat=n):
            word = "".join(letters)
            assert outcome(switch, word) == outcome(switch_by_factorize, word)
            assert outcome(switch_inv, word) == outcome(switch_inv_by_factorize, word)
            checked += 1
    assert checked == 2**13 - 1


def test_switches_reject_letters_outside_the_alphabet():
    for fn in (switch, switch_inv):
        with pytest.raises(ValueError, match=r"^letters outside alphabet \{t, b\}: \['x'\]$"):
            fn("tx")
