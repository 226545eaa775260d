"""Words over the two-letter alphabet {t, b} and the letter-switch bijection.

A word factors uniquely as Dyck factors interleaved with unmatched letters,
every unmatched b occurring before every unmatched t.  Matching is a single
left-to-right stack pass (t opens, b closes); positions are 1-based.
"""

from __future__ import annotations

ALPHABET = {"t", "b"}


def _check(word: str) -> None:
    bad = set(word) - ALPHABET
    if bad:
        raise ValueError(f"letters outside alphabet {{t, b}}: {sorted(bad)}")


def factorize(word: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Positions of the unmatched b's and unmatched t's."""
    _check(word)
    stack: list[int] = []
    unmatched_b = []
    for i, ch in enumerate(word, start=1):
        if ch == "t":
            stack.append(i)
        elif stack:
            stack.pop()
        else:
            unmatched_b.append(i)
    return tuple(unmatched_b), tuple(stack)


def switch(word: str) -> str:
    """Replace the leftmost unmatched t with a b."""
    _, ts = factorize(word)
    if not ts:
        raise ValueError("word has no unmatched t")
    i = ts[0] - 1
    return word[:i] + "b" + word[i + 1 :]


def switch_inv(word: str) -> str:
    """Replace the rightmost unmatched b with a t."""
    bs, _ = factorize(word)
    if not bs:
        raise ValueError("word has no unmatched b")
    i = bs[-1] - 1
    return word[:i] + "t" + word[i + 1 :]
