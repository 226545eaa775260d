"""Words over the two-letter alphabet {t, b} and the letter-switch bijection.

A word factors uniquely as Dyck factors interleaved with unmatched letters,
every unmatched b occurring before every unmatched t.  Matching is a single
left-to-right stack pass (t opens, b closes); positions are 1-based.
"""

from __future__ import annotations

ALPHABET = {"t", "b"}


def _check(word: str) -> None:
    if word.strip("tb"):  # the strip stops at any other letter
        bad = set(word) - ALPHABET
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
    """Replace the leftmost unmatched t with a b.

    The unmatched t's are the stack that ``factorize`` leaves, so the
    leftmost is its bottom: the last t pushed onto an empty stack, provided
    the stack never empties again."""
    _check(word)
    depth = 0
    for i, ch in enumerate(word):
        if ch == "t":
            if not depth:
                bottom = i
            depth += 1
        elif depth:
            depth -= 1
    if not depth:
        raise ValueError("word has no unmatched t")
    return word[:bottom] + "b" + word[bottom + 1 :]


def switch_inv(word: str) -> str:
    """Replace the rightmost unmatched b with a t: the last b met when the
    stack of ``factorize`` is empty."""
    _check(word)
    depth = 0
    last = -1
    for i, ch in enumerate(word):
        if ch == "t":
            depth += 1
        elif depth:
            depth -= 1
        else:
            last = i
    if last < 0:
        raise ValueError("word has no unmatched b")
    return word[:last] + "t" + word[last + 1 :]
