"""Permutations in one-line notation.

A permutation of {1, ..., n} is a tuple p of length n whose entry p[i-1] is
the image of i.  Composition is right-to-left: compose(x, y) applies y first,
so that appending a letter to a braid word multiplies its permutation on the
right.
"""

from __future__ import annotations


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def reversal(n: int) -> tuple[int, ...]:
    """The longest element, i -> n + 1 - i."""
    return tuple(range(n, 0, -1))


def transposition(n: int, i: int) -> tuple[int, ...]:
    """The adjacent swap (i, i+1), defined for 1 <= i <= n - 1."""
    if not 1 <= i < n:
        raise ValueError(f"transposition index {i} out of range for n={n}")
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def compose(x, y) -> tuple[int, ...]:
    """(x o y)(i) = x(y(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    return tuple(x[j - 1] for j in y)


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p, start=1):
        out[j - 1] = i
    return tuple(out)


def length(p) -> int:
    """Number of inversions, equal to the reduced word length."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def right_descents(p) -> set[int]:
    """Indices i with p(i) > p(i+1); the letters that can end p."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def left_descents(p) -> set[int]:
    """The letters that can start p; equals right_descents(inverse(p))."""
    inv = inverse(p)
    return {i for i in range(1, len(p)) if inv[i - 1] > inv[i]}


def reduced_word(p) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_l) with sigma_{i_1} o ... o sigma_{i_l} = p."""
    n = len(p)
    q = list(p)
    stripped = []
    while True:
        for i in range(1, n):
            if q[i - 1] > q[i]:
                q[i - 1], q[i] = q[i], q[i - 1]
                stripped.append(i)
                break
        else:
            break
    return tuple(reversed(stripped))
