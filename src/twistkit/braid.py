"""Braid words and Garside left normal forms.

A braid on n strands is spelled as a word in the Artin generators s_1..s_{n-1},
stored as signed indices (-i is the inverse of s_i).  Words multiply by
concatenation, left to right, and the permutation of a word is the matching
right-to-left composition of adjacent transpositions.

Every braid has a unique left normal form delta^p A_1 ... A_k where delta is
the positive half twist, each A_i is a permutation braid other than the
identity or delta, and consecutive factors are left weighted: every letter
that can start A_{i+1} can also end A_i.  Normal forms are computed by
rewriting inverse letters as delta^-1 times a positive complement, then
appending the resulting simple factors one at a time to a left-weighted
sequence.  Each append runs one right-to-left pass that left-weights the
adjacent pairs and stops at the first pair that does not change (Epstein et
al., Word Processing in Groups, ch. 9).

Two braids are equal exactly when their forms are equal.  Since delta^2
generates the center, they are equal modulo the center exactly when their
forms have the same factors and powers of the same parity; that pair is the
key compared by equals_mod_center.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators; letters are signed indices."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError("a braid group needs at least 2 strands")
        for letter in self.letters:
            if not 1 <= abs(letter) < self.strands:
                raise ValueError(
                    f"letter {letter} out of range for {self.strands} strands"
                )

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.strands != other.strands:
            raise ValueError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def inv(self) -> BraidWord:
        return BraidWord(self.strands, tuple(-t for t in reversed(self.letters)))

    def __pow__(self, m: int) -> BraidWord:
        base = self if m >= 0 else self.inv()
        return BraidWord(self.strands, base.letters * abs(m))

    def __len__(self) -> int:
        return len(self.letters)


def generator(strands: int, index: int) -> BraidWord:
    return BraidWord(strands, (index,))


def flip(word: BraidWord) -> BraidWord:
    """The mirror automorphism s_i -> s_{n-i}; conjugation by the half twist."""
    n = word.strands
    return BraidWord(n, tuple((n - abs(t)) * (1 if t > 0 else -1) for t in word.letters))


def permutation_of(word: BraidWord) -> tuple[int, ...]:
    """The underlying permutation, in one-line notation."""
    p = perms.identity(word.strands)
    for letter in word.letters:
        p = perms.compose(p, perms.transposition(word.strands, abs(letter)))
    return p


def half_twist_word(strands: int) -> BraidWord:
    """The positive half twist delta as the word s_1 (s_2 s_1) ... (s_{n-1} ... s_1)."""
    letters = []
    for i in range(1, strands):
        letters.extend(range(i, 0, -1))
    return BraidWord(strands, tuple(letters))


@dataclass(frozen=True)
class CanonicalForm:
    """Left normal form delta^power A_1 ... A_k, factors as permutations."""

    strands: int
    power: int
    factors: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors

    def is_central(self) -> bool:
        return not self.factors and self.power % 2 == 0

    def to_word(self) -> BraidWord:
        """Re-expand the form as a braid word."""
        n = self.strands
        delta = half_twist_word(n)
        word = delta ** self.power
        for factor in self.factors:
            word = word * BraidWord(n, perms.reduced_word(factor))
        return word

    def __str__(self) -> str:
        parts = [f"Δ^{self.power}"]
        parts.extend("[" + " ".join(map(str, f)) + "]" for f in self.factors)
        return " · ".join(parts)


def _left_weight(x, y):
    """Left-weight the pair of permutation braids (x, y); None if it already is.

    The largest prefix of y that keeps x simple, the meet of x^-1 delta and
    y, moves onto the end of x.  It is found one letter at a time: s_i can
    move when it starts y and x s_i is still simple.  Multiplying x on the
    right by s_i swaps entries i, i+1 of x, and taking s_i off the front of
    y swaps entries i, i+1 of y^-1, so both are bubbled together.
    """
    n = len(x)
    x = list(x)
    yinv = list(perms.inverse(y))
    moved = False
    i = 1
    while i < n:
        if yinv[i - 1] > yinv[i] and x[i - 1] < x[i]:
            x[i - 1], x[i] = x[i], x[i - 1]
            yinv[i - 1], yinv[i] = yinv[i], yinv[i - 1]
            moved = True
            # Only the swapped entries changed, so every position below
            # i - 1 is still blocked.
            if i > 1:
                i -= 1
        else:
            i += 1
    if not moved:
        return None
    return tuple(x), perms.inverse(yinv)


def _normalise_factors(n: int, factors: list[tuple[int, ...]]) -> tuple[int, list]:
    """Left normal form of a product of simple factors.

    Returns (leading delta count, remaining factors).  The factors are
    appended one at a time; each append left-weights the pairs from the
    right end leftward and stops at the first pair that does not change,
    since everything to its left is already left weighted.  Only the newly
    appended factor can be emptied, and deltas can only collect at the front.
    """
    ident = perms.identity(n)
    w0 = perms.reversal(n)
    out = []
    for factor in factors:
        if factor == ident:
            continue
        out.append(factor)
        j = len(out) - 1
        while j > 0:
            step = _left_weight(out[j - 1], out[j])
            if step is None:
                break
            out[j - 1], out[j] = step
            if out[j] == ident:
                del out[j]
            j -= 1
    power = 0
    while power < len(out) and out[power] == w0:
        power += 1
    return power, out[power:]


def left_normal_form(word: BraidWord) -> CanonicalForm:
    """The left normal form of a braid word.

    >>> str(left_normal_form(BraidWord(3, (1, 2, 1, 2))))
    'Δ^1 · [1 3 2]'
    >>> left_normal_form(BraidWord(3, (1, -1))).is_trivial()
    True
    """
    n = word.strands
    w0 = perms.reversal(n)
    # s_i is the factor t_i and s_i^-1 = delta^-1 (w0 t_i).  Pushing every
    # delta^-1 to the front conjugates the factors it passes by w0, which
    # sends t_i to t_{n-i} and w0 t_i to w0 t_{n-i}.
    positive = {i: perms.transposition(n, i) for i in range(1, n)}
    negative = {i: perms.compose(w0, t) for i, t in positive.items()}
    factors = []
    total = 0
    for letter in reversed(word.letters):
        i = abs(letter) if total % 2 == 0 else n - abs(letter)
        if letter > 0:
            factors.append(positive[i])
        else:
            factors.append(negative[i])
            total -= 1
    factors.reverse()
    extra, factors = _normalise_factors(n, factors)
    return CanonicalForm(n, total + extra, tuple(factors))


def mod_center_key(word: BraidWord) -> tuple:
    """The parity of the delta power and the factors of the normal form.

    Two words on the same strands share this key exactly when they agree
    modulo the center.
    """
    form = left_normal_form(word)
    return form.power % 2, form.factors


def equals(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words spell the same braid."""
    if u.strands != v.strands:
        raise ValueError("strand count mismatch")
    return left_normal_form(u) == left_normal_form(v)


def equals_mod_center(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words agree up to a power of the central full twist."""
    if u.strands != v.strands:
        raise ValueError("strand count mismatch")
    return mod_center_key(u) == mod_center_key(v)
