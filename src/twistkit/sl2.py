"""Exact arithmetic in SL(2,Z): trace classification, roots of -Id, reduction.

Matrices are integer 2x2 with determinant one.  The two shears

    A = [1 1; 0 1]    B = [1 0; -1 1]

generate the group; ABA = [0 1; -1 0] is the order-four quarter turn and
AB = [0 1; -1 1] the order-six sixth turn.  Square roots of -Id have trace 0
and shape [p q; r -p] with qr = -(p^2+1); cubic roots are -Id itself or have
trace 1 and shape [p q; r 1-p] with qr = -(p^2-p+1).

Elliptic elements are conjugated to a short list of canonical rotations by
moving their upper-half-plane fixed point into the usual fundamental domain
with exact rational steps, then finishing with a table lookup over the finite
set of matrices whose fixed point lies on the closed domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .braid import BraidWord


@dataclass(frozen=True)
class Mat2:
    """An integer matrix [[a, b], [c, d]] of determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for t in self.entries():
            if not isinstance(t, int):
                raise ValueError("entries must be integers")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> Mat2:
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> Mat2:
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, m: int) -> Mat2:
        base = self if m >= 0 else self.inv()
        out = IDENTITY
        for _ in range(abs(m)):
            out = out * base
        return out

    def trace(self) -> int:
        return self.a + self.d

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = Mat2(1, 0, 0, 1)
MINUS_IDENTITY = Mat2(-1, 0, 0, -1)
GEN_A = Mat2(1, 1, 0, 1)
GEN_B = Mat2(1, 0, -1, 1)
QUARTER_TURN = Mat2(0, 1, -1, 0)
SIXTH_TURN = Mat2(0, 1, -1, 1)
THIRD_TURN = Mat2(-1, 1, -1, 0)

#: Canonical class representatives of the torsion elements other than Id.
CANONICAL_ELLIPTIC = (
    MINUS_IDENTITY,
    QUARTER_TURN,
    QUARTER_TURN.inv(),
    SIXTH_TURN,
    SIXTH_TURN.inv(),
    THIRD_TURN,
    THIRD_TURN.inv(),
)


def translation(k: int) -> Mat2:
    return Mat2(1, k, 0, 1)


class MatKind(Enum):
    IDENTITY = "identity"
    MINUS_IDENTITY = "minus_identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MatrixClass:
    kind: MatKind
    order: int | None = None


def classify(m: Mat2) -> MatrixClass:
    """Trace trichotomy, with +-Id split off first."""
    if m == IDENTITY:
        return MatrixClass(MatKind.IDENTITY)
    if m == MINUS_IDENTITY:
        return MatrixClass(MatKind.MINUS_IDENTITY)
    t = m.trace()
    if abs(t) < 2:
        return MatrixClass(MatKind.ELLIPTIC, {0: 4, 1: 6, -1: 3}[t])
    if abs(t) == 2:
        return MatrixClass(MatKind.PARABOLIC)
    return MatrixClass(MatKind.HYPERBOLIC)


def roots_of_minus_identity(power: int, bound: int) -> tuple[Mat2, ...]:
    """All M with M^power = -Id and entries in [-bound, bound], sorted."""
    if power not in (2, 3):
        raise ValueError("power must be 2 or 3")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    found = []
    if power == 3 and bound >= 1:
        found.append(MINUS_IDENTITY)
    for p in range(-bound, bound + 1):
        if power == 2:
            s, t = -p, p * p + 1
        else:
            s, t = 1 - p, p * p - p + 1
        if abs(s) > bound:
            continue
        for q in range(-bound, bound + 1):
            if q == 0 or t % q:
                continue
            r = -(t // q)
            if abs(r) <= bound:
                found.append(Mat2(p, q, r, s))
    return tuple(sorted(found, key=Mat2.entries))


@dataclass(frozen=True)
class ReductionCertificate:
    """A conjugator C with C source C^-1 = canonical, verified on creation."""

    source: Mat2
    canonical: Mat2
    conjugator: Mat2

    def __post_init__(self):
        if self.conjugator * self.source * self.conjugator.inv() != self.canonical:
            raise ValueError("certificate does not verify")


def _reduced_table() -> dict[Mat2, tuple[Mat2, Mat2]]:
    # Elliptic matrices whose fixed point lies in the closed fundamental
    # domain: the stabilizers of i, of the corner rho = exp(i pi/3), and of
    # rho - 1.  The latter get one extra translation back to the corner.
    table = {}
    for k in CANONICAL_ELLIPTIC[1:]:
        table[k] = (k, IDENTITY)
    shift = translation(1)
    for k in CANONICAL_ELLIPTIC[3:]:
        table[shift.inv() * k * shift] = (k, shift)
    return table


_REDUCED = _reduced_table()


def reduce_elliptic(m: Mat2) -> ReductionCertificate:
    """Conjugate an elliptic matrix (or -Id) to its canonical representative.

    The fixed point of [p q; r s] in the upper half plane has real part
    (p-s)/2r and squared modulus -q/r, both exact rationals; translations
    center the real part and the quarter turn inverts while the modulus is
    below one.  Both steps shrink |r|, so the loop terminates with the fixed
    point on the closed fundamental domain and the table finishes the job.
    """
    kind = classify(m).kind
    if kind is MatKind.MINUS_IDENTITY:
        return ReductionCertificate(m, MINUS_IDENTITY, IDENTITY)
    if kind is not MatKind.ELLIPTIC:
        raise ValueError(f"matrix is {kind.value}, not elliptic")
    cur, conj = m, IDENTITY
    while True:
        x = Fraction(cur.a - cur.d, 2 * cur.c)
        if abs(x) > Fraction(1, 2):
            step = translation(-math.floor(x + Fraction(1, 2)))
        elif Fraction(-cur.b, cur.c) < 1:
            step = QUARTER_TURN
        else:
            break
        cur = step * cur * step.inv()
        conj = step * conj
    if cur not in _REDUCED:
        raise ValueError(f"reduction of {m} stopped at {cur}, outside the table")
    canonical, extra = _REDUCED[cur]
    return ReductionCertificate(m, canonical, extra * conj)


def conjugate_family(canonical: Mat2, m: int) -> Mat2:
    """The conjugate of a canonical representative by the translation m."""
    if canonical not in CANONICAL_ELLIPTIC:
        raise ValueError("not a canonical representative")
    return translation(m) * canonical * translation(-m)


_GENERATORS = {1: GEN_A, 2: GEN_B}


def evaluate_generator_word(word: BraidWord) -> Mat2:
    """Evaluate a word over the alphabet {A, B} (letters 1 and 2)."""
    out = IDENTITY
    for letter in word.letters:
        g = _GENERATORS[abs(letter)]
        out = out * (g if letter > 0 else g.inv())
    return out


def _nearest(x: int, y: int) -> int:
    q = x // y
    return q if abs(x - q * y) <= abs(x - (q + 1) * y) else q + 1


def word_from_matrix(m: Mat2) -> BraidWord:
    """Some word over {A, B} evaluating to m, by Euclid on the first column."""
    blocks: list[tuple[int, int]] = []
    a, b, c, d = m.entries()
    while c != 0:
        if a == 0:
            a, b = a + c, b + d
            blocks.append((1, -1))
            continue
        q = _nearest(c, a)
        if q == 0:
            k = _nearest(a, c)
            a, b = a - k * c, b - k * d
            blocks.append((1, k))
        else:
            c, d = c - q * a, d - q * b
            blocks.append((2, -q))
    # Determinant one forces a = d = +-1 here; -Id is (ABA)^2.
    if a == 1:
        if b:
            blocks.append((1, b))
    else:
        blocks.extend([(1, 1), (2, 1), (1, 2), (2, 1), (1, 1)])
        if b:
            blocks.append((1, -b))
    letters = []
    for index, exp in blocks:
        letters.extend([index if exp > 0 else -index] * abs(exp))
    word = BraidWord(3, tuple(letters))
    if evaluate_generator_word(word) != m:
        raise ValueError(f"word {word.letters} does not evaluate to {m}")
    return word
