"""Unimodular 2x2 lattice: classification, roots of -Id, reduction certificates.

Brute-force oracles live in this file: root enumeration by scanning all
integer matrices in a box (with its own multiplication), and class membership
by a breadth-first conjugation orbit search with capped entries.
"""

import random
from collections import deque

import pytest

from twistkit import sl2
from twistkit.sl2 import (
    CANONICAL_ELLIPTIC,
    GEN_A,
    GEN_B,
    IDENTITY,
    MINUS_IDENTITY,
    QUARTER_TURN,
    SIXTH_TURN,
    THIRD_TURN,
    Mat2,
    MatKind,
    classify,
    conjugate_family,
    evaluate_generator_word,
    reduce_elliptic,
    roots_of_minus_identity,
    translation,
    word_from_matrix,
)
from twistkit.braid import BraidWord


# ---------------------------------------------------------------- oracles

def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def brute_roots(power, bound):
    """All M with entries in [-bound, bound], det 1 and M^power = -Id."""
    found = set()
    span = range(-bound, bound + 1)
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    if a * d - b * c != 1:
                        continue
                    m = (a, b, c, d)
                    acc = m
                    for _ in range(power - 1):
                        acc = _mul(acc, m)
                    if acc == (-1, 0, 0, -1):
                        found.add(m)
    return found


def orbit_canonicals(m, cap=12):
    """Canonical representatives reachable by capped conjugation moves."""
    start = m.entries()
    conjugators = []
    for g in (GEN_A, GEN_B):
        for h in (g, g.inv()):
            conjugators.append((h.entries(), h.inv().entries()))
    seen = {start}
    queue = deque([start])
    hits = set()
    targets = {k.entries(): k for k in CANONICAL_ELLIPTIC}
    while queue:
        cur = queue.popleft()
        if cur in targets:
            hits.add(targets[cur])
        for left, right in conjugators:
            nxt = _mul(left, _mul(cur, right))
            if nxt not in seen and max(map(abs, nxt)) <= cap:
                seen.add(nxt)
                queue.append(nxt)
    return hits


# ---------------------------------------------------------------- matrices

def test_matrix_validation():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat2(1, 2, 3, 4)
    with pytest.raises(ValueError):
        Mat2(1.0, 0, 0, 1)


def test_matrix_algebra():
    m = Mat2(2, 1, 1, 1)
    assert m * m.inv() == IDENTITY
    assert m.inv() * m == IDENTITY
    assert m ** 0 == IDENTITY
    assert m ** -2 == (m * m).inv()
    assert (-IDENTITY) == MINUS_IDENTITY
    assert m.trace() == 3


def test_generator_products():
    assert GEN_A == Mat2(1, 1, 0, 1)
    assert GEN_B == Mat2(1, 0, -1, 1)
    assert GEN_A * GEN_B * GEN_A == QUARTER_TURN
    assert GEN_B * GEN_A * GEN_B == QUARTER_TURN
    assert GEN_A * GEN_B == SIXTH_TURN
    assert QUARTER_TURN ** 2 == MINUS_IDENTITY
    assert SIXTH_TURN ** 3 == MINUS_IDENTITY
    assert SIXTH_TURN ** 2 == THIRD_TURN
    assert (GEN_A * GEN_B) ** 6 == IDENTITY


def test_classify():
    assert classify(IDENTITY).kind is MatKind.IDENTITY
    assert classify(MINUS_IDENTITY).kind is MatKind.MINUS_IDENTITY
    assert classify(GEN_A).kind is MatKind.PARABOLIC
    assert classify(Mat2(-1, 0, 1, -1)).kind is MatKind.PARABOLIC
    assert classify(Mat2(2, 1, 1, 1)).kind is MatKind.HYPERBOLIC
    for m, order in ((QUARTER_TURN, 4), (SIXTH_TURN, 6), (THIRD_TURN, 3)):
        got = classify(m)
        assert got.kind is MatKind.ELLIPTIC and got.order == order
        got = classify(m.inv())
        assert got.kind is MatKind.ELLIPTIC and got.order == order


def test_classified_orders_are_exact():
    for m in (QUARTER_TURN, SIXTH_TURN, THIRD_TURN, QUARTER_TURN.inv()):
        order = classify(m).order
        assert m ** order == IDENTITY
        assert all(m ** j != IDENTITY for j in range(1, order))


# ---------------------------------------------------------------- roots

def test_square_roots_bound_one():
    assert roots_of_minus_identity(2, 1) == (Mat2(0, -1, 1, 0), Mat2(0, 1, -1, 0))
    assert roots_of_minus_identity(2, 0) == ()


def test_cubic_roots_bound_one():
    assert roots_of_minus_identity(3, 1) == (
        Mat2(-1, 0, 0, -1),
        Mat2(0, -1, 1, 1),
        Mat2(0, 1, -1, 1),
        Mat2(1, -1, 1, 0),
        Mat2(1, 1, -1, 0),
    )


def test_roots_argument_validation():
    with pytest.raises(ValueError):
        roots_of_minus_identity(4, 3)
    with pytest.raises(ValueError):
        roots_of_minus_identity(2, -1)


def test_roots_sound():
    for power in (2, 3):
        for m in roots_of_minus_identity(power, 7):
            assert m ** power == MINUS_IDENTITY
            assert max(map(abs, m.entries())) <= 7


def test_roots_complete_against_brute_force():
    for power in (2, 3):
        for bound in (1, 2, 3):
            got = {m.entries() for m in roots_of_minus_identity(power, bound)}
            assert got == brute_roots(power, bound)


# ---------------------------------------------------------------- reduction

def test_reduce_frozen_examples():
    cert = reduce_elliptic(Mat2(-1, 2, -1, 1))
    assert cert.canonical == QUARTER_TURN
    # [0 -1; 1 1] is the transpose of the sixth turn but lies in the class of
    # the *inverse*: conjugating the sixth turn to its transpose would need
    # a^2 + ab + b^2 = -1, while translation(1) visibly does the job for the
    # inverse.  (Transpose-conjugacy is a GL2 fact, not an SL2 one.)
    cert = reduce_elliptic(Mat2(0, -1, 1, 1))
    assert cert.canonical == SIXTH_TURN.inv()
    assert translation(1) * Mat2(0, -1, 1, 1) * translation(-1) == SIXTH_TURN.inv()


def test_reduce_minus_identity():
    cert = reduce_elliptic(MINUS_IDENTITY)
    assert cert.canonical == MINUS_IDENTITY and cert.conjugator == IDENTITY


def test_reduce_rejects_nonelliptic():
    with pytest.raises(ValueError):
        reduce_elliptic(GEN_A)
    with pytest.raises(ValueError):
        reduce_elliptic(Mat2(2, 1, 1, 1))
    with pytest.raises(ValueError):
        reduce_elliptic(IDENTITY)


def test_reduce_off_table_is_a_value_error(monkeypatch):
    monkeypatch.setattr(sl2, "_REDUCED", {})
    with pytest.raises(ValueError, match="outside the table"):
        reduce_elliptic(QUARTER_TURN)


def test_reduce_certificates_verify():
    # The certificate type itself checks C * source * C^-1 == canonical, so a
    # successful construction is the proof; spot check anyway.
    cert = reduce_elliptic(Mat2(-1, 2, -1, 1))
    assert cert.conjugator * cert.source * cert.conjugator.inv() == cert.canonical


def test_reduce_recovers_class_of_random_conjugates():
    rng = random.Random(17)
    gens = (GEN_A, GEN_A.inv(), GEN_B, GEN_B.inv())
    for canonical in CANONICAL_ELLIPTIC:
        for _ in range(40):
            c = IDENTITY
            for _ in range(rng.randrange(0, 9)):
                c = c * rng.choice(gens)
            cert = reduce_elliptic(c * canonical * c.inv())
            assert cert.canonical == canonical


def test_reduction_agrees_with_orbit_oracle():
    for power, expected in ((2, {QUARTER_TURN, QUARTER_TURN.inv()}),
                            (3, {SIXTH_TURN, SIXTH_TURN.inv(), MINUS_IDENTITY})):
        for m in roots_of_minus_identity(power, 3):
            canonical = reduce_elliptic(m).canonical
            assert canonical in expected
            assert orbit_canonicals(m) == {canonical}


def test_conjugate_family():
    assert conjugate_family(QUARTER_TURN, 1) == Mat2(-1, 2, -1, 1)
    assert conjugate_family(QUARTER_TURN, 2) == Mat2(-2, 5, -1, 2)
    for m in range(-6, 7):
        member = conjugate_family(QUARTER_TURN, m)
        assert member == Mat2(-m, m * m + 1, -1, m)
        assert reduce_elliptic(member).canonical == QUARTER_TURN
    with pytest.raises(ValueError):
        conjugate_family(GEN_A, 1)


# ---------------------------------------------------------------- words

def test_word_from_matrix_basics():
    assert word_from_matrix(IDENTITY).letters == ()
    for m in (MINUS_IDENTITY, QUARTER_TURN, GEN_A, GEN_B, SIXTH_TURN):
        assert evaluate_generator_word(word_from_matrix(m)) == m


def test_word_from_matrix_checks_its_word(monkeypatch):
    monkeypatch.setattr(sl2, "evaluate_generator_word", lambda word: IDENTITY)
    with pytest.raises(ValueError, match="does not evaluate"):
        word_from_matrix(QUARTER_TURN)


def test_word_evaluation():
    # Letters 1 and 2 are the generators A and B.
    assert evaluate_generator_word(BraidWord(3, (1, 2, 1))) == QUARTER_TURN
    assert evaluate_generator_word(BraidWord(3, (1, -1))) == IDENTITY


def test_word_from_matrix_round_trip():
    rng = random.Random(97)
    gens = (GEN_A, GEN_A.inv(), GEN_B, GEN_B.inv())
    for _ in range(300):
        m = IDENTITY
        for _ in range(rng.randrange(0, 31)):
            m = m * rng.choice(gens)
        assert evaluate_generator_word(word_from_matrix(m)) == m
