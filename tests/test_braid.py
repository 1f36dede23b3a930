"""Garside left normal forms, checked against independent oracles.

The permutation oracle recomputes word permutations pointwise; the free-group
action (twistkit.artin) decides braid equality without touching the
normal-form code path; the sweep oracle (braid_oracle) is the original
quadratic normal-form algorithm, compared factor for factor.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistkit import perms
from twistkit.artin import artin_action
from twistkit.braid import (
    BraidWord,
    CanonicalForm,
    equals,
    equals_mod_center,
    flip,
    half_twist_word,
    left_normal_form,
    permutation_of,
)
from braid_oracle import sweep_normal_form
from wordgen import conjugate_square_word, equal_variant, random_word


def _perm_oracle(word):
    # sigma_{l1} o ... o sigma_{lm} evaluated pointwise, no tuple composition.
    out = []
    for point in range(1, word.strands + 1):
        for letter in reversed(word.letters):
            i = abs(letter)
            if point == i:
                point = i + 1
            elif point == i + 1:
                point = i
        out.append(point)
    return tuple(out)


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(4, (4,))
    with pytest.raises(ValueError):
        BraidWord(4, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (1, 2)) * BraidWord(4, (1,))


def test_word_algebra():
    w = BraidWord(4, (1, -2, 3))
    assert w.inv().letters == (-3, 2, -1)
    assert (w * w.inv()).letters == (1, -2, 3, -3, 2, -1)
    assert (w ** 2).letters == (1, -2, 3, 1, -2, 3)
    assert (w ** -1) == w.inv()
    assert (w ** 0) == BraidWord(4)
    assert flip(w).letters == (3, -2, 1)


def test_permutation_examples():
    assert permutation_of(BraidWord(4, (1, 2, 3))) == (2, 3, 4, 1)
    assert permutation_of(BraidWord(4, (3, 1, 2, 3, 1, 2))) == (4, 3, 2, 1)
    assert permutation_of(BraidWord(4, ())) == (1, 2, 3, 4)


def test_permutation_against_oracle():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(2, 7)
        w = random_word(rng, n, 12)
        assert permutation_of(w) == _perm_oracle(w)


def test_half_twist_word():
    for n in range(2, 7):
        d = half_twist_word(n)
        assert len(d.letters) == n * (n - 1) // 2
        assert all(letter > 0 for letter in d.letters)
        assert permutation_of(d) == perms.reversal(n)


def test_normal_form_frozen_examples():
    # A positive 6-letter word with reversal permutation is the half twist.
    assert left_normal_form(BraidWord(4, (3, 1, 2, 3, 1, 2))) == CanonicalForm(4, 1, ())
    # The full twist.
    assert left_normal_form(BraidWord(4, (1, 2, 3)) ** 4) == CanonicalForm(4, 2, ())
    # A single permutation-braid factor.
    assert left_normal_form(BraidWord(4, (1, 2, 1))) == CanonicalForm(
        4, 0, ((3, 2, 1, 4),)
    )
    # One inverse letter: delta^-1 times the complement braid.
    assert left_normal_form(BraidWord(4, (-1,))) == CanonicalForm(
        4, -1, ((3, 4, 2, 1),)
    )
    assert left_normal_form(BraidWord(4)) == CanonicalForm(4, 0, ())


def test_normal_form_factors_are_left_weighted():
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randrange(2, 6)
        nf = left_normal_form(random_word(rng, n, 12))
        w0 = perms.reversal(n)
        ident = perms.identity(n)
        for factor in nf.factors:
            assert factor != ident and factor != w0
        for left, right in zip(nf.factors, nf.factors[1:]):
            assert perms.left_descents(right) <= perms.right_descents(left)


def test_normal_form_reexpansion_matches_oracle():
    rng = random.Random(59)
    for _ in range(150):
        n = rng.randrange(2, 6)
        w = random_word(rng, n, 12)
        nf = left_normal_form(w)
        assert artin_action(nf.to_word()) == artin_action(w)


def test_normal_form_idempotent():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randrange(2, 6)
        nf = left_normal_form(random_word(rng, n, 12))
        assert left_normal_form(nf.to_word()) == nf


def test_equals_agrees_with_action_oracle():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randrange(2, 6)
        u = random_word(rng, n, 10)
        v = random_word(rng, n, 10)
        assert equals(u, v) == (artin_action(u) == artin_action(v))
    for _ in range(100):
        n = rng.randrange(2, 6)
        u = random_word(rng, n, 8)
        v = equal_variant(rng, u)
        assert equals(u, v)
        assert artin_action(u) == artin_action(v)


def test_equals_agrees_with_action_oracle_longer_words():
    rng = random.Random(20261017)
    for _ in range(300):
        n = rng.randint(2, 7)
        u = random_word(rng, n, 30)
        v = random_word(rng, n, 30)
        assert equals(u, v) == (artin_action(u) == artin_action(v))
    for _ in range(100):
        n = rng.randint(2, 7)
        u = random_word(rng, n, 24)
        v = equal_variant(rng, u, moves=3)
        assert equals(u, v)
        assert artin_action(u) == artin_action(v)


@st.composite
def _words_with_central_splice(draw):
    """Words on n <= 8 strands of up to 60 letters, some with delta^+-2 spliced in."""
    n = draw(st.integers(2, 8))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    letters = draw(st.lists(letter, max_size=60))
    exponent = draw(st.sampled_from((0, 2, -2)))
    if exponent:
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = (half_twist_word(n) ** exponent).letters
    return BraidWord(n, tuple(letters))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_words_with_central_splice())
def test_normal_form_matches_sweep_oracle(word):
    assert left_normal_form(word) == sweep_normal_form(word)


def test_keyed_mod_center_agrees_with_quotient():
    rng = random.Random(97)
    for k in range(300):
        n = rng.randrange(2, 7)
        u = random_word(rng, n, 16)
        if k % 2:
            # Half the pairs differ by a central power, spliced anywhere.
            d2 = half_twist_word(n) ** rng.choice((2, -2, 4))
            at = rng.randrange(len(u.letters) + 1)
            v = equal_variant(
                rng, BraidWord(n, u.letters[:at] + d2.letters + u.letters[at:]))
        else:
            v = random_word(rng, n, 16)
        central = left_normal_form(u * v.inv()).is_central()
        assert equals_mod_center(u, v) == central
        assert central or k % 2 == 0


def test_equals_requires_matching_strands():
    with pytest.raises(ValueError):
        equals(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_half_twist_commutation_law():
    # delta w = flip(w) delta for every word w.
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randrange(2, 6)
        w = random_word(rng, n, 8)
        d = half_twist_word(n)
        assert equals(d * w, flip(w) * d)


def test_center_law():
    rng = random.Random(89)
    for _ in range(60):
        n = rng.randrange(2, 6)
        w = random_word(rng, n, 8)
        d2 = half_twist_word(n) ** 2
        assert equals(d2 * w, w * d2)
        assert equals_mod_center(w * d2, w)
        assert equals_mod_center(w * d2.inv(), w)


def test_half_twist_facts_in_b4():
    a, b, c = BraidWord(4, (1,)), BraidWord(4, (2,)), BraidWord(4, (3,))
    cab, abc = c * a * b, a * b * c
    assert left_normal_form(cab ** 2) == CanonicalForm(4, 1, ())
    assert left_normal_form(abc ** 2) != CanonicalForm(4, 1, ())
    assert equals(abc ** 2, c.inv() * (cab ** 2) * c)
    assert equals(abc ** 4, cab ** 4)
    assert equals_mod_center(abc ** 4, BraidWord(4))
    assert equals(b * half_twist_word(4), half_twist_word(4) * b)
    # The full twist on three strands is not central on four.
    assert not equals_mod_center(BraidWord(4, (1, 2)) ** 6, BraidWord(4))


def test_conjugate_square_roots_small():
    half = CanonicalForm(4, 1, ())
    words = {m: conjugate_square_word(m) for m in range(-3, 4)}
    for w in words.values():
        assert left_normal_form(w ** 2) == half
        assert left_normal_form(w.inv() ** 2) == CanonicalForm(4, -1, ())
    items = list(words.items())
    for i, (m, u) in enumerate(items):
        for m2, v in items[i + 1:]:
            assert not equals_mod_center(u, v), (m, m2)


def test_canonical_form_str():
    assert str(CanonicalForm(4, 2, ())) == "Δ^2"
    assert str(CanonicalForm(4, 0, ((3, 2, 1, 4),))) == "Δ^0 · [3 2 1 4]"
    assert (
        str(CanonicalForm(4, -1, ((3, 4, 2, 1), (2, 1, 3, 4))))
        == "Δ^-1 · [3 4 2 1] · [2 1 3 4]"
    )
