"""Tests for the word and matrix text formats."""

import random

import pytest

from twistkit import sl2, words
from twistkit.braid import BraidWord


def test_parse_plain_letters():
    assert words.parse_word("s1 S1", 4) == BraidWord(4, (1, -1))
    assert words.parse_word("s1 s2 s3", 4) == BraidWord(4, (1, 2, 3))
    assert words.parse_word("f2 F1", 6) == BraidWord(6, (2, -1))
    assert words.parse_word("s11", 13) == BraidWord(13, (11,))
    assert words.parse_word("", 4) == BraidWord(4)
    assert words.parse_word("   ", 4) == BraidWord(4)


def test_parse_aliases_need_four_strands():
    assert words.parse_word("a b c", 4) == BraidWord(4, (1, 2, 3))
    assert words.parse_word("A B C", 4) == BraidWord(4, (-1, -2, -3))
    assert words.parse_word("c a b", 4) == BraidWord(4, (3, 1, 2))
    with pytest.raises(words.WordSyntaxError):
        words.parse_word("a", 5)
    with pytest.raises(words.WordSyntaxError):
        words.parse_word("B", 3)


def test_parse_powers():
    assert words.parse_word("(a b c)^4", 4) == BraidWord(4, (1, 2, 3)) ** 4
    assert len(words.parse_word("(a b c)^4", 4)) == 12
    assert words.parse_word("(s1 s2)^-2", 4) == BraidWord(4, (1, 2)) ** -2
    assert words.parse_word("(s1)^0", 4) == BraidWord(4)
    assert words.parse_word("s1 (s2 s1)^2 S2", 4) == BraidWord(4, (1, 2, 1, 2, 1, -2))
    # bare parentheses group with no power
    assert words.parse_word("(s1 s2) s3", 4) == BraidWord(4, (1, 2, 3))
    nested = words.parse_word("((s1 s2)^2 s3)^2", 4)
    inner = BraidWord(4, (1, 2)) ** 2 * BraidWord(4, (3,))
    assert nested == inner ** 2


def test_word_length_limit():
    limit = words.MAX_WORD_LETTERS
    assert len(words.parse_word(f"(s1 S1)^{limit // 2}", 3)) == limit
    # empty groups take any power
    assert words.parse_word("()^99999999999999999999", 3) == BraidWord(3)
    for text, column in [
        (f"(s1 S1)^{limit // 2} s2", 16),  # one plain letter too many
        (f"(s1 S1)^-{limit // 2 + 1}", 8),  # at the caret
        (f"s2 ((s1 S1)^{limit // 2})", 19),  # at a bare ')'
    ]:
        with pytest.raises(words.WordSyntaxError) as info:
            words.parse_word(text, 3)
        assert info.value.column == column, text


def test_error_columns_are_one_based():
    with pytest.raises(words.WordSyntaxError) as info:
        words.parse_word("s9", 4)
    assert info.value.column == 1
    assert "out of range" in str(info.value)

    with pytest.raises(words.WordSyntaxError) as info:
        words.parse_word("s1 t2", 4)
    assert info.value.column == 4

    with pytest.raises(words.WordSyntaxError) as info:
        words.parse_word("s1 (s2 (s3", 4)
    assert info.value.column == 8


def test_parse_rejects_malformed_text():
    bad = ["s0", "s-1", "s", "(s1 s2", "s1)", "^2", "(s1)^", "(s1)^x", "s1 ^2"]
    for text in bad:
        with pytest.raises(words.WordSyntaxError):
            words.parse_word(text, 4)
    with pytest.raises(ValueError):
        words.parse_word("s1", 1)


def test_format_word_round_trip():
    assert words.format_word(BraidWord(4, (1, -2, 3))) == "s1 S2 s3"
    assert words.format_word(BraidWord(4)) == ""
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 7)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 12))
        )
        w = BraidWord(n, letters)
        assert words.parse_word(words.format_word(w), n) == w


def test_parse_matrix():
    assert words.parse_matrix("[[0,1],[-1,0]]") == sl2.QUARTER_TURN
    assert words.parse_matrix(" [[0, 1], [-1, 1]] ") == sl2.SIXTH_TURN
    assert words.parse_matrix(words.format_matrix(sl2.GEN_B)) == sl2.GEN_B


def test_parse_matrix_rejects_bad_input():
    bad = [
        "[[0,1],[-1,0]",          # not json
        "[[0,1],[-1,0],[1,1]]",   # wrong shape
        "[[0,1,2],[-1,0,3]]",     # wrong row length
        "[[0.5,1],[-1,0]]",       # non-integer
        "[[true,1],[-1,0]]",      # bool is not an entry
        "[[1,1],[1,1]]",          # determinant 0
        "7",
    ]
    for text in bad:
        with pytest.raises(ValueError):
            words.parse_matrix(text)
