"""Text formats for braid words and 2x2 integer matrices.

Word grammar: whitespace-separated tokens `s<i>` (generator) and `S<i>`
(inverse); `f<i>`/`F<i>` are accepted as synonyms for contexts where the
generators are written f_1, ..., f_m.  The one-letter aliases a, b, c
(and A, B, C for inverses) stand for the first three generators and are
enabled only on four strands.  A parenthesized group may carry an
integer power, as in `(s1 s2)^-3`; a bare group means power one.  Every
group, and the whole word, may expand to at most MAX_WORD_LETTERS letters;
the limit is checked before the letters are built.

>>> parse_word("(a b c)^2", 4).letters
(1, 2, 3, 1, 2, 3)
"""

from __future__ import annotations

import json

from . import sl2
from .braid import BraidWord

_ALIASES = {"a": 1, "b": 2, "c": 3, "A": -1, "B": -2, "C": -3}

MAX_WORD_LETTERS = 10**6


class WordSyntaxError(ValueError):
    """Malformed word text; column is 1-based."""

    def __init__(self, column: int, message: str):
        super().__init__(f"column {column}: {message}")
        self.column = column


def _invert(letters: list[int]) -> list[int]:
    return [-x for x in reversed(letters)]


def _grow(letters: list[int], block: list[int], times: int, column: int):
    """Append block times over, refusing to pass MAX_WORD_LETTERS."""
    if len(letters) + len(block) * times > MAX_WORD_LETTERS:
        raise WordSyntaxError(column, f"word expands past {MAX_WORD_LETTERS} letters")
    letters.extend(block * times if block else ())


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse word text into a braid word on the given strand count.

    >>> parse_word("s1 S2", 4)
    BraidWord(strands=4, letters=(1, -2))
    """
    if strands < 2:
        raise ValueError("strands must be at least 2")
    # frames hold the letters of each open parenthesized group; the
    # bottom frame collects the whole word
    frames: list[tuple[list[int], int]] = [([], 0)]
    pos = 0
    end = len(text)
    while pos < end:
        ch = text[pos]
        col = pos + 1
        if ch.isspace():
            pos += 1
        elif ch in "sSfF":
            start = pos + 1
            stop = start
            while stop < end and text[stop].isdigit():
                stop += 1
            if stop == start:
                raise WordSyntaxError(col, f"generator token {ch!r} needs an index")
            index = int(text[start:stop])
            if not 1 <= index <= strands - 1:
                raise WordSyntaxError(
                    col, f"generator index {index} out of range 1..{strands - 1}")
            _grow(frames[-1][0], [index if ch.islower() else -index], 1, col)
            pos = stop
        elif ch in _ALIASES:
            if strands != 4:
                raise WordSyntaxError(
                    col, f"alias {ch!r} is only defined on 4 strands")
            _grow(frames[-1][0], [_ALIASES[ch]], 1, col)
            pos += 1
        elif ch == "(":
            frames.append(([], col))
            pos += 1
        elif ch == ")":
            if len(frames) == 1:
                raise WordSyntaxError(col, "unbalanced ')'")
            group, _ = frames.pop()
            pos += 1
            power = 1
            caret = col
            if pos < end and text[pos] == "^":
                caret = pos + 1
                start = pos + 1
                if start < end and text[start] == "-":
                    start += 1
                stop = start
                while stop < end and text[stop].isdigit():
                    stop += 1
                if stop == start:
                    raise WordSyntaxError(caret, "'^' needs an integer exponent")
                power = int(text[pos + 1:stop])
                pos = stop
            block = group if power >= 0 else _invert(group)
            _grow(frames[-1][0], block, abs(power), caret)
        else:
            raise WordSyntaxError(col, f"unexpected character {ch!r}")
    if len(frames) > 1:
        raise WordSyntaxError(frames[-1][1], "unclosed '('")
    return BraidWord(strands, tuple(frames[0][0]))


def format_word(word: BraidWord) -> str:
    """Inverse of parse_word, one plain token per letter."""
    return " ".join(f"s{x}" if x > 0 else f"S{-x}" for x in word.letters)


def parse_matrix(text: str) -> sl2.Mat2:
    """Parse `[[a,b],[c,d]]` (whitespace allowed) into a matrix."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"bad matrix literal at column {err.colno}: {err.msg}")
    if (
        not isinstance(data, list)
        or len(data) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in data)
    ):
        raise ValueError("matrix text must have the shape [[a,b],[c,d]]")
    entries = [x for row in data for x in row]
    if any(isinstance(x, bool) or not isinstance(x, int) for x in entries):
        raise ValueError("matrix entries must be integers")
    return sl2.Mat2(*entries)


def format_matrix(m: sl2.Mat2) -> str:
    return str(m)
