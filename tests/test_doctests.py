"""Run the inline doctest examples shipped in the library modules."""

import doctest

from twistkit import artin, braid, perms, symplectic, words


def test_doctests():
    for module in (perms, artin, braid, symplectic, words):
        result = doctest.testmod(module, verbose=False)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
