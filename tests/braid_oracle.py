"""Reference left normal form: the global left-weighting sweep.

This is the original normal-form algorithm, kept as an independent oracle
for twistkit.braid.  It rewrites each letter as one simple factor, pushes
the delta powers to the front, then sweeps left to right over all adjacent
factor pairs, moving one letter at a time, until a whole sweep moves
nothing.  It is quadratic in the word length, so tests run it on short words.
"""

from twistkit import perms
from twistkit.braid import CanonicalForm


def sweep_normalise_factors(n, factors):
    """Left-weighting sweeps; returns (leading delta count, factor list).

    Each transfer moves one starting letter of a factor onto the end of its
    left neighbour, so weight migrates leftward until every adjacent pair is
    left weighted.  Identity factors are dropped between sweeps and the deltas
    that pile up at the front are stripped into the power.
    """
    ident = perms.identity(n)
    w0 = perms.reversal(n)
    factors = [f for f in factors if f != ident]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            movable = perms.left_descents(y) - perms.right_descents(x)
            while movable:
                t = perms.transposition(n, min(movable))
                x = perms.compose(x, t)
                y = perms.compose(t, y)
                changed = True
                movable = perms.left_descents(y) - perms.right_descents(x)
            factors[i], factors[i + 1] = x, y
        if changed:
            factors = [f for f in factors if f != ident]
    power = 0
    while factors and factors[0] == w0:
        factors.pop(0)
        power += 1
    return power, factors


def sweep_normal_form(word):
    """The left normal form of a braid word, by global sweeps."""
    n = word.strands
    w0 = perms.reversal(n)
    factors = []
    delta_powers = []
    for letter in word.letters:
        t = perms.transposition(n, abs(letter))
        if letter > 0:
            factors.append(t)
            delta_powers.append(0)
        else:
            # s_i^-1 = delta^-1 (w0 sigma_i), the complement being positive.
            factors.append(perms.compose(w0, t))
            delta_powers.append(-1)
    # Push the delta powers to the front; delta^-1 P delta has permutation
    # w0 p w0 and the conjugation has order two.
    total = 0
    for i in range(len(factors) - 1, -1, -1):
        if total % 2:
            factors[i] = perms.compose(w0, perms.compose(factors[i], w0))
        total += delta_powers[i]
    extra, factors = sweep_normalise_factors(n, factors)
    return CanonicalForm(n, total + extra, tuple(factors))
