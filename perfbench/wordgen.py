"""Seeded braid-word jobs with verdicts known by construction.

This generator belongs to the benchmark, so that a refactor of the test
helpers cannot change a workload.  A word is a list of signed generator
indices (-i is the inverse of s_i); the program only ever receives the
text form.  The helpers at the bottom check a normal form against a word
with plain permutation arithmetic, independent of `twistkit.perms`.
"""

from __future__ import annotations

import random

# The (n, L) cells of one word-problem cycle: strands and base-word letters.
# Every cell gets an `nf` job and one plain `eq` job.  On 12 strands L = 150
# is left out: its `eq` job alone takes seconds, and a cycle must stay short
# enough to repeat several times in one run.  `--mod-center` jobs normalise
# u * v^-1, which is 2L + n(n-1) letters for a Delta^{+-2} variant, so they
# run only on the smaller cells of MOD_CENTER_CELLS.
CELLS = [(n, L) for n in (4, 6, 8, 12) for L in (50, 100, 150) if (n, L) != (12, 150)]
MOD_CENTER_CELLS = [(4, 50), (4, 100), (6, 50), (8, 50)]


def random_letters(rng: random.Random, n: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(length)]


def text(letters) -> str:
    return " ".join(f"s{x}" if x > 0 else f"S{-x}" for x in letters)


def equal_variant(rng: random.Random, letters: list[int], n: int, moves: int) -> list[int]:
    """Another spelling of the same braid: free insertions, braid moves, far swaps."""
    out = list(letters)
    for _ in range(moves):
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.choice((1, -1)) * rng.randrange(1, n)
            at = rng.randrange(len(out) + 1)
            out[at:at] = [i, -i]
            continue
        if kind == 1:
            # s_i s_j s_i = s_j s_i s_j for |i - j| = 1, same signs
            spots = [
                p for p in range(len(out) - 2)
                if out[p] == out[p + 2]
                and (out[p] > 0) == (out[p + 1] > 0)
                and abs(abs(out[p]) - abs(out[p + 1])) == 1
            ]
            if spots:
                p = rng.choice(spots)
                out[p:p + 3] = [out[p + 1], out[p], out[p + 1]]
            continue
        spots = [p for p in range(len(out) - 1) if abs(abs(out[p]) - abs(out[p + 1])) >= 2]
        if spots:
            p = rng.choice(spots)
            out[p], out[p + 1] = out[p + 1], out[p]
    return out


def full_twist_text(n: int, sign: int) -> str:
    """Delta^{+-2} as the group (s1 ... s_{n-1})^{+-n}."""
    return f"({text(range(1, n))})^{sign * n}"


def half_twist_text(n: int) -> str:
    """Delta as (s1 ... s_{n-1}) (s1 ... s_{n-2}) ... (s1)."""
    return " ".join(f"({text(range(1, top))})" for top in range(n, 1, -1))


def _splice(letters: list[int], at: int, middle: str) -> str:
    return " ".join(part for part in (text(letters[:at]), middle, text(letters[at:])) if part)


def nf_job(n: int, letters: list[int]) -> dict:
    return {"argv": ["nf", "--n", str(n), "--format", "json", text(letters)],
            "kind": "nf", "n": n, "letters": letters}


def eq_job(rng: random.Random, n: int, L: int, kind: str) -> dict:
    """One `eq` job on a random word u of L letters.

    kind is one of: `equal` (an equal variant), `append` (one extra letter,
    so exponent sums differ), `center` (a variant times Delta^{+-2}, equal
    mod center), `half` (Delta spliced in, never central since its exponent
    sum is n(n-1)/2).
    """
    u = random_letters(rng, n, L)
    v = equal_variant(rng, u, n, L // 5)
    if kind == "equal":
        right, expected = text(v), True
    elif kind == "append":
        right, expected = text(v + random_letters(rng, n, 1)), False
    elif kind == "center":
        right, expected = _splice(v, rng.randrange(len(v) + 1),
                                  full_twist_text(n, rng.choice((1, -1)))), True
    elif kind == "half":
        right, expected = _splice(v, rng.randrange(len(v) + 1), half_twist_text(n)), False
    else:
        raise ValueError(f"unknown eq kind {kind!r}")
    left = text(u)
    if rng.random() < 0.5:
        left, right = right, left
    flags = ["--mod-center"] if kind in ("center", "half") else []
    return {"argv": ["eq", "--n", str(n), "--format", "json", *flags, left, right],
            "kind": kind, "n": n, "expected": expected}


def cycle(seed: int, index: int) -> list[dict]:
    """The jobs of one cycle, in a seeded order; the same (seed, index) gives the same jobs."""
    rng = random.Random(f"word-problem:{seed}:{index}")
    jobs = []
    # the verdict kinds alternate by cycle, so two cycles hold each once per cell
    for i, (n, L) in enumerate(CELLS):
        jobs.append(nf_job(n, random_letters(rng, n, L)))
        jobs.append(eq_job(rng, n, L, ("equal", "append")[(i + index) % 2]))
    for i, (n, L) in enumerate(MOD_CENTER_CELLS):
        jobs.append(eq_job(rng, n, L, ("center", "half")[(i + index) % 2]))
    rng.shuffle(jobs)
    return jobs


def oracle_sample(seed: int, count: int) -> list[dict]:
    """Short `nf` jobs (n <= 5, L <= 12) for the Artin-action cross-check."""
    rng = random.Random(f"oracle:{seed}")
    return [nf_job(n, random_letters(rng, n, rng.randrange(1, 13)))
            for n in (rng.randrange(3, 6) for _ in range(count))]


# ------------------------------------------------- checking a normal form

def _compose(x, y):
    return tuple(x[j - 1] for j in y)


def _transposition(n: int, i: int):
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p, start=1):
        out[j - 1] = i
    return tuple(out)


def _descents(p) -> set[int]:
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def _inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def reduced_word(p) -> list[int]:
    """A positive word for the permutation braid p (bubble sort)."""
    q, stripped = list(p), []
    swapped = True
    while swapped:
        swapped = False
        for i in range(1, len(q)):
            if q[i - 1] > q[i]:
                q[i - 1], q[i] = q[i], q[i - 1]
                stripped.append(i)
                swapped = True
                break
    return stripped[::-1]


def form_letters(n: int, power: int, factors) -> list[int]:
    """The word Delta^power A_1 ... A_k spelled out letter by letter."""
    delta = [i for top in range(n, 1, -1) for i in range(1, top)]
    head = delta * power if power >= 0 else [-x for x in reversed(delta)] * -power
    return head + [x for f in factors for x in reduced_word(f)]


def normal_form_problems(n: int, letters, power: int, factors) -> list[str]:
    """Necessary conditions on a left normal form of `letters`; [] when all hold.

    Factors are proper permutation braids, consecutive pairs are left
    weighted, and the form has the word's exponent sum and permutation.
    """
    ident, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    factors = [tuple(f) for f in factors]
    problems = []
    for f in factors:
        if sorted(f) != list(ident) or f in (ident, w0):
            problems.append(f"bad factor {f}")
    for x, y in zip(factors, factors[1:]):
        if not _descents(_inverse(y)) <= _descents(x):
            problems.append(f"pair {x} {y} is not left weighted")
    exponent = sum(1 if t > 0 else -1 for t in letters)
    if exponent != power * n * (n - 1) // 2 + sum(_inversions(f) for f in factors):
        problems.append("exponent sum differs")
    perm = ident
    for t in letters:
        perm = _compose(perm, _transposition(n, abs(t)))
    form_perm = w0 if power % 2 else ident
    for f in factors:
        form_perm = _compose(form_perm, f)
    if perm != form_perm:
        problems.append("permutation differs")
    return problems
