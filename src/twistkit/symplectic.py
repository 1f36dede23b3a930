"""Integer symplectic action of twist products on a blocked surface.

The surface has genus n*k, viewed as n blocks of k handles.  Homology classes
are integer vectors over the basis a[1,1], b[1,1], ..., a[1,k], b[1,k],
a[2,1], ... (handle-major inside each block); the intersection form pairs
a[l,j] with b[l,j].  Each block carries the chain of 2k+1 classes a[l,1],
b[l,1], a[l,1]+a[l,2], b[l,2], ..., a[l,k], with consecutive intersection
+-1 and all other pairs zero.  A twist about a class c acts by the
transvection x -> x - <x, c> c (left) or its inverse (right).  The i-th
generator twists about the i-th chain class in every block at once,
right-handed in odd blocks and left-handed in even ones; with two blocks of
one handle this calibrates to diag(A^-1, A) and diag(B^-1, B) for the shears.

Each chain class lives inside one block, so the image of any word is
diag(B_odd, B_even, B_odd, ...) with just two 2k x 2k blocks: B_odd from the
right-handed twists, B_even from the left-handed ones.  Words are evaluated
on those two blocks and the full matrix is assembled at the end.  A chain
class c has at most two nonzero coordinates, so a letter, M -> M + s (M c)
(c^T J), changes at most two columns of a block.  Hence on homology only
"n = 1 or n >= 2" matters: a relation holds at one n >= 2 iff it holds at
all of them, and homology cannot tell the open column (2, k) from the braid
quotients at n >= 3 (demos/05_separation.py).  Matrices are lists of rows
of Python ints, so products stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SurfaceModel:
    """A genus blocks*handles surface split into identical blocks."""

    blocks: int
    handles: int

    def __post_init__(self):
        if self.blocks < 1 or self.handles < 1:
            raise ValueError("need at least one block and one handle")

    @property
    def genus(self) -> int:
        return self.blocks * self.handles

    @property
    def dim(self) -> int:
        return 2 * self.genus

    @property
    def chain_length(self) -> int:
        return 2 * self.handles + 1


def surface_model(blocks: int, handles: int) -> SurfaceModel:
    return SurfaceModel(blocks, handles)


def a_index(model: SurfaceModel, block: int, j: int) -> int:
    """Column of a[block, j] in the homology basis."""
    if not 1 <= block <= model.blocks or not 1 <= j <= model.handles:
        raise ValueError(f"no handle ({block}, {j}) in this model")
    return 2 * ((block - 1) * model.handles + (j - 1))


def b_index(model: SurfaceModel, block: int, j: int) -> int:
    return a_index(model, block, j) + 1


def identity_matrix(model: SurfaceModel) -> list[list[int]]:
    return [[int(i == j) for j in range(model.dim)] for i in range(model.dim)]


def intersection_form(model: SurfaceModel) -> list[list[int]]:
    J = [[0] * model.dim for _ in range(model.dim)]
    for t in range(model.genus):
        J[2 * t][2 * t + 1] = 1
        J[2 * t + 1][2 * t] = -1
    return J


def pairing(model: SurfaceModel, x, y) -> int:
    """The algebraic intersection number <x, y>."""
    if len(x) != model.dim or len(y) != model.dim:
        raise ValueError("class has the wrong length")
    return sum(x[t] * y[t + 1] - x[t + 1] * y[t] for t in range(0, model.dim, 2))


def _support(k: int, i: int) -> tuple[int, ...]:
    """Coordinates, inside one block, where the i-th chain class is 1."""
    if i == 1:
        return (0,)
    if i == 2 * k + 1:
        return (2 * k - 2,)
    if i % 2 == 0:
        return (i - 1,)  # b[i/2]
    return (i - 3, i - 1)  # a[j] + a[j+1] with j = (i-1)/2


def chain_class(model: SurfaceModel, block: int, i: int) -> list[int]:
    """The i-th chain class of a block, 1 <= i <= 2*handles + 1."""
    if not 1 <= i <= model.chain_length:
        raise ValueError(f"chain index {i} out of range")
    support = {a_index(model, block, 1) + p for p in _support(model.handles, i)}
    return [int(t in support) for t in range(model.dim)]


def twist_matrix(model: SurfaceModel, c, direction: str = "left") -> list[list[int]]:
    """The transvection x -> x -+ <x, c> c about the class c."""
    if len(c) != model.dim:
        raise ValueError("class has the wrong length")
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    s = 1 if direction == "left" else -1
    cJ = [c[t - 1] if t % 2 else -c[t + 1] for t in range(model.dim)]  # c^T J
    return [[int(r == col) + s * c[r] * cJ[col] for col in range(model.dim)]
            for r in range(model.dim)]


def _image(model: SurfaceModel, letters) -> list[list[int]]:
    """The image of a word as diag(B_odd, B_even, B_odd, ...)."""
    k = model.handles
    size = 2 * k
    # blocks[0] is B_odd, blocks[1] (only when n >= 2) is B_even
    blocks = [identity_matrix(surface_model(1, k)) for _ in range(min(model.blocks, 2))]
    for letter in letters:
        if not 0 < abs(letter) <= model.chain_length:
            raise ValueError(f"letter {letter} out of range for this model")
        c = _support(k, abs(letter))
        # c^T J: a[t] pairs to +b[t], b[t] pairs to -a[t]
        cJ = [(p + 1, 1) if p % 2 == 0 else (p - 1, -1) for p in c]
        sign = 1 if letter > 0 else -1
        # odd blocks twist right-handed; inverting swaps the handedness
        for block, s in zip(blocks, (-sign, sign)):
            for row in block:
                v = sum(row[p] for p in c)
                if v:
                    for q, w in cJ:
                        row[q] += s * w * v
    n = model.blocks
    return [[0] * (size * b) + row + [0] * (size * (n - b - 1))
            for b in range(n) for row in blocks[b % 2]]


def generator_image(model: SurfaceModel, i: int) -> list[list[int]]:
    """The homology image of the i-th alternating twist product."""
    if not 1 <= i <= model.chain_length:
        raise ValueError(f"generator index {i} out of range")
    return _image(model, (i,))


def evaluate_word(model: SurfaceModel, word) -> list[list[int]]:
    """Evaluate a word over the twist generators, letters as signed indices.

    >>> from twistkit.braid import BraidWord
    >>> evaluate_word(surface_model(2, 1), BraidWord(4, (1, 2, 3)) ** 2)
    [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    """
    return _image(model, word.letters)


def mats_equal(x, y) -> bool:
    return [list(row) for row in x] == [list(row) for row in y]


def is_symplectic(model: SurfaceModel, m) -> bool:
    """Whether m^T J m = J, i.e. the columns pair like the basis does."""
    cols = list(zip(*m))
    gram = [[pairing(model, x, y) for y in cols] for x in cols]
    return mats_equal(gram, intersection_form(model))


def is_hyperelliptic_image(model: SurfaceModel, m) -> bool:
    """Whether a matrix is -Id, the homology image of the hyperelliptic map."""
    return mats_equal(m, [[-x for x in row] for row in identity_matrix(model)])
