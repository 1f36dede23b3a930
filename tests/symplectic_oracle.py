"""Reference symplectic engine: dense products over the whole surface.

This is the original evaluation algorithm, kept as an independent oracle for
twistkit.symplectic.  It builds every chain class and every transvection as
a full 2nk x 2nk matrix, forms each generator image as the product of one
transvection per block (right-handed in odd blocks, left-handed in even
ones), and multiplies the images of the letters together.  It does not use
the block-diagonal shape of the result, so tests run it on small models.
"""


def matmul(x, y):
    """The product of two matrices given as lists of rows.

    Row i of the product is the sum of a * y[j] over the nonzero entries
    a = x[i][j], so sparse left factors are cheap.
    """
    out = []
    for row in x:
        acc = [0] * len(y[0])
        for a, yrow in zip(row, y):
            if a:
                acc = [s + a * t for s, t in zip(acc, yrow)]
        out.append(acc)
    return out


def identity(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def intersection_form(dim):
    J = [[0] * dim for _ in range(dim)]
    for t in range(0, dim, 2):
        J[t][t + 1] = 1
        J[t + 1][t] = -1
    return J


def chain_class(blocks, handles, block, i):
    """a[l,1], b[l,1], a[l,1]+a[l,2], b[l,2], ..., a[l,k] as a full vector."""
    v = [0] * (2 * blocks * handles)

    def a(j):
        return 2 * ((block - 1) * handles + (j - 1))

    if i == 1:
        v[a(1)] = 1
    elif i == 2 * handles + 1:
        v[a(handles)] = 1
    elif i % 2 == 0:
        v[a(i // 2) + 1] = 1
    else:
        j = (i - 1) // 2
        v[a(j)] = 1
        v[a(j + 1)] = 1
    return v


def twist_matrix(c, direction):
    """I + c c^T J (left) or I - c c^T J (right)."""
    dim = len(c)
    cJ = matmul([c], intersection_form(dim))[0]
    s = 1 if direction == "left" else -1
    return [[int(r == col) + s * c[r] * cJ[col] for col in range(dim)]
            for r in range(dim)]


def generator_image(blocks, handles, i, sign=1):
    """Product over all blocks of the block's twist about its i-th class."""
    out = identity(2 * blocks * handles)
    for block in range(1, blocks + 1):
        handed = 1 if block % 2 == 0 else -1
        direction = "left" if handed * sign > 0 else "right"
        out = matmul(out, twist_matrix(chain_class(blocks, handles, block, i), direction))
    return out


def evaluate_letters(blocks, handles, letters):
    """The product of the generator images of the signed letters, in order."""
    images = {}
    out = identity(2 * blocks * handles)
    for letter in letters:
        if letter not in images:
            images[letter] = generator_image(
                blocks, handles, abs(letter), 1 if letter > 0 else -1)
        out = matmul(out, images[letter])
    return out
