"""Homology action of chain twists on a surface of genus n*k.

The surface carries k handles in each of n blocks, and the 2k+1 twist
generators of a block act on H_1 by transvections along a chain of curves.
All arithmetic is over the integers, and matrices are lists of rows.
"""

from twistkit import braid, symplectic, words


def show(matrix):
    """Print a matrix one row per line, entries right-aligned."""
    width = max(len(str(x)) for row in matrix for x in row)
    for row in matrix:
        print("[" + " ".join(str(x).rjust(width) for x in row) + "]")


# One block, one handle: the action lands in SL(2, Z) and the two twists hit
# the standard generators (inverted, since twists act by inverse transvections
# in this convention).
model = symplectic.surface_model(1, 1)
print("blocks=1 handles=1  genus", model.genus, " dim", model.dim)
for i in (1, 2):
    print(f"f{i} ->")
    show(symplectic.generator_image(model, i))

# Two blocks, one handle each: genus 2, and each generator acts on both
# blocks at once with opposite handedness.
model = symplectic.surface_model(2, 1)
print()
print("blocks=2 handles=1  genus", model.genus, " dim", model.dim)
print("f1 ->")
show(symplectic.generator_image(model, 1))

# The squared chain word acts as -Id, the homology shadow of the
# hyperelliptic involution.
square = words.parse_word("(s1 s2 s3)^2", model.chain_length + 1)
image = symplectic.evaluate_word(model, square)
print("(f1 f2 f3)^2 ->")
show(image)
print("is -Id:", symplectic.is_hyperelliptic_image(model, image))

# Every image preserves the intersection form.
sample = words.parse_word("s1 s3 S2 s1 s1 S3", model.chain_length + 1)
print("sample word is symplectic:", symplectic.is_symplectic(model, symplectic.evaluate_word(model, sample)))

# Three blocks, two handles: the center relator of the 6-strand braid group
# already dies at the homology level.
model = symplectic.surface_model(3, 2)
chain = braid.BraidWord(model.chain_length + 1, tuple(range(1, model.chain_length + 1)))
center = chain ** (model.chain_length + 1)
image = symplectic.evaluate_word(model, center)
print()
print("blocks=3 handles=2  genus", model.genus)
print("(f1 ... f5)^6 acts as Id:", symplectic.mats_equal(image, symplectic.identity_matrix(model)))
