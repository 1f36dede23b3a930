"""Blocked surface model: transvections, generator images, calibration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplectic_oracle as oracle
from symplectic_oracle import matmul
from twistkit.braid import BraidWord
from twistkit.symplectic import (
    a_index,
    b_index,
    chain_class,
    evaluate_word,
    generator_image,
    identity_matrix,
    intersection_form,
    is_hyperelliptic_image,
    is_symplectic,
    mats_equal,
    pairing,
    surface_model,
    twist_matrix,
)


def _chain_word(k, indices):
    return BraidWord(2 * k + 2, tuple(indices))


def _negated(rows):
    return [[-x for x in row] for row in rows]


def test_model_validation():
    with pytest.raises(ValueError):
        surface_model(0, 1)
    with pytest.raises(ValueError):
        surface_model(1, 0)
    m = surface_model(3, 2)
    assert m.genus == 6 and m.dim == 12 and m.chain_length == 5


def test_intersection_form():
    m = surface_model(1, 1)
    assert mats_equal(intersection_form(m), [[0, 1], [-1, 0]])
    m = surface_model(2, 2)
    J = intersection_form(m)
    for block in (1, 2):
        for j in (1, 2):
            ai, bi = a_index(m, block, j), b_index(m, block, j)
            assert J[ai][bi] == 1 and J[bi][ai] == -1
    assert mats_equal(_negated(matmul(J, J)), identity_matrix(m))


def test_basis_layout_is_handle_major():
    m = surface_model(2, 2)
    assert [a_index(m, 1, 1), b_index(m, 1, 1)] == [0, 1]
    assert [a_index(m, 1, 2), b_index(m, 1, 2)] == [2, 3]
    assert [a_index(m, 2, 1), b_index(m, 2, 1)] == [4, 5]
    with pytest.raises(ValueError):
        a_index(m, 3, 1)
    with pytest.raises(ValueError):
        b_index(m, 1, 3)


def test_chain_classes():
    m = surface_model(1, 2)
    assert list(chain_class(m, 1, 1)) == [1, 0, 0, 0]
    assert list(chain_class(m, 1, 2)) == [0, 1, 0, 0]
    assert list(chain_class(m, 1, 3)) == [1, 0, 1, 0]
    assert list(chain_class(m, 1, 4)) == [0, 0, 0, 1]
    assert list(chain_class(m, 1, 5)) == [0, 0, 1, 0]
    # One-handle blocks close up: the two end classes coincide.
    m = surface_model(2, 1)
    assert list(chain_class(m, 2, 1)) == list(chain_class(m, 2, 3))
    with pytest.raises(ValueError):
        chain_class(m, 1, 4)


def test_chain_intersection_pattern():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            m = surface_model(n, k)
            for block in range(1, n + 1):
                chain = [chain_class(m, block, i) for i in range(1, 2 * k + 2)]
                for i, x in enumerate(chain):
                    for j, y in enumerate(chain):
                        got = pairing(m, x, y)
                        if abs(i - j) == 1:
                            assert got in (1, -1)
                        else:
                            assert got == 0
            # Different blocks never meet.
            if n >= 2:
                assert pairing(m, chain_class(m, 1, 1), chain_class(m, 2, 2)) == 0


def test_twist_matrices_genus_one():
    m = surface_model(1, 1)
    a = chain_class(m, 1, 1)
    b = chain_class(m, 1, 2)
    assert mats_equal(twist_matrix(m, a, "left"), [[1, 1], [0, 1]])
    assert mats_equal(twist_matrix(m, b, "left"), [[1, 0], [-1, 1]])
    assert mats_equal(twist_matrix(m, a, "right"), [[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        twist_matrix(m, a, "up")
    with pytest.raises(ValueError):
        twist_matrix(m, [1, 0, 0], "left")


def test_twists_are_symplectic_and_invertible():
    m = surface_model(3, 2)
    for block in range(1, 4):
        for i in range(1, 6):
            c = chain_class(m, block, i)
            left = twist_matrix(m, c, "left")
            right = twist_matrix(m, c, "right")
            assert is_symplectic(m, left)
            assert mats_equal(matmul(left, right), identity_matrix(m))


def test_generator_calibration_two_blocks():
    m = surface_model(2, 1)
    f1 = generator_image(m, 1)
    f2 = generator_image(m, 2)
    assert mats_equal(
        f1,
        [[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
    )
    assert mats_equal(
        f2,
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]],
    )
    # The two ends of a one-handle chain give the same image.
    assert mats_equal(generator_image(m, 3), f1)
    with pytest.raises(ValueError):
        generator_image(m, 4)


def test_generator_images_are_symplectic():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            m = surface_model(n, k)
            for i in range(1, 2 * k + 2):
                assert is_symplectic(m, generator_image(m, i))


def test_braid_and_commutation_relations():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            m = surface_model(n, k)
            gens = 2 * k + 1
            for i in range(1, gens):
                lhs = evaluate_word(m, _chain_word(k, (i, i + 1, i)))
                rhs = evaluate_word(m, _chain_word(k, (i + 1, i, i + 1)))
                assert mats_equal(lhs, rhs), (n, k, i)
            for i in range(1, gens + 1):
                for j in range(i + 2, gens + 1):
                    lhs = evaluate_word(m, _chain_word(k, (i, j)))
                    rhs = evaluate_word(m, _chain_word(k, (j, i)))
                    assert mats_equal(lhs, rhs), (n, k, i, j)


def test_center_relator_maps_to_identity():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            m = surface_model(n, k)
            gens = 2 * k + 1
            word = _chain_word(k, tuple(range(1, gens + 1))) ** (gens + 1)
            assert mats_equal(evaluate_word(m, word), identity_matrix(m)), (n, k)


def test_hyperelliptic_image_one_handle():
    for n in range(1, 7):
        m = surface_model(n, 1)
        image = evaluate_word(m, _chain_word(1, (1, 2, 3)) ** 2)
        assert mats_equal(image, _negated(identity_matrix(m)))
        assert is_hyperelliptic_image(m, image)
        assert not is_hyperelliptic_image(m, identity_matrix(m))


def test_evaluate_word_inverses():
    m = surface_model(2, 2)
    w = BraidWord(6, (1, -3, 5, 2, -4))
    assert mats_equal(
        matmul(evaluate_word(m, w), evaluate_word(m, w.inv())), identity_matrix(m)
    )
    with pytest.raises(ValueError):
        evaluate_word(m, BraidWord(8, (7,)))


@st.composite
def _models_and_words(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    letters = draw(st.lists(
        st.integers(1, 2 * k + 1).flatmap(lambda i: st.sampled_from((i, -i))),
        max_size=40))
    return n, k, tuple(letters)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_models_and_words())
def test_block_engine_matches_dense_oracle(case):
    n, k, letters = case
    m = surface_model(n, k)
    word = _chain_word(k, letters)
    assert evaluate_word(m, word) == oracle.evaluate_letters(n, k, letters)
    for i in range(1, 2 * k + 2):
        assert generator_image(m, i) == oracle.generator_image(n, k, i)
