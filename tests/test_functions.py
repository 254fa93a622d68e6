"""Locally constant integer functions: examples and sum identities."""

import random

import pytest

from shiftgroups.errors import BadPartition, NegativeExponent
from shiftgroups.functions import (
    birkhoff,
    birkhoff_at,
    compose_shift,
    constant,
    equal,
    eval_at,
    indicator,
    linear,
    make,
    zero,
)
from shiftgroups.sft import canonicalize_point, representative, shift_point, validate_matrix

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def random_function(matrix, rng, depth=3):
    parts = {(): rng.randint(-3, 3)}
    for _ in range(rng.randint(0, 4)):
        splittable = sorted(w for w in parts if len(w) < depth)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        del parts[word]
        for child in matrix.extensions(word):
            parts[child] = rng.randint(-3, 3)
    return make(matrix, parts)


def random_point(matrix, rng, depth=4):
    word = ()
    for _ in range(rng.randint(0, depth)):
        extensions = matrix.extensions(word)
        word = extensions[rng.randrange(len(extensions))]
    return representative(matrix, word)


def test_make_rejects_a_repeated_word():
    """Pieces given as pairs reach the partition check as given, so a word
    with two values is refused rather than keeping the last."""
    assert make(FULL2, [((1,), 1), ((2,), 0)]) == indicator(FULL2, (1,))
    with pytest.raises(BadPartition, match=r"^word \(1,\) repeats$"):
        make(FULL2, [((1,), 1), ((1,), 2), ((2,), 0)])


# -- evaluation ---------------------------------------------------------------


def test_eval_examples():
    chi2 = indicator(G, (2,))
    assert eval_at(chi2, canonicalize_point(G, (), (2, 1))) == 1
    assert eval_at(chi2, canonicalize_point(G, (), (1,))) == 0
    seven = constant(G, 7)
    assert eval_at(seven, representative(G, (2, 1))) == 7


# -- linear combinations ------------------------------------------------------


def test_linear_examples():
    chi1, chi2 = indicator(G, (1,)), indicator(G, (2,))
    assert linear(1, chi1, -1, chi1) == zero(G)
    assert (chi1 + chi2) == constant(G, 1)
    mixed = linear(2, indicator(G, (1, 2)), 3, chi2)
    assert mixed.pieces == (((1, 1), 0), ((1, 2), 2), ((2,), 3))


def test_equality_examples():
    chi1 = indicator(G, (1,))
    split = indicator(G, (1, 1)) + indicator(G, (1, 2))
    assert equal(chi1, split)
    assert not equal(chi1, indicator(G, (2,)))


def test_canonical_form_is_unique():
    rng = random.Random(2)
    for matrix in (G, TRIANGLE):
        for _ in range(40):
            f = random_function(matrix, rng)
            g = random_function(matrix, rng)
            assert equal(f, g) == (f.pieces == g.pieces)
            # re-canonicalizing the pieces is a fixed point
            assert make(matrix, dict(f.pieces)) == f


# -- shift composition --------------------------------------------------------


def test_compose_shift_examples():
    chi2 = indicator(G, (2,))
    shifted = compose_shift(chi2)
    by_hand = make(G, {(1, 1): 0, (1, 2): 1, (2, 1): 0})
    assert equal(shifted, by_hand)
    assert compose_shift(constant(G, 5)) == constant(G, 5)
    assert eval_at(shifted, canonicalize_point(G, (), (1, 2))) == 1


def test_compose_shift_pointwise():
    rng = random.Random(7)
    for matrix in (G, FULL2, TRIANGLE):
        for _ in range(30):
            f = random_function(matrix, rng)
            x = random_point(matrix, rng)
            assert eval_at(compose_shift(f), x) == eval_at(f, shift_point(x))


# -- orbit sums ---------------------------------------------------------------


def test_birkhoff_examples():
    assert birkhoff(constant(G, 1), constant(G, 3)) == constant(G, 3)
    two_steps = birkhoff(indicator(G, (1,)), constant(G, 2))
    by_hand = make(G, {(1, 1): 2, (1, 2): 1, (2, 1): 1})
    assert equal(two_steps, by_hand)
    f = random_function(G, random.Random(0))
    assert birkhoff(f, constant(G, 0)) == zero(G)


def test_birkhoff_rejects_negative_exponent():
    with pytest.raises(NegativeExponent):
        birkhoff(constant(G, 1), constant(G, -1))


def test_birkhoff_matches_literal_sums():
    rng = random.Random(13)
    for matrix in (G, FULL2, TRIANGLE):
        for _ in range(100):
            f = random_function(matrix, rng)
            n = rng.randint(0, 4)
            x = random_point(matrix, rng)
            assert eval_at(birkhoff(f, constant(matrix, n)), x) == birkhoff_at(f, n, x)


def test_birkhoff_with_variable_exponent():
    rng = random.Random(17)
    for matrix in (G, TRIANGLE):
        for _ in range(30):
            f = random_function(matrix, rng)
            n = make(matrix, {w: rng.randint(0, 3)
                              for w in matrix.extensions(())})
            x = random_point(matrix, rng)
            assert eval_at(birkhoff(f, n), x) == birkhoff_at(f, eval_at(n, x), x)


def test_birkhoff_sum_splitting():
    """Splitting an orbit sum at any cut point is exact."""
    rng = random.Random(23)
    for matrix in (G, FULL2, TRIANGLE):
        for _ in range(100):
            f = random_function(matrix, rng)
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            total = birkhoff(f, constant(matrix, n + m))
            head = birkhoff(f, constant(matrix, m))
            tail = birkhoff(f, constant(matrix, n))
            for _ in range(m):
                tail = compose_shift(tail)
            assert equal(total, head + tail)
