"""Weight-transfer cocycles, vanishing subgroups, gauge exponents."""

import random

import pytest
from conftest import deep_exchange
from shiftgroups.cocycles import (
    ck_word_weight,
    gauge_weight,
    in_af_group,
    in_cocycle_group,
    rho,
    rho_at,
    rho_from_entries,
)
from shiftgroups.functions import (
    birkhoff_at,
    constant,
    equal,
    eval_at,
    indicator,
    make,
    zero,
)
from shiftgroups.sft import representative, validate_matrix
from shiftgroups.tables import (
    compose,
    identity_table,
    invert,
    pad_entry,
    prefix_swap,
    pullback_table,
    random_element,
)

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
MATRICES = (G, FULL2, TRIANGLE)

TAU0 = prefix_swap(G, 1, 2)
CHI1 = indicator(G, (1,))
CHI2 = indicator(G, (2,))


def random_table(matrix, rng):
    return random_element(matrix, 3, rng.randrange(1 << 30))


def random_locfun(matrix, rng, depth=3):
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


# -- the transfer itself ------------------------------------------------------


def test_rho_golden_values():
    got = rho(CHI1, TAU0)
    assert got == make(G, {(1, 2): 1, (2,): -1, (1, 1): 0})
    assert rho(CHI2, TAU0) == zero(G)
    rng = random.Random(3)
    assert rho(random_locfun(G, rng), identity_table(G)) == zero(G)


def test_rho_matches_orbit_sum_oracle():
    rng = random.Random(5)
    for matrix in MATRICES:
        for _ in range(60):
            f = random_locfun(matrix, rng)
            tau = random_table(matrix, rng)
            x = random_point(matrix, rng)
            value = eval_at(rho(f, tau), x)
            assert value == rho_at(f, tau, x)
            assert value == rho_at(f, tau, x, inclusive=True)


def test_rho_of_the_deep_exchange_has_one_piece_per_entry():
    """Swapping ``2`` with ``1^k 2`` at k = 200: the tower form needed
    about ``k`` shifted copies of the weight, the entrywise sums do not."""
    k = 200
    tau = deep_exchange(k)
    f = indicator(tau.matrix, (1,))
    cocycle = rho(f, tau)
    assert len(cocycle.pieces) == k + 2
    for part, value in cocycle.pieces:
        assert value == rho_at(f, tau, representative(tau.matrix, part))


def test_rho_is_linear_in_the_weight():
    rng = random.Random(44)
    for matrix in MATRICES:
        for _ in range(25):
            f, g = random_locfun(matrix, rng), random_locfun(matrix, rng)
            tau = random_table(matrix, rng)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            from shiftgroups.functions import linear

            assert equal(rho(linear(a, f, b, g), tau),
                         linear(a, rho(f, tau), b, rho(g, tau)))


def test_rho_cocycle_identity():
    rng = random.Random(8)
    for matrix in MATRICES:
        for _ in range(30):
            f = random_locfun(matrix, rng)
            t1, t2 = random_table(matrix, rng), random_table(matrix, rng)
            lhs = rho(f, compose(t2, t1))
            rhs = rho(f, t1) + pullback_table(rho(f, t2), t1)
            assert equal(lhs, rhs)
            assert equal(rho(f, invert(t1)),
                         -pullback_table(rho(f, t1), invert(t1)))


def test_rho_padding_invariance():
    rng = random.Random(12)
    for matrix in MATRICES:
        for _ in range(15):
            tau = random_table(matrix, rng)
            f = random_locfun(matrix, rng)
            padded = []
            for entry in tau.entries:
                padded.extend(pad_entry(matrix, entry, rng.randint(0, 2)))
            assert equal(rho_from_entries(f, tau, padded), rho(f, tau))


def test_rho_rejects_a_weight_over_another_matrix():
    """On another matrix over the same symbols the walk would read the
    weight's pieces as if they were the table's, so every entry point
    raises instead."""
    tau = prefix_swap(FULL2, 1, 2)
    for f in (CHI1, indicator(TRIANGLE, (3,))):
        for call in (lambda: rho(f, tau), lambda: rho_from_entries(f, tau, tau.entries),
                     lambda: gauge_weight(tau, f)):
            with pytest.raises(ValueError, match="different matrices"):
                call()


# -- subgroups ----------------------------------------------------------------


def test_membership_examples():
    assert in_cocycle_group(TAU0, CHI2)
    assert not in_cocycle_group(TAU0, constant(G, 1))
    rng = random.Random(21)
    assert in_cocycle_group(identity_table(G), random_locfun(G, rng))


def test_af_examples():
    assert in_af_group(identity_table(G))
    assert not in_af_group(TAU0)
    assert in_af_group(compose(TAU0, TAU0))


def test_af_agreement_with_constant_weight():
    rng = random.Random(25)
    for matrix in MATRICES:
        one = constant(matrix, 1)
        for _ in range(30):
            tau = random_table(matrix, rng)
            assert in_af_group(tau) == in_cocycle_group(tau, one)


def test_subgroup_closure_on_members():
    """Swaps supported away from an indicator's cylinder are members,
    and the member set is closed under the group operations."""
    chi11 = indicator(G, (1, 1))
    member = TAU0  # swaps cylinders incomparable with (1, 1)
    assert in_cocycle_group(member, chi11)
    assert in_cocycle_group(invert(member), chi11)
    assert in_cocycle_group(compose(member, member), chi11)

    swap13 = prefix_swap(TRIANGLE, 1, 3)
    chi2 = indicator(TRIANGLE, (2,))
    assert in_cocycle_group(swap13, chi2)
    swap31 = prefix_swap(TRIANGLE, 3, 1)
    assert in_cocycle_group(swap31, chi2)
    assert in_cocycle_group(compose(swap31, swap13), chi2)

    rng = random.Random(2)
    found_pairs = 0
    for _ in range(80):
        f = random_locfun(TRIANGLE, rng)
        t1, t2 = random_table(TRIANGLE, rng), random_table(TRIANGLE, rng)
        if in_cocycle_group(t1, f) and in_cocycle_group(t2, f):
            found_pairs += 1
            assert in_cocycle_group(compose(t2, t1), f)
            assert in_cocycle_group(invert(t1), f)
    assert found_pairs > 0


# -- gauge exponents ----------------------------------------------------------


def test_gauge_weight_examples():
    rng = random.Random(4)
    f = random_locfun(G, rng)
    assert gauge_weight(identity_table(G), f) == zero(G)
    assert gauge_weight(TAU0, constant(G, 1)) == make(
        G, {(1, 2): 1, (2,): -1, (1, 1): 0})
    assert gauge_weight(TAU0, CHI2) == zero(G)  # member picks up no phase


def test_gauge_weight_detects_membership():
    rng = random.Random(6)
    for matrix in MATRICES:
        for _ in range(30):
            tau = random_table(matrix, rng)
            f = random_locfun(matrix, rng)
            assert gauge_weight(tau, f).is_zero() == in_cocycle_group(tau, f)


def test_word_weight_examples():
    assert ck_word_weight((1, 2, 1), constant(G, 1)) == constant(G, 3)
    assert ck_word_weight((1, 1), CHI1) == make(G, {(1, 1): 2, (1, 2): 1, (2, 1): 1})
    assert ck_word_weight((), CHI1) == zero(G)


def test_word_weight_matches_literal_sums():
    rng = random.Random(9)
    for matrix in MATRICES:
        for _ in range(40):
            f = random_locfun(matrix, rng)
            word = random_point(matrix, rng).prefix(rng.randint(0, 3))
            x = random_point(matrix, rng)
            assert eval_at(ck_word_weight(word, f), x) == birkhoff_at(f, len(word), x)
