"""Chain maps: exponent pairs, transfer, conjugation."""

import random

import pytest

from shiftgroups.cocycles import in_cocycle_group, rho
from shiftgroups.codes import higher_block_codes, relabel_code
from shiftgroups.errors import IncompatibleChain
from shiftgroups.functions import (
    compose_shift,
    constant,
    equal,
    eval_at,
    indicator,
    make,
)
from shiftgroups.orbit import (
    check_xihg,
    coe_apply,
    coe_compose,
    coe_from_chain,
    coe_invert,
    compose_cocycles,
    conjugate_table,
    identity_coe,
    psi,
    pullback_map,
)
from shiftgroups.sft import canonicalize_point, representative, shift_point, shift_point_n, validate_matrix
from shiftgroups.tables import compose, identity_table, prefix_swap, random_element
from shiftgroups.transducer import point_apply

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

TAU0 = prefix_swap(G, 1, 2)
CHI1 = indicator(G, (1,))


def random_point(matrix, rng, depth=4):
    word = ()
    for _ in range(rng.randint(0, depth)):
        extensions = matrix.extensions(word)
        word = extensions[rng.randrange(len(extensions))]
    return representative(matrix, word)


def random_chain(matrix, rng):
    stages = []
    if rng.random() < 0.8:
        stages.append(random_element(matrix, 3, rng.randrange(1 << 30)))
    target = matrix
    if rng.random() < 0.5:
        target, encode, _ = higher_block_codes(matrix, 2)
        stages.append(encode)
    if rng.random() < 0.8:
        stages.append(random_element(target, 3, rng.randrange(1 << 30)))
    return coe_from_chain(stages, source=matrix)


# -- construction and exponents -------------------------------------------------


def test_pure_code_chain_has_trivial_exponents():
    _, encode, _ = higher_block_codes(G, 2)
    h = coe_from_chain([encode])
    assert h.k1 == constant(G, 0)
    assert h.l1 == constant(G, 1)


def test_swap_chain_exponents_match_hand_values():
    h = coe_from_chain([TAU0])
    assert h.k1 == indicator(G, (1, 2))
    assert eval_at(h.l1, representative(G, (1, 2))) == 0


def test_two_codes_fold_into_one():
    _, encode, decode = higher_block_codes(G, 2)
    h = coe_from_chain([encode, decode])
    assert h.k1 == constant(G, 0)
    assert h.l1 == constant(G, 1)
    assert h.core.window >= 1
    rng = random.Random(1)
    for _ in range(10):
        x = random_point(G, rng)
        assert coe_apply(h, x) == x


def test_exponent_pair_matches_pointwise_relation():
    rng = random.Random(5)
    for matrix in (G, FULL2, TRIANGLE):
        for _ in range(10):
            h = random_chain(matrix, rng)
            for _ in range(10):
                x = random_point(matrix, rng)
                k, l = eval_at(h.k1, x), eval_at(h.l1, x)
                lhs = shift_point_n(coe_apply(h, shift_point(x)), k)
                rhs = shift_point_n(coe_apply(h, x), l)
                assert lhs == rhs


def test_incompatible_chain_rejected():
    with pytest.raises(IncompatibleChain):
        coe_from_chain([identity_table(G), identity_table(TRIANGLE)])
    with pytest.raises(IncompatibleChain):
        coe_from_chain([])


# -- application and inversion --------------------------------------------------


def test_apply_examples():
    rng = random.Random(7)
    x = random_point(G, rng)
    assert coe_apply(identity_coe(G), x) == x
    h = coe_from_chain([TAU0])
    assert coe_apply(h, canonicalize_point(G, (), (1, 2))) == canonicalize_point(G, (), (2, 1))
    flip = coe_from_chain([relabel_code(FULL2, FULL2, {1: 2, 2: 1})])
    assert coe_apply(flip, canonicalize_point(FULL2, (), (1,))) == canonicalize_point(
        FULL2, (), (2,))


def test_apply_agrees_with_normal_form():
    rng = random.Random(11)
    for matrix in (G, TRIANGLE):
        for _ in range(8):
            h = random_chain(matrix, rng)
            for _ in range(10):
                x = random_point(matrix, rng)
                assert coe_apply(h, x) == point_apply(h.transducer, x)


def test_invert_examples():
    ident = identity_coe(G)
    assert coe_apply(coe_invert(ident), representative(G, (1,))) == representative(G, (1,))
    h = coe_from_chain([TAU0])
    rng = random.Random(13)
    for _ in range(10):
        x = random_point(G, rng)
        assert coe_apply(coe_invert(h), coe_apply(h, x)) == x
    hh = coe_invert(coe_invert(h))
    for _ in range(10):
        x = random_point(G, rng)
        assert coe_apply(hh, x) == coe_apply(h, x)


# -- exponent composition --------------------------------------------------------


def test_compose_cocycles_with_outer_code():
    h1 = coe_from_chain([TAU0])
    _, encode, _ = higher_block_codes(G, 2)
    h2 = coe_from_chain([encode])
    k, l = compose_cocycles(h2, h1)
    # an outer conjugacy leaves the pair alone
    assert equal(k, h1.k1)
    assert equal(l, h1.l1)


def test_compose_cocycles_with_inner_code():
    _, encode, _ = higher_block_codes(G, 2)
    h1 = coe_from_chain([encode])
    block = encode.target
    upstairs = prefix_swap(block, 2, 3)
    h2 = coe_from_chain([upstairs])
    k, l = compose_cocycles(h2, h1)
    # an inner conjugacy pulls the outer pair back
    assert equal(k, pullback_map(h2.k1, h1))
    assert equal(l, pullback_map(h2.l1, h1))


def test_compose_cocycles_validates_composite():
    rng = random.Random(17)
    for _ in range(6):
        h1 = random_chain(G, rng)
        h2 = random_chain(h1.target, rng)
        k, l = compose_cocycles(h2, h1)
        composite = coe_compose(h2, h1)
        for _ in range(8):
            x = random_point(G, rng)
            lhs = shift_point_n(coe_apply(composite, shift_point(x)), eval_at(k, x))
            rhs = shift_point_n(coe_apply(composite, x), eval_at(l, x))
            assert lhs == rhs


# -- potential transfer ----------------------------------------------------------


def test_pullback_examples():
    h = coe_from_chain([TAU0])
    assert pullback_map(CHI1, identity_coe(G)) == CHI1
    assert pullback_map(CHI1, h) == make(G, {(1, 1): 1, (1, 2): 0, (2,): 1})
    assert pullback_map(constant(G, 9), h) == constant(G, 9)


def test_psi_examples():
    g = CHI1
    assert equal(psi(identity_coe(G), g), g)
    _, encode, _ = higher_block_codes(G, 2)
    code_chain = coe_from_chain([encode])
    block = encode.target
    g_up = make(block, {(1,): 1, (2,): -2, (3,): 0})
    assert equal(psi(code_chain, g_up), pullback_map(g_up, code_chain))
    h = coe_from_chain([TAU0])
    transferred = psi(h, CHI1)
    assert eval_at(transferred, representative(G, (1, 2))) == -1


def test_psi_additivity_and_coboundaries():
    rng = random.Random(23)
    chains = [random_chain(G, rng) for _ in range(10)]
    for i in range(100):
        h = chains[i % len(chains)]
        g = random_target_function(h, rng)
        g2 = random_target_function(h, rng)
        assert equal(psi(h, g + g2), psi(h, g) + psi(h, g2))
        lhs = psi(h, g - compose_shift(g))
        q = pullback_map(g, h)
        assert equal(lhs, q - compose_shift(q))


def random_target_function(h, rng, depth=2):
    matrix = h.target
    parts = {(): rng.randint(-2, 2)}
    for _ in range(rng.randint(0, 3)):
        splittable = sorted(w for w in parts if len(w) < depth)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        del parts[word]
        for child in matrix.extensions(word):
            parts[child] = rng.randint(-2, 2)
    return make(matrix, parts)


# -- conjugation -----------------------------------------------------------------


def test_conjugate_table_examples():
    h = coe_from_chain([TAU0])
    assert conjugate_table(identity_coe(G), TAU0) == TAU0
    assert conjugate_table(h, identity_table(G)) == identity_table(G)
    assert conjugate_table(h, TAU0) == TAU0


def test_conjugate_table_pointwise():
    rng = random.Random(29)
    for _ in range(6):
        h = random_chain(G, rng)
        tau = random_element(G, 3, rng.randrange(1 << 30))
        moved = conjugate_table(h, tau)
        from shiftgroups.tables import apply as table_apply

        for _ in range(10):
            x = random_point(G, rng)
            assert table_apply(moved, coe_apply(h, x)) == coe_apply(h, table_apply(tau, x))


def test_conjugation_is_homomorphism():
    rng = random.Random(31)
    for _ in range(5):
        h = random_chain(G, rng)
        a = random_element(G, 3, rng.randrange(1 << 30))
        b = random_element(G, 3, rng.randrange(1 << 30))
        assert conjugate_table(h, compose(a, b)) == compose(
            conjugate_table(h, a), conjugate_table(h, b))


def test_check_xihg():
    h = coe_from_chain([TAU0])
    assert check_xihg(identity_coe(G), TAU0, CHI1)
    assert check_xihg(h, TAU0, CHI1)
    rng = random.Random(37)
    for _ in range(8):
        hh = random_chain(G, rng)
        tau = random_element(G, 3, rng.randrange(1 << 30))
        g = random_target_function(hh, rng)
        assert check_xihg(hh, tau, g)
        moved = conjugate_table(hh, tau)
        assert in_cocycle_group(tau, psi(hh, g)) == in_cocycle_group(moved, g)
