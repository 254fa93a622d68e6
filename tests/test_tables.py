"""Prefix-exchange tables: validation, group laws, exponent data."""

import random

import pytest

from shiftgroups.errors import (
    DomainNotPartition,
    EqualSymbols,
    FollowerMismatch,
    ImageNotPartition,
    InadmissiblePair,
    InadmissibleWord,
)
from shiftgroups.functions import constant, equal, eval_at, indicator, make, zero
from shiftgroups.sft import canonicalize_point, enumerate_words, representative, validate_matrix
from shiftgroups.tables import (
    apply,
    cocycle_data,
    cocycle_data_from_entries,
    compose,
    identity_table,
    invert,
    pad_entry,
    prefix_swap,
    pullback_table,
    random_element,
    validate_table,
)

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
MATRICES = (G, FULL2, TRIANGLE)

TAU0 = prefix_swap(G, 1, 2)


def random_table(matrix, rng):
    return random_element(matrix, 3, rng.randrange(1 << 30))


def random_point(matrix, rng, depth=4):
    word = ()
    for _ in range(rng.randint(0, depth)):
        extensions = matrix.extensions(word)
        word = extensions[rng.randrange(len(extensions))]
    return representative(matrix, word)


# -- validation ---------------------------------------------------------------


def test_validate_swap_shape():
    table = validate_table(G, [((1, 2), (2,)), ((2,), (1, 2)), ((1, 1), (1, 1))])
    assert table == TAU0


def test_validate_rejects_follower_mismatch():
    with pytest.raises(FollowerMismatch):
        validate_table(G, [((1,), (2,)), ((2,), (1,))])


def test_validate_rejects_incomplete_domain():
    with pytest.raises(DomainNotPartition):
        validate_table(FULL2, [((1, 1), (1, 1))])


def test_validate_rejects_empty_and_inadmissible_words():
    with pytest.raises(InadmissibleWord):
        validate_table(G, [((), (1,))])
    with pytest.raises(InadmissibleWord):
        validate_table(G, [((2, 2), (1,)), ((1,), (2,))])


def test_validate_rejects_a_repeated_target_word():
    """Both [1.2] and [2] go into [2], so the map is not a bijection."""
    with pytest.raises(ImageNotPartition, match=r"^word \(2,\) repeats$"):
        validate_table(FULL2, [((1, 1), (1,)), ((1, 2), (2,)), ((2,), (2,))])


@pytest.mark.parametrize("matrix", MATRICES)
def test_validate_rejects_every_copied_target(matrix):
    """Random valid tables, plain or padded, with one entry's target
    copied onto another entry: always refused, naming the repeated word."""
    rng = random.Random(29)
    for _ in range(60):
        table = random_table(matrix, rng)
        entries = [e for entry in table.entries
                   for e in pad_entry(matrix, entry, rng.randint(0, 1))]
        i, j = rng.sample(range(len(entries)), 2)
        entries[i] = (entries[i][0], entries[j][1])
        with pytest.raises(ImageNotPartition) as info:
            validate_table(matrix, entries)
        assert str(info.value) == f"word {entries[j][1]} repeats"


def test_canonical_merges_padded_families():
    padded = [((1, 1), (1, 1)), ((1, 2), (1, 2)), ((2,), (2,))]
    assert validate_table(G, padded) == identity_table(G)


# -- action on points ---------------------------------------------------------


def test_apply_examples():
    x = canonicalize_point(G, (), (1, 2))
    assert apply(TAU0, x) == canonicalize_point(G, (), (2, 1))
    assert apply(identity_table(G), x) == x
    fixed = canonicalize_point(G, (), (1,))
    assert apply(TAU0, fixed) == fixed


def test_swap_acts_as_described():
    # On the swap cylinder the table acts as the shift; on the target
    # cylinder it prepends; elsewhere it fixes.
    z = representative(G, (1, 2, 1, 1))
    assert apply(TAU0, z) == canonicalize_point(G, (2, 1), (1,))
    z = representative(G, (2, 1, 2))
    assert apply(TAU0, z) == canonicalize_point(G, (1,) + z.transient, z.cycle)


# -- group structure ----------------------------------------------------------


def test_compose_examples():
    assert compose(TAU0, TAU0) == identity_table(G)
    rng = random.Random(1)
    tau = random_table(G, rng)
    assert compose(identity_table(G), tau) == tau
    assert compose(tau, invert(tau)) == identity_table(G)


def test_invert_examples():
    assert invert(identity_table(G)) == identity_table(G)
    assert invert(TAU0) == TAU0
    rng = random.Random(2)
    for matrix in MATRICES:
        tau = random_table(matrix, rng)
        assert invert(invert(tau)) == tau


@pytest.mark.parametrize("matrix", MATRICES)
def test_group_laws_on_random_elements(matrix):
    rng = random.Random(40 + matrix.n)
    ident = identity_table(matrix)
    for _ in range(25):
        a, b, c = (random_table(matrix, rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, ident) == a == compose(ident, a)
        assert compose(invert(a), a) == ident


@pytest.mark.parametrize("matrix", MATRICES)
def test_apply_respects_composition(matrix):
    rng = random.Random(17 + matrix.n)
    for _ in range(25):
        a, b = random_table(matrix, rng), random_table(matrix, rng)
        x = random_point(matrix, rng)
        assert apply(compose(a, b), x) == apply(a, apply(b, x))


# -- orbit exponents ----------------------------------------------------------


def test_cocycle_data_examples():
    _, _, d = cocycle_data(TAU0)
    assert d == make(G, {(1, 2): 1, (2,): -1, (1, 1): 0})
    _, _, d_id = cocycle_data(identity_table(G))
    assert d_id == zero(G)


def test_cocycle_data_defining_relation():
    rng = random.Random(9)
    for matrix in MATRICES:
        for _ in range(20):
            tau = random_table(matrix, rng)
            k, l, d = cocycle_data(tau)
            assert equal(d, l - k)
            x = random_point(matrix, rng)
            kx, lx = eval_at(k, x), eval_at(l, x)
            moved = apply(tau, x)
            from shiftgroups.sft import shift_point_n

            assert shift_point_n(moved, kx) == shift_point_n(x, lx)


def test_inverse_exponent_difference():
    _, _, d = cocycle_data(TAU0)
    _, _, d_inv = cocycle_data(invert(TAU0))
    assert equal(d_inv, -pullback_table(d, invert(TAU0)))


def test_exponent_cocycle_rule():
    rng = random.Random(77)
    for matrix in MATRICES:
        for _ in range(34):
            t1, t2 = random_table(matrix, rng), random_table(matrix, rng)
            _, _, d1 = cocycle_data(t1)
            _, _, d2 = cocycle_data(t2)
            _, _, d12 = cocycle_data(compose(t2, t1))
            assert equal(d12, d1 + pullback_table(d2, t1))


def test_padding_leaves_exponent_difference_alone():
    rng = random.Random(31)
    for matrix in MATRICES:
        for _ in range(20):
            tau = random_table(matrix, rng)
            padded = []
            for entry in tau.entries:
                padded.extend(pad_entry(matrix, entry, rng.randint(0, 2)))
            _, _, d_padded = cocycle_data_from_entries(matrix, padded)
            _, _, d_plain = cocycle_data(tau)
            assert equal(d_padded, d_plain)


# -- prefix swaps -------------------------------------------------------------


def test_prefix_swap_examples():
    assert TAU0.entries == (((1, 1), (1, 1)), ((1, 2), (2,)), ((2,), (1, 2)))
    swap_full = prefix_swap(FULL2, 1, 2)
    assert swap_full.entries == (((1, 1), (1, 1)), ((1, 2), (2,)), ((2,), (1, 2)))


def test_prefix_swap_rejections():
    with pytest.raises(EqualSymbols):
        prefix_swap(G, 2, 2)
    with pytest.raises(InadmissiblePair):
        prefix_swap(G, 2, 0)
    ring = validate_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    with pytest.raises(InadmissiblePair):
        prefix_swap(ring, 1, 3)


@pytest.mark.parametrize("matrix", MATRICES)
def test_all_prefix_swaps_are_involutions(matrix):
    for z1 in matrix.symbols():
        for z2 in matrix.successors(z1):
            if z1 == z2:
                continue
            swap = prefix_swap(matrix, z1, z2)
            assert compose(swap, swap) == identity_table(matrix)


# -- pullbacks ----------------------------------------------------------------


def test_pullback_examples():
    chi2 = indicator(G, (2,))
    assert pullback_table(chi2, identity_table(G)) == chi2
    assert pullback_table(chi2, TAU0) == make(G, {(1, 1): 0, (1, 2): 1, (2,): 0})
    assert pullback_table(constant(G, 4), TAU0) == constant(G, 4)
    chi1 = indicator(G, (1,))
    assert pullback_table(chi1, TAU0) == make(G, {(1, 1): 1, (1, 2): 0, (2,): 1})


def test_pullback_pointwise():
    rng = random.Random(19)
    for matrix in MATRICES:
        for _ in range(40):
            tau = random_table(matrix, rng)
            f = random_locfun(matrix, rng)
            x = random_point(matrix, rng)
            assert eval_at(pullback_table(f, tau), x) == eval_at(f, apply(tau, x))


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


# -- random elements ----------------------------------------------------------


def test_random_element_is_deterministic_and_valid():
    for matrix in MATRICES:
        a = random_element(matrix, 3, 99)
        b = random_element(matrix, 3, 99)
        assert a == b
        assert validate_table(matrix, a.entries) == a
        assert compose(a, invert(a)) == identity_table(matrix)
