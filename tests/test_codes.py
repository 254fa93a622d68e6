"""Block codes and the transducer normal form machinery."""

import random
import re

import pytest

from shiftgroups.codes import (
    compose_codes,
    higher_block_codes,
    identity_code,
    make_code,
    relabel_code,
)
from shiftgroups.errors import NotAdmissibleImage, NotInverse
from shiftgroups.functions import constant, eval_at, make
from shiftgroups.sft import (
    canonicalize_point,
    enumerate_words,
    representative,
    shift_point,
    validate_matrix,
)
from shiftgroups.tables import cylinder_swap, identity_table, invert, prefix_swap, random_element
from shiftgroups.transducer import (
    apply_code_stage,
    apply_table_stage,
    conjugate_by_stages,
    difference_parts,
    extract_table,
    from_table,
    identity_transducer,
    is_identity_transducer,
    point_apply,
    post_shift,
    precompose_shift,
    pullback,
    transducer_equal,
)

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def random_point(matrix, rng, depth=4):
    word = ()
    for _ in range(rng.randint(0, depth)):
        extensions = matrix.extensions(word)
        word = extensions[rng.randrange(len(extensions))]
    return representative(matrix, word)


# -- block codes --------------------------------------------------------------


def test_identity_code_valid():
    code = identity_code(G)
    check = make_code(G, G, 1, dict(code.mapping), 1, dict(code.inverse_mapping))
    assert check == code


def test_relabel_full_shift():
    flip = relabel_code(FULL2, FULL2, {1: 2, 2: 1})
    x = canonicalize_point(FULL2, (), (1,))
    assert flip.encode(x) == canonicalize_point(FULL2, (), (2,))


def test_two_block_code_matches_presentation():
    block, encode, decode = higher_block_codes(G, 2)
    assert block.n == 3
    x = representative(G, (2, 1, 1))
    assert decode.encode(encode.encode(x)) == x


def test_make_code_rejects_forbidden_transitions():
    # Relabeling the golden mean shift by 1 <-> 2 sends the allowed 1,1
    # to the forbidden 2,2.
    with pytest.raises(NotAdmissibleImage):
        make_code(G, G, 1, {(1,): 2, (2,): 1}, 1, {(1,): 2, (2,): 1})
    with pytest.raises(NotAdmissibleImage):
        make_code(FULL2, FULL2, 1, {(1,): 1}, 1, {(1,): 1, (2,): 2})


IDENTITY_1 = {(1,): 1, (2,): 2}


@pytest.mark.parametrize("window, mapping, inverse, message", [
    (1, {**IDENTITY_1, (3,): 1}, IDENTITY_1, "(3,) is not an admissible window"),
    (2, {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 2}, IDENTITY_1,
     "(2, 2) is not an admissible window"),
    (1, IDENTITY_1, {**IDENTITY_1, (2, 1): 2}, "(2, 1) is not an admissible window"),
    (1, {**IDENTITY_1, (3,): 1, (0,): 2, (1, 1): 1}, IDENTITY_1,
     "(0,) is not an admissible window"),
    (1, [((1,), 2), ((1,), 1), ((2,), 2)], IDENTITY_1, "word (1,) repeats"),
    (1, IDENTITY_1, [((2,), 2), ((1,), 1), ((2,), 2)], "word (2,) repeats"),
], ids=["unknown-symbol", "inadmissible-window", "inverse-side", "first-in-sorted-order",
        "repeated-window", "repeated-inverse-window"])
def test_make_code_rejects_stray_windows(window, mapping, inverse, message):
    """A key that is not an admissible window of the declared length, on
    either side, is named: the first such key in sorted order.  So is a
    window declared twice in a list of pairs, which a dict of them would
    hide."""
    with pytest.raises(NotAdmissibleImage, match=re.escape(message)):
        make_code(G, G, window, mapping, 1, inverse)


def test_make_code_rejects_wrong_inverse():
    with pytest.raises(NotInverse):
        make_code(FULL2, FULL2, 1, {(1,): 1, (2,): 2}, 1, {(1,): 2, (2,): 1})


def test_long_window_messages_are_named_by_their_ends():
    """On a 70-symbol cycle with one chord, where windows are few, a block
    map of 65-symbol windows sent to one symbol, and the 65-block shift map
    with the identity as its inverse, are refused with messages that name
    their 66- and 65-symbol windows by their ends and length."""
    n = 70
    cycle = validate_matrix([[int(j == i % n + 1 or (i, j) == (n, 2)) for j in range(1, n + 1)]
                             for i in range(1, n + 1)])
    windows = enumerate_words(cycle, 65)
    assert len(windows) < 200
    identity = {(a,): a for a in cycle.symbols()}
    with pytest.raises(NotAdmissibleImage) as forbidden:
        make_code(cycle, cycle, 65, {w: 1 for w in windows}, 1, identity)
    with pytest.raises(NotInverse) as round_trip:
        make_code(cycle, cycle, 65, {w: w[1] for w in windows}, 1, identity)
    assert str(forbidden.value) == ("windows of (1, 2, 3, 4, ..., 63, 64, 65, 66) of 66 "
                                    "symbols map to the forbidden transition 1 -> 1")
    assert str(round_trip.value) == ("round trip sends the window (1, 2, 3, 4, ..., 62, 63, "
                                     "64, 65) of 65 symbols to 2, not 1")
    for info in (forbidden, round_trip):
        assert len(str(info.value).encode()) < 200


def test_codes_commute_with_shift():
    rng = random.Random(3)
    for matrix in (G, FULL2, TRIANGLE):
        _, encode, decode = higher_block_codes(matrix, 2)
        for _ in range(20):
            x = random_point(matrix, rng)
            assert encode.encode(shift_point(x)) == shift_point(encode.encode(x))
            y = encode.encode(x)
            assert decode.encode(shift_point(y)) == shift_point(decode.encode(y))


def test_compose_codes_windows_add():
    _, encode2, _ = higher_block_codes(G, 2)
    block2 = encode2.target
    _, encode22, _ = higher_block_codes(block2, 2)
    nested = compose_codes(encode22, encode2)
    assert nested.window == 3
    rng = random.Random(5)
    for _ in range(20):
        x = random_point(G, rng)
        assert nested.encode(x) == encode22.encode(encode2.encode(x))


# -- transducers --------------------------------------------------------------


def test_transducer_point_application_matches_stages():
    rng = random.Random(7)
    for matrix in (G, FULL2, TRIANGLE):
        _, encode, _ = higher_block_codes(matrix, 2)
        tau = random_element(matrix, 3, 5)
        upstairs = random_element(encode.target, 3, 6)
        t = identity_transducer(matrix)
        t = apply_table_stage(t, tau)
        t = apply_code_stage(t, encode)
        t = apply_table_stage(t, upstairs)
        for _ in range(20):
            x = random_point(matrix, rng)
            from shiftgroups.tables import apply as table_apply

            want = table_apply(upstairs, encode.encode(table_apply(tau, x)))
            assert point_apply(t, x) == want


def test_transducer_pullback_pointwise():
    rng = random.Random(11)
    _, encode, _ = higher_block_codes(G, 2)
    t = apply_code_stage(identity_transducer(G), encode)
    block = encode.target
    g = make(block, {(1,): 2, (2,): -1, (3,): 0})
    pulled = pullback(g, t)
    for _ in range(30):
        x = random_point(G, rng)
        assert eval_at(pulled, x) == eval_at(g, point_apply(t, x))


def test_shift_stages_pointwise():
    rng = random.Random(13)
    tau = prefix_swap(G, 1, 2)
    t = from_table(tau)
    before = precompose_shift(t)
    after = post_shift(t, constant(G, 2))
    from shiftgroups.tables import apply as table_apply
    from shiftgroups.sft import shift_point_n

    for _ in range(30):
        x = random_point(G, rng)
        assert point_apply(before, x) == table_apply(tau, shift_point(x))
        assert point_apply(after, x) == shift_point_n(table_apply(tau, x), 2)


def test_equality_and_difference_parts():
    tau = prefix_swap(G, 1, 2)
    t = from_table(tau)
    assert transducer_equal(t, t)
    lhs = precompose_shift(t)
    rhs = post_shift(t, constant(G, 1))
    assert not transducer_equal(lhs, rhs)
    parts = difference_parts(lhs, rhs)
    assert parts
    # every reported difference part is genuine: some point inside differs
    from shiftgroups.conjugacy import pointwise_difference

    assert pointwise_difference(lhs, rhs) is not None


def test_is_identity_transducer():
    assert is_identity_transducer(identity_transducer(G))
    tau = prefix_swap(G, 1, 2)
    assert not is_identity_transducer(from_table(tau))
    # composite that collapses back to the identity, through a code
    _, encode, decode = higher_block_codes(G, 2)
    t = apply_code_stage(identity_transducer(G), encode)
    t = apply_code_stage(t, decode)
    assert is_identity_transducer(t)
    t2 = apply_table_stage(t, tau)
    assert not is_identity_transducer(t2)


def test_extract_table_roundtrip():
    rng = random.Random(17)
    for matrix in (G, FULL2, TRIANGLE):
        for seed in range(5):
            tau = random_element(matrix, 3, seed)
            assert extract_table(from_table(tau)) == tau


def test_extract_table_where_a_merged_shift_passes_its_word():
    """Over the shift where ``2`` is always followed by ``3``, whose follower
    row ``1`` shares, the swap of ``2 3`` and ``1`` has the entry ``2 3 -> 1``:
    on the cylinder of ``2``, write ``1`` and stream from position 2.  Its
    one-member family merges, so the canonical entry's shift passes its word,
    and the table is still read back, also after a round trip through a
    chain map and its conjugation by the identity."""
    from shiftgroups.orbit import coe_from_chain, conjugate_table

    matrix = validate_matrix([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    tau = cylinder_swap(matrix, (2, 3), (1,))
    t = from_table(tau)
    assert t.entries == (((1,), (2, 3), 1), ((2,), (1,), 2), ((3,), (), 0))
    assert extract_table(t) == tau
    h = coe_from_chain([tau])
    assert h.transducer == t
    assert conjugate_table(coe_from_chain([identity_code(matrix)]), tau) == tau
    assert conjugate_table(h, tau) == tau


def test_conjugate_table_by_code_roundtrip():
    for matrix in (G, FULL2, TRIANGLE):
        _, encode, _ = higher_block_codes(matrix, 2)
        for seed in range(5):
            tau = random_element(matrix, 3, seed)
            moved = conjugate_by_stages((encode,), tau)
            back = conjugate_by_stages((encode.inverse(),), moved)
            assert back == tau


def test_equality_decision_against_point_sampling():
    """The exact comparator agrees with dense pointwise sampling.

    Valid exponent pairs make the two shifted maps equal; breaking the
    pair by one must be detected, and every reported difference part
    must contain a concrete differing representative.
    """
    from shiftgroups.functions import constant as const
    from shiftgroups.orbit import coe_from_chain
    from shiftgroups.sft import expand_to_depth, shift_point_n

    rng = random.Random(41)
    for matrix in (G, FULL2, TRIANGLE):
        for seed in range(4):
            stages = [random_element(matrix, 3, seed)]
            h = coe_from_chain(stages, source=matrix)
            t = h.transducer
            lhs = precompose_shift(t)
            assert transducer_equal(post_shift(lhs, h.k1), post_shift(t, h.l1))
            bumped = post_shift(lhs, h.k1 + const(matrix, 1))
            other = post_shift(t, h.l1)
            assert not transducer_equal(bumped, other)
            for part in difference_parts(bumped, other)[:2]:
                found = False
                for depth in range(len(part), len(part) + 5):
                    for word in expand_to_depth(matrix, part, depth):
                        z = representative(matrix, word)
                        if point_apply(bumped, z) != point_apply(other, z):
                            found = True
                            break
                    if found:
                        break
                assert found
            # agreeing sides match on a spread of sampled points
            equal_lhs = post_shift(lhs, h.k1)
            equal_rhs = post_shift(t, h.l1)
            for _ in range(15):
                z = random_point(matrix, rng)
                assert point_apply(equal_lhs, z) == point_apply(equal_rhs, z)


def test_conjugate_table_by_code_pointwise():
    rng = random.Random(23)
    matrix = G
    _, encode, _ = higher_block_codes(matrix, 2)
    tau = random_element(matrix, 3, 9)
    moved = conjugate_by_stages((encode,), tau)
    from shiftgroups.tables import apply as table_apply

    for _ in range(25):
        y = random_point(encode.target, rng)
        want = encode.encode(table_apply(tau, encode.inverse().encode(y)))
        assert table_apply(moved, y) == want
