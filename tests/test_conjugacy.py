"""Conjugacy decisions, witnesses, and commutant separation."""

import random

import pytest
from conftest import stage_split_pairs

from shiftgroups.cocycles import in_cocycle_group
from shiftgroups.codes import higher_block_codes, identity_code, make_code, relabel_code
from shiftgroups.conjugacy import (
    Witness,
    check_witness,
    commutant_witness,
    difference_locus,
    is_conjugacy,
    recode_source,
    witness_non_conjugacy,
)
from shiftgroups.errors import SearchBudgetExceeded, VerificationFailed
from shiftgroups.functions import compose_shift, constant, zero
from shiftgroups.orbit import (
    coe_apply,
    coe_from_chain,
    identity_coe,
    psi,
    pullback_map,
    stage_transducer,
)
from shiftgroups.sft import enumerate_words, representative, shift_point, validate_matrix
from shiftgroups.tables import compose, identity_table, prefix_swap, random_element
from shiftgroups.transducer import point_apply

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

TAU0_CHAIN = coe_from_chain([prefix_swap(G, 1, 2)])


# -- the decision -------------------------------------------------------------


def test_is_conjugacy_examples():
    _, encode, _ = higher_block_codes(G, 2)
    assert is_conjugacy(coe_from_chain([encode]))
    assert is_conjugacy(identity_coe(G))
    assert not is_conjugacy(TAU0_CHAIN)
    flip = relabel_code(FULL2, FULL2, {1: 2, 2: 1})
    assert is_conjugacy(coe_from_chain([flip]))


def test_difference_locus_examples():
    _, encode, _ = higher_block_codes(G, 2)
    assert difference_locus(coe_from_chain([encode])) == ()
    assert difference_locus(identity_coe(G)) == ()
    locus = difference_locus(TAU0_CHAIN)
    assert locus
    # the locus is genuine: commutation fails at some point of each part
    for word in locus[:3]:
        found = False
        for depth in range(len(word), len(word) + 4):
            from shiftgroups.sft import expand_to_depth

            for deep in expand_to_depth(G, word, depth):
                z = representative(G, deep)
                if coe_apply(TAU0_CHAIN, shift_point(z)) != shift_point(
                        coe_apply(TAU0_CHAIN, z)):
                    found = True
                    break
            if found:
                break
        assert found


# -- witnesses ----------------------------------------------------------------


def test_witness_none_for_conjugacies():
    flip = relabel_code(FULL2, FULL2, {1: 2, 2: 1})
    assert witness_non_conjugacy(coe_from_chain([flip])) is None
    assert witness_non_conjugacy(identity_coe(TRIANGLE)) is None


def test_witness_for_swap_chain():
    witness = witness_non_conjugacy(TAU0_CHAIN)
    assert witness is not None
    assert check_witness(TAU0_CHAIN, witness)
    # the certificate data has the promised shape
    assert witness.pair[0] != witness.pair[1]
    assert witness.z.symbol(1) == witness.pair[0]
    assert witness.z.symbol(2) == witness.pair[1]
    values = [v for _, v in witness.g.pieces]
    assert set(values) <= {0, 1} and values.count(1) == 1


def test_witness_certifies_subgroup_obstruction():
    witness = witness_non_conjugacy(TAU0_CHAIN)
    h_level, _ = recode_source(TAU0_CHAIN, witness.level)
    balanced = witness.g - compose_shift(witness.g)
    assert in_cocycle_group(witness.tau0, psi(h_level, balanced)) != in_cocycle_group(
        witness.tau0, pullback_map(balanced, h_level))


def test_tampered_witnesses_fail():
    witness = witness_non_conjugacy(TAU0_CHAIN)
    no_g = Witness(witness.level, witness.z, witness.pair,
                   zero(TAU0_CHAIN.target), witness.tau0)
    assert not check_witness(TAU0_CHAIN, no_g)
    h_level, _ = recode_source(TAU0_CHAIN, witness.level)
    no_swap = Witness(witness.level, witness.z, witness.pair, witness.g,
                      identity_table(h_level.source))
    assert not check_witness(TAU0_CHAIN, no_swap)


def test_witness_survives_recoding():
    """Recoding the source one level up never flips the conclusion."""
    for stages, matrix in (
            ([prefix_swap(G, 1, 2)], G),
            ([prefix_swap(TRIANGLE, 2, 3)], TRIANGLE)):
        h = coe_from_chain(stages, source=matrix)
        recoded, _ = recode_source(h, 2)
        assert not is_conjugacy(recoded)
        witness = witness_non_conjugacy(recoded)
        assert witness is not None and check_witness(recoded, witness)
    _, encode, _ = higher_block_codes(G, 2)
    conjugacy = coe_from_chain([encode])
    recoded, _ = recode_source(conjugacy, 2)
    assert witness_non_conjugacy(recoded) is None


def test_witness_for_random_twists():
    """Seeded random table twists across all three matrices."""
    rng = random.Random(99)
    for matrix in (G, FULL2, TRIANGLE):
        for _ in range(3):
            tau = random_element(matrix, 3, rng.randrange(1 << 30))
            h = coe_from_chain([tau], source=matrix)
            if is_conjugacy(h):
                assert witness_non_conjugacy(h) is None
                continue
            witness = witness_non_conjugacy(h)
            assert witness is not None and check_witness(h, witness)


def test_witness_search_budget_is_loud():
    with pytest.raises(SearchBudgetExceeded):
        witness_non_conjugacy(TAU0_CHAIN, max_level=0)


def test_unverified_witness_is_never_returned(monkeypatch):
    import shiftgroups.conjugacy as conjugacy

    monkeypatch.setattr(conjugacy, "check_witness", lambda h, witness: False)
    with pytest.raises(VerificationFailed):
        witness_non_conjugacy(TAU0_CHAIN)


def test_witness_deterministic():
    a = witness_non_conjugacy(TAU0_CHAIN)
    b = witness_non_conjugacy(TAU0_CHAIN)
    assert (a.level, a.z, a.pair, a.g, a.tau0) == (b.level, b.z, b.pair, b.g, b.tau0)


def test_witness_depends_on_the_map_not_its_declared_window():
    """The identity declared at windows 1, 2 and 3, then the swap of
    ``TAU0_CHAIN``: one map, so the identity code as core and the witness
    of ``TAU0_CHAIN``, field for field."""
    expected = witness_non_conjugacy(TAU0_CHAIN)
    for window in (1, 2, 3):
        table = {w: w[0] for w in enumerate_words(G, window)}
        code = make_code(G, G, window, table, 1, {(1,): 1, (2,): 2})
        h = coe_from_chain([code, prefix_swap(G, 1, 2)])
        assert h.core == identity_code(G)
        got = witness_non_conjugacy(h)
        assert ((got.level, got.z, got.pair, got.g, got.tau0)
                == (expected.level, expected.z, expected.pair, expected.g, expected.tau0))


# -- commutant ----------------------------------------------------------------


def test_commuting_chains_transfer_trivially():
    """On shift-commuting chains the transfer degenerates to pullback and
    conjugation preserves every vanishing subgroup."""
    from shiftgroups.functions import equal, make
    from shiftgroups.orbit import conjugate_table

    rng = random.Random(41)
    flip = relabel_code(FULL2, FULL2, {1: 2, 2: 1})
    _, encode_g, _ = higher_block_codes(G, 2)
    chains = [
        coe_from_chain([encode_g]),
        coe_from_chain([flip]),
        identity_coe(TRIANGLE),
    ]
    for h in chains:
        assert is_conjugacy(h)
        for _ in range(6):
            g = random_target_function(h, rng)
            assert equal(psi(h, g), pullback_map(g, h))
            tau = random_element(h.source, 3, rng.randrange(1 << 30))
            moved = conjugate_table(h, tau)
            assert in_cocycle_group(tau, pullback_map(g, h)) == in_cocycle_group(moved, g)


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
    from shiftgroups.functions import make

    return make(matrix, parts)


def test_commutant_identity_gives_none():
    assert commutant_witness(identity_coe(G)) is None
    _, encode, decode = higher_block_codes(G, 2)
    assert commutant_witness(coe_from_chain([encode, decode])) is None


def test_commutant_witness_for_swap_chain():
    table = commutant_witness(TAU0_CHAIN)
    assert table is not None
    after = stage_transducer(G, (table,) + TAU0_CHAIN.stages())
    before = stage_transducer(G, TAU0_CHAIN.stages() + (table,))
    from shiftgroups.conjugacy import pointwise_difference

    z = pointwise_difference(after, before)
    assert z is not None
    assert point_apply(after, z) != point_apply(before, z)


def test_commutant_deterministic():
    assert commutant_witness(TAU0_CHAIN) == commutant_witness(TAU0_CHAIN)


def test_corpus_verdicts_match_pointwise_behaviour():
    """Every corpus verdict is cross-checked at depth-6 representatives."""
    from shiftgroups.selftest import conjugacy_corpus, twisted_corpus
    from shiftgroups.sft import enumerate_words

    def commutes_at(h, z):
        return coe_apply(h, shift_point(z)) == shift_point(coe_apply(h, z))

    for h in conjugacy_corpus():
        assert is_conjugacy(h)
        for word in enumerate_words(h.source, 6):
            assert commutes_at(h, representative(h.source, word))
    for h in twisted_corpus():
        assert not is_conjugacy(h)
        assert any(not commutes_at(h, representative(h.source, word))
                   for word in enumerate_words(h.source, 6))


def test_conjugacy_is_the_trivial_exponent_pair():
    """A chain map commutes with the shift exactly when ``(k1, l1)`` is
    ``(0, 1)``, over the three corpora and seeded draws."""
    from shiftgroups.selftest import (
        MATRICES, commutant_corpus, conjugacy_corpus, random_chain, twisted_corpus)

    rng = random.Random(3)
    maps = conjugacy_corpus() + twisted_corpus() + commutant_corpus()
    maps += [random_chain(matrix, rng) for _, matrix in MATRICES for _ in range(50)]
    conjugacies = 0
    for h in maps:
        trivial = h.k1 == constant(h.source, 0) and h.l1 == constant(h.source, 1)
        assert is_conjugacy(h) == trivial
        conjugacies += trivial
    assert 0 < conjugacies < len(maps)


def test_identity_through_nontrivial_stages():
    """A four-stage chain composing to the identity map is recognized."""
    from shiftgroups.tables import invert
    from shiftgroups.transducer import conjugate_by_stages, is_identity_transducer

    tau = prefix_swap(G, 1, 2)
    _, encode, decode = higher_block_codes(G, 2)
    moved_inverse = conjugate_by_stages((encode,), invert(tau))
    h = coe_from_chain([tau, encode, moved_inverse, decode])
    assert is_identity_transducer(h.transducer)
    assert is_conjugacy(h)
    assert commutant_witness(h) is None
    assert witness_non_conjugacy(h) is None


def test_witness_needs_deeper_recoding():
    """A twist buried at block level 3 still yields a checkable witness."""
    from shiftgroups.transducer import conjugate_by_stages

    block3, encode3, _ = higher_block_codes(G, 3)
    # swap two level-3 blocks, carried down to the base shift
    pair = next((z1, z2) for z1 in block3.symbols()
                for z2 in block3.successors(z1) if z1 != z2)
    deep_table = conjugate_by_stages((encode3.inverse(),), prefix_swap(block3, *pair))
    h = coe_from_chain([deep_table])
    assert not is_conjugacy(h)
    witness = witness_non_conjugacy(h)
    assert witness is not None and check_witness(h, witness)


def test_commutant_random_self_maps():
    rng = random.Random(3)
    for matrix in (G, TRIANGLE):
        for _ in range(4):
            tau = random_element(matrix, 3, rng.randrange(1 << 30))
            h0 = coe_from_chain([tau], source=matrix)
            witness = commutant_witness(h0)
            if tau == identity_table(matrix):
                assert witness is None
            else:
                assert witness is not None


# -- golden outputs -------------------------------------------------------------


def format_witness(witness):
    """The witness fields as text: level, ``z``, pair, ``g`` and ``tau0``."""
    from shiftgroups.formats import format_function, format_point, format_table

    return (f"level {witness.level}\nz {format_point(witness.z)}\n"
            f"pair {witness.pair[0]} {witness.pair[1]}\n"
            + format_function(witness.g) + format_table(witness.tau0))


def sha256(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


# One digest per map, in corpus order.
TWISTED_WITNESS_DIGESTS = (
    "13a4841882f2d2d041f198246bd07c5721e8c45365f531481c71dfbf041cc184",
    "835f90f12f19a2a4a70efe559b8d894efb8ffdacf128ea998641064f7bc14f80",
    "9fe29acb921149244a47994cee648dcac4ea48e0c11f4b1a36bd153b4ab83f3a",
    "d52c78326eae6bfe31fba1b1fadc80453baeb7dc6b92f2352980c4dfef65d6b3",
    "4fca307918971fe3bcc517ed71c59488354cc18a123d1256f0cab93d7ae8c708",
    "b247a7cb8238ca9342b2c293a85425c669e0b4b692c3cb7c779589e8888e9925",
    "852e577aa2560497c0b6b48d29d4bc113fb8cef0e9c7b12bd4f925ca7a6be9cf",
    "4a7cd186d069c71cd9ddfcd6f0f1e3dc63426be3c3fbd0e1816de69b8640f0bc",
    "ba4c618a43ff96c87f2f7930be9f0f4b4d10b27ee10b27a3773c619e316e246a",
    "ccc3a3de223f29f89362f8c2ef466213db203a9a1b15325c523a894f2907899e",
    "d9cd99a273f8f644f8ce819cd16ae1b46c18749d2164a9a8dd4e87a781cfad8b",
    "d9cd99a273f8f644f8ce819cd16ae1b46c18749d2164a9a8dd4e87a781cfad8b",
    "c30fbc46f26e31b6282cd9567ef3de5685d3fa8b7afe76849acff916a1298b50",
    "e48e725fd90e3e8f5dd84c1c2fc4710470b7d3f56d3051bff13b403c9e79c2c8",
    "41180f326bc6375333f508560ac8bb82b1546b6e321ecca50727a91e2332c62c",
    "58d1af9a7eaf0cdb5ab1ef8b65da0d4beec43b69f036ad936cc2d7f82c0f839a",
    "0d0b67b26242c3dfd038438c9b6524a3284ad49b04d400f5aeec4cb77c7f2949",
    "4a7cd186d069c71cd9ddfcd6f0f1e3dc63426be3c3fbd0e1816de69b8640f0bc",
    "41180f326bc6375333f508560ac8bb82b1546b6e321ecca50727a91e2332c62c",
    "ccc3a3de223f29f89362f8c2ef466213db203a9a1b15325c523a894f2907899e",
)
COMMUTANT_TABLE_DIGESTS = (
    "1c0202d266d5a06583472520a4713a9aa96606d130009e83637263f77fa56054",
    "c8c7947a9390d8e6a5bdb6cdeb85b539cafbac8454e8b3473574a8ca52586a03",
    "a00b0664a6856148289824f8df5a686777a9546815d599d0988643aadc714f08",
    "c8c7947a9390d8e6a5bdb6cdeb85b539cafbac8454e8b3473574a8ca52586a03",
    "5fbdd50aecad3209000d0a32dcf2b1ac84bb048d0497c2d82d9bf647b39e90fb",
    "5fbdd50aecad3209000d0a32dcf2b1ac84bb048d0497c2d82d9bf647b39e90fb",
    "1d48a1f80783aec61160f3fa97b004eb5fdd3d8f309f1bf064877e93e617dc5b",
    "1d48a1f80783aec61160f3fa97b004eb5fdd3d8f309f1bf064877e93e617dc5b",
    "1c0202d266d5a06583472520a4713a9aa96606d130009e83637263f77fa56054",
    "c8c7947a9390d8e6a5bdb6cdeb85b539cafbac8454e8b3473574a8ca52586a03",
)


def test_witness_outputs_match_golden_digests():
    """Every twisted-corpus witness and every commutant-corpus table is
    the one pinned here, field for field; each witness passes its exact
    check and certifies the subgroup obstruction."""
    from shiftgroups.formats import format_table
    from shiftgroups.selftest import commutant_corpus, twisted_corpus

    witnesses = []
    for h in twisted_corpus():
        witness = witness_non_conjugacy(h)
        assert check_witness(h, witness)
        h_level, _ = recode_source(h, witness.level)
        balanced = witness.g - compose_shift(witness.g)
        assert in_cocycle_group(witness.tau0, psi(h_level, balanced)) != in_cocycle_group(
            witness.tau0, pullback_map(balanced, h_level))
        witnesses.append(sha256(format_witness(witness)))
    witnesses = tuple(witnesses)
    tables = tuple(sha256(format_table(commutant_witness(h0))) for h0 in commutant_corpus())
    assert witnesses == TWISTED_WITNESS_DIGESTS
    assert tables == COMMUTANT_TABLE_DIGESTS


# -- one map, one witness ---------------------------------------------------------


def test_stage_splits_give_one_transducer_and_one_witness():
    """One map written as ``A``, the identity code, ``B`` and as the one
    table ``B A``, on 45 seeded pairs for each seed 0 to 7 over the three
    selftest matrices: one transducer, ``==``, and one witness (or None
    for both), since the witness search reads only the map."""
    witnesses = 0
    for seed in range(8):
        for matrix, a, b in stage_split_pairs(seed):
            split = coe_from_chain([a, identity_code(matrix), b])
            joined = coe_from_chain([compose(b, a)])
            assert split.transducer == joined.transducer
            witness = witness_non_conjugacy(split)
            assert witness == witness_non_conjugacy(joined)
            witnesses += witness is not None
    assert witnesses > 100
