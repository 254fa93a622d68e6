"""Differential tests: the partition kernels against their quadratic originals.

The reference functions below are the pairwise ``refine``, the
``any()``-scan completeness check and the fixpoint merge loops that the
library used before its linear kernels.  Each kernel must return exactly
what its reference returns on seeded random inputs over every matrix of
``selftest.MATRICES``.
"""

import random
import re

import pytest

from shiftgroups import functions as fn
from shiftgroups import tables
from shiftgroups.errors import BadPartition
from shiftgroups.functions import on_refinement
from shiftgroups.selftest import (
    MATRICES,
    commutant_corpus,
    conjugacy_corpus,
    random_chain,
    twisted_corpus,
)
from shiftgroups.sft import (
    EMPTY,
    CylinderPartition,
    _check_complete,
    enumerate_words,
    partition,
    refine,
    refine_words,
)
from shiftgroups.tables import pad_entry, random_element
from shiftgroups.transducer import _parts_under, post_shift, precompose_shift

MATRIX_IDS = [name for name, _ in MATRICES]


# -- reference kernels ----------------------------------------------------------


def reference_refine(p, q):
    """Pairwise refinement: the longer word of every comparable pair."""
    out = set()
    for a in p.parts:
        for b in q.parts:
            if b[: len(a)] == a:
                out.add(b)
            elif a[: len(b)] == b:
                out.add(a)
    return CylinderPartition(p.matrix, tuple(sorted(out)))


def reference_refine_words(matrix, families):
    acc = CylinderPartition(matrix, (EMPTY,))
    for family in families:
        acc = reference_refine(acc, CylinderPartition(matrix, tuple(sorted(family))))
    return acc.parts


def reference_check_complete(matrix, parts):
    stack = [EMPTY]
    while stack:
        node = stack.pop()
        if node in parts:
            continue
        for child in matrix.extensions(node):
            if child in parts:
                continue
            if not any(p[: len(child)] == child for p in parts):
                raise BadPartition(f"no part covers sequences through {child}")
            stack.append(child)


def reference_merge_siblings(matrix, table):
    changed = True
    while changed:
        changed = False
        for word in sorted(table, key=len, reverse=True):
            if word not in table or not word:
                continue
            parent = word[:-1]
            family = matrix.extensions(parent)
            if all(table.get(c) == table[word] for c in family):
                value = table[word]
                for c in family:
                    del table[c]
                table[parent] = value
                changed = True
    return table


def reference_merge_entries(matrix, entries):
    changed = True
    while changed:
        changed = False
        for nu in sorted(entries, key=len, reverse=True):
            if nu not in entries or len(nu) < 2:
                continue
            mu = entries[nu]
            if len(mu) < 2 or nu[-1] != mu[-1]:
                continue
            p_nu, p_mu = nu[:-1], mu[:-1]
            letters = matrix.successors(p_nu[-1])
            if matrix.successors(p_mu[-1]) != letters:
                continue
            family = [(p_nu + (a,), p_mu + (a,)) for a in letters]
            if all(entries.get(src) == dst for src, dst in family):
                for src, _ in family:
                    del entries[src]
                entries[p_nu] = p_mu
                changed = True
    return entries


# -- seeded inputs ----------------------------------------------------------------


def random_parts(matrix, rng, depth=5, splits=12):
    """A complete prefix-free family: the empty word split at random."""
    parts = {EMPTY}
    for _ in range(rng.randint(0, splits)):
        splittable = sorted(w for w in parts if len(w) < depth)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        parts.remove(word)
        parts.update(matrix.extensions(word))
    return parts


def random_piece_table(matrix, rng):
    """Values on a random partition, then split further keeping values, so
    merges cascade over several levels; a few values are then changed."""
    table = {w: rng.randint(-1, 1) for w in random_parts(matrix, rng, depth=3, splits=5)}
    for _ in range(rng.randint(0, 10)):
        splittable = sorted(w for w in table if len(w) < 6)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        value = table.pop(word)
        for child in matrix.extensions(word):
            table[child] = value
    words = sorted(table)
    for _ in range(rng.randint(0, 2)):
        table[words[rng.randrange(len(words))]] = rng.randint(-1, 1)
    return shuffled(table, rng)


def shuffled(table, rng):
    items = list(table.items())
    rng.shuffle(items)
    return dict(items)


# -- refine -----------------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_refine_matches_pairwise_reference(matrix):
    rng = random.Random(11)
    for _ in range(200):
        p = partition(matrix, random_parts(matrix, rng))
        q = partition(matrix, random_parts(matrix, rng))
        assert refine(p, q) == reference_refine(p, q)
    for _ in range(50):
        families = [random_parts(matrix, rng) for _ in range(rng.randint(1, 4))]
        assert refine_words(matrix, families) == reference_refine_words(matrix, families)


# -- completeness check -----------------------------------------------------------


def check_message(check, matrix, parts):
    try:
        check(matrix, frozenset(parts))
    except BadPartition as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_completeness_check_matches_reference(matrix):
    rng = random.Random(13)
    incomplete = 0
    for _ in range(300):
        parts = sorted(random_parts(matrix, rng))
        if len(parts) > 1:
            # Drop one part, and sometimes put back part of its subtree.
            gone = parts.pop(rng.randrange(len(parts)))
            children = list(matrix.extensions(gone))
            parts.extend(c for c in children if rng.random() < 0.5)
        expected = check_message(reference_check_complete, matrix, parts)
        assert check_message(_check_complete, matrix, parts) == expected
        if expected is not None:
            incomplete += 1
            with pytest.raises(BadPartition, match=re.escape(expected)):
                partition(matrix, parts)
    assert incomplete > 100


# -- canonical merges -------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_merge_siblings_matches_fixpoint_reference(matrix):
    rng = random.Random(17)
    merged = 0
    for _ in range(300):
        table = random_piece_table(matrix, rng)
        expected = reference_merge_siblings(matrix, dict(table))
        assert fn._merge_siblings(matrix, dict(table)) == expected
        merged += len(expected) < len(table)
    assert merged > 100


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_merge_entries_matches_fixpoint_reference(matrix):
    rng = random.Random(19)
    for seed in range(60):
        tau = random_element(matrix, 3, seed)
        entries = {}
        for entry in tau.entries:
            for nu, mu in pad_entry(matrix, entry, rng.randint(0, 3)):
                entries[nu] = mu
        entries = shuffled(entries, rng)
        expected = reference_merge_entries(matrix, dict(entries))
        assert tables._merge_entries(matrix, dict(entries)) == expected
        assert sorted(expected.items()) == list(tau.entries)


# -- restriction of a refinement to a cylinder ------------------------------------


def chain_maps():
    maps = conjugacy_corpus() + twisted_corpus() + commutant_corpus()
    rng = random.Random(23)
    for _, matrix in MATRICES:
        maps.extend(random_chain(matrix, rng) for _ in range(4))
    return maps


def test_parts_under_matches_three_family_refinement():
    """``difference_parts`` refines two transducer partitions and then
    restricts to ``under``; the reference refines with ``[under]`` as a
    third family and keeps the words inside its cylinder."""
    cases = 0
    for h in chain_maps():
        t = h.transducer
        lhs = post_shift(precompose_shift(t), h.k1)
        rhs = post_shift(t, h.l1)
        matrix = t.source
        unders = {part for part, _ in on_refinement(h.k1, h.l1)}
        unders.update(w for depth in range(4) for w in enumerate_words(matrix, depth))
        unders.update(lhs.parts[:20])
        for under in sorted(unders):
            expected = [p for p in reference_refine_words(matrix, [lhs.parts, rhs.parts, [under]])
                        if p[: len(under)] == under]
            assert _parts_under(lhs, rhs, under) == expected
            cases += 1
    assert cases > 1000
