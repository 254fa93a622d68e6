"""Shift-space basics against brute-force oracles."""

import itertools
import random

import pytest
from conftest import run_python

from shiftgroups.codes import higher_block
from shiftgroups.errors import BadPartition, Inadmissible, NotZeroOne, Permutation, Reducible
from shiftgroups.sft import (
    TransitionMatrix,
    canonicalize_point,
    enumerate_words,
    partition,
    refine,
    representative,
    shift_point,
    validate_matrix,
)

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def brute_force_words(matrix, m):
    """Oracle: filter all n^m candidate tuples by admissibility."""
    out = []
    for word in itertools.product(matrix.symbols(), repeat=m):
        if matrix.is_admissible(word):
            out.append(word)
    return out


def unfold(point, k):
    """Oracle: the first k symbols as a list."""
    return [point.symbol(i) for i in range(1, k + 1)]


# -- matrices -----------------------------------------------------------------


def test_validate_accepts_golden_mean():
    m = validate_matrix([[1, 1], [1, 0]])
    assert m.n == 2
    assert m.successors(1) == (1, 2)
    assert m.successors(2) == (1,)


def test_matrix_compares_and_prints_by_its_fields():
    """Every stage compares matrices, so two matrices validated from one grid
    are equal with one hash, and the row tables kept beside the fields show
    neither in ``repr`` nor in the class's field names."""
    grid = [[1, 1], [1, 0]]
    m1, m2 = validate_matrix(grid), validate_matrix(grid)
    assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
    assert repr(m1) == "TransitionMatrix(n=2, rows=((1, 1), (1, 0)))"
    assert TransitionMatrix._fields == ("n", "rows")
    assert {"followers", "_after", "_predecessors"} <= set(vars(m1)) - {"n", "rows"}


def test_validate_rejects_permutation():
    with pytest.raises(Permutation):
        validate_matrix([[0, 1], [1, 0]])


def test_validate_rejects_reducible():
    with pytest.raises(Reducible):
        validate_matrix([[1, 0], [0, 1]])
    with pytest.raises(Reducible):
        validate_matrix([[1, 1], [0, 1]])


def test_validate_rejects_bad_entries():
    with pytest.raises(NotZeroOne):
        validate_matrix([[1, 2], [1, 0]])


def test_validate_rejects_single_loop_as_permutation():
    with pytest.raises(Permutation):
        validate_matrix([[1]])


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate_matrix([[1, 1]])


# -- words --------------------------------------------------------------------


def test_enumerate_words_examples():
    assert enumerate_words(G, 2) == [(1, 1), (1, 2), (2, 1)]
    assert len(enumerate_words(FULL2, 3)) == 8
    assert enumerate_words(G, 3) == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)]
    assert enumerate_words(G, 0) == [()]


@pytest.mark.parametrize("matrix", [G, FULL2, TRIANGLE])
@pytest.mark.parametrize("m", range(6))
def test_enumerate_words_matches_brute_force(matrix, m):
    assert enumerate_words(matrix, m) == brute_force_words(matrix, m)


@pytest.mark.parametrize("matrix", [G, FULL2, TRIANGLE])
def test_word_counts_satisfy_transfer_recurrence(matrix):
    for m in range(10):
        words = enumerate_words(matrix, m)
        successor_total = sum(
            len(matrix.successors(w[-1])) if w else matrix.n for w in words)
        assert successor_total == len(enumerate_words(matrix, m + 1))


def test_golden_mean_counts_are_fibonacci():
    counts = [len(enumerate_words(G, m)) for m in range(1, 7)]
    assert counts == [2, 3, 5, 8, 13, 21]


# -- points -------------------------------------------------------------------


def test_canonicalize_examples():
    p = canonicalize_point(FULL2, (1,), (2, 1))
    assert (p.transient, p.cycle) == ((), (1, 2))
    p = canonicalize_point(G, (), (1, 2, 1, 2))
    assert (p.transient, p.cycle) == ((), (1, 2))
    p = canonicalize_point(G, (2,), (1, 1))
    assert (p.transient, p.cycle) == ((2,), (1,))


def test_canonicalize_rejects_inadmissible():
    with pytest.raises(Inadmissible):
        canonicalize_point(G, (2,), (2,))
    with pytest.raises(Inadmissible):
        canonicalize_point(G, (), (1, 2, 2))
    with pytest.raises(Inadmissible):
        canonicalize_point(G, (), ())


def test_symbol_index_below_one_is_named():
    """``symbol`` is 1-indexed: an index below 1 raises a ``ValueError`` that
    names it, where a transient was read from its end and a bare cycle
    raised ``IndexError``."""
    for point in (canonicalize_point(FULL2, (1,), (2,)), canonicalize_point(FULL2, (), (1, 2))):
        assert unfold(point, 3) == [point.symbol(i) for i in (1, 2, 3)]
        for i in (0, -1, -5):
            with pytest.raises(ValueError, match=f"^symbol index {i} is not >= 1$"):
                point.symbol(i)


def test_canonical_equality_is_sequence_equality():
    rng = random.Random(11)
    for matrix in (G, FULL2, TRIANGLE):
        for _ in range(50):
            u = random_word(matrix, rng, 4)
            w = random_cycle(matrix, rng, u)
            u2 = random_word(matrix, rng, 4)
            w2 = random_cycle(matrix, rng, u2)
            a = canonicalize_point(matrix, u, w)
            b = canonicalize_point(matrix, u2, w2)
            horizon = 2 * (len(u) + len(w) + len(u2) + len(w2) + 2)
            assert (a == b) == (unfold(a, horizon) == unfold(b, horizon))


def random_word(matrix, rng, top):
    word = ()
    for _ in range(rng.randint(0, top)):
        exts = matrix.extensions(word)
        word = exts[rng.randrange(len(exts))]
    return word


def random_cycle(matrix, rng, before):
    """A cycle word admissible after ``before``, found by rejection."""
    while True:
        word = random_word(matrix, rng, 3)
        if not word:
            extensions = matrix.extensions(())
            word = extensions[rng.randrange(len(extensions))]
        if matrix.is_admissible(before + word + word) and matrix.entry(word[-1], word[0]):
            return word


def test_shift_examples():
    assert shift_point(canonicalize_point(G, (), (1, 2))).cycle == (2, 1)
    assert shift_point(canonicalize_point(G, (2,), (1,))) == canonicalize_point(G, (), (1,))
    fixed = canonicalize_point(G, (), (1,))
    assert shift_point(fixed) == fixed


def test_shift_commutes_with_canonicalization():
    rng = random.Random(5)
    for matrix in (G, FULL2, TRIANGLE):
        for _ in range(50):
            u = random_word(matrix, rng, 4)
            w = random_cycle(matrix, rng, u)
            point = canonicalize_point(matrix, u, w)
            if u:
                raw_shifted = canonicalize_point(matrix, u[1:], w)
            else:
                raw_shifted = canonicalize_point(matrix, (), w[1:] + w[:1])
            assert shift_point(point) == raw_shifted


def test_representative_examples():
    r = representative(G, (1, 2))
    assert (r.transient, r.cycle) == ((1, 2), (1,))
    r = representative(G, ())
    assert (r.transient, r.cycle) == ((), (1,))
    r = representative(FULL2, (2,))
    assert (r.transient, r.cycle) == ((2,), (1,))


@pytest.mark.parametrize("matrix", [G, FULL2, TRIANGLE])
def test_representative_lies_in_cylinder(matrix, depth=4):
    for word in enumerate_words(matrix, depth):
        point = representative(matrix, word)
        assert point.starts_with(word)
        assert point == canonicalize_point(matrix, point.transient, point.cycle)


# -- partitions ---------------------------------------------------------------


def test_partition_validation():
    partition(G, [(1,), (2,)])
    partition(G, [()])
    with pytest.raises(BadPartition):
        partition(G, [(1, 1), (1, 2)])
    with pytest.raises(BadPartition):
        partition(G, [(1,), (2,), (2, 1)])
    with pytest.raises(BadPartition):
        partition(FULL2, [(1, 1)])
    with pytest.raises(Inadmissible):
        partition(G, [(2, 2), (1,)])


@pytest.mark.parametrize("matrix, parts, error, message", [
    # Of several uncovered cylinders, the first in sorted order is named.
    (FULL2, [(1, 1), (2, 2)], BadPartition, "no part covers sequences through (1, 2)"),
    (FULL2, [(1, 1), (1, 2, 1)], BadPartition, "no part covers sequences through (1, 2, 2)"),
    (TRIANGLE, [(1, 2), (3,)], BadPartition, "no part covers sequences through (1, 3)"),
    (FULL2, [(2,)], BadPartition, "no part covers sequences through (1,)"),
    (FULL2, [(1,), (2, 1)], BadPartition, "no part covers sequences through (2, 2)"),
    # A repeat or a prefix is named before any gap, even one sorting first.
    (FULL2, [(1, 1), (2,), (2,)], BadPartition, "word (2,) repeats"),
    (FULL2, [(1, 1), (2,), (2, 1)], BadPartition, "(2,) is a prefix of (2, 1)"),
    (G, [(), (1,), (1,)], BadPartition, "() is a prefix of (1,)"),
    # An inadmissible member is named before any repeat, even one sorting first.
    (G, [(1,), (1,), (2, 2)], Inadmissible, "word (2, 2) is not admissible"),
    (G, [(1,), (1, 1), (2,), (3,)], Inadmissible, "word (3,) is not admissible"),
])
def test_partition_names_the_first_defect_of_the_first_kind(matrix, parts, error, message):
    with pytest.raises(error) as info:
        partition(matrix, parts)
    assert str(info.value) == message


def test_refine_examples():
    p = partition(G, [(1,), (2,)])
    q = partition(G, [(1, 1), (1, 2), (2,)])
    assert refine(p, q).parts == ((1, 1), (1, 2), (2,))
    p2 = partition(FULL2, [(1, 1), (1, 2), (2,)])
    q2 = partition(FULL2, [(1,), (2, 1), (2, 2)])
    assert refine(p2, q2).parts == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert refine(p, p) == p


def test_refine_is_symmetric_and_refines_both():
    rng = random.Random(3)
    for matrix in (G, TRIANGLE):
        for _ in range(20):
            p = random_partition(matrix, rng)
            q = random_partition(matrix, rng)
            r = refine(p, q)
            assert r == refine(q, p)
            for part in r.parts:
                assert any(part[: len(a)] == a for a in p.parts)
                assert any(part[: len(b)] == b for b in q.parts)


def random_partition(matrix, rng, depth=3):
    parts = {()}
    for _ in range(rng.randint(0, 4)):
        splittable = sorted(w for w in parts if len(w) < depth)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        parts.remove(word)
        parts.update(matrix.extensions(word))
    return partition(matrix, parts)


# -- higher blocks ------------------------------------------------------------


def test_higher_block_two_of_golden_mean():
    block, encode, decode = higher_block(G, 2)
    assert block.n == 3
    # symbols: 1 = 11, 2 = 12, 3 = 21
    assert block.rows == ((1, 1, 0), (0, 0, 1), (1, 1, 0))
    x = canonicalize_point(G, (), (1, 2))
    assert decode(encode(x)) == x


def test_higher_block_level_one_is_identity():
    block, encode, _ = higher_block(G, 1)
    assert block == G
    x = representative(G, (2, 1))
    assert encode(x) == x


def test_higher_block_full_shift_row_sums():
    block, _, _ = higher_block(FULL2, 2)
    assert block.n == 4
    assert all(sum(row) == 2 for row in block.rows)


@pytest.mark.parametrize("matrix", [G, FULL2, TRIANGLE])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_higher_block_conjugacy_laws(matrix, m):
    block, encode, decode = higher_block(matrix, m)
    for word in enumerate_words(matrix, m + 2):
        x = representative(matrix, word)
        assert decode(encode(x)) == x
        assert encode(shift_point(x)) == shift_point(encode(x))


# One instance of each of the package's ten value classes, small enough to
# print; run in process and in a ``python -O`` child.
VALUES = """
from shiftgroups.codes import identity_code
from shiftgroups.conjugacy import Witness
from shiftgroups.functions import indicator
from shiftgroups.orbit import coe_from_chain
from shiftgroups.selftest import SuiteResult
from shiftgroups.sft import canonicalize_point, partition, validate_matrix
from shiftgroups.tables import prefix_swap
from shiftgroups.transducer import from_table

G = validate_matrix([[1, 1], [1, 0]])
TAU = prefix_swap(G, 1, 2)
POINT = canonicalize_point(G, (2,), (1,))
INSTANCES = [G, POINT, partition(G, [(1,), (2,)]), indicator(G, (1,)), TAU,
             identity_code(G), from_table(TAU), coe_from_chain([TAU]),
             Witness(2, POINT, (1, 2), indicator(G, (2,)), TAU),
             SuiteResult("group-laws", True, "5 cases")]
"""

FROZEN = VALUES + """
for value in INSTANCES:
    for name in (*type(value)._fields, "extra"):
        for change in (lambda: setattr(value, name, None), lambda: delattr(value, name)):
            try:
                change()
            except AttributeError:
                continue
            print(type(value).__name__, name, "changed")
print(len(INSTANCES), "frozen")
"""

FIELDS = {
    "TransitionMatrix": ("n", "rows"),
    "Point": ("matrix", "transient", "cycle"),
    "CylinderPartition": ("matrix", "parts"),
    "LocFun": ("matrix", "pieces"),
    "TableElement": ("matrix", "entries"),
    "BlockCode": ("source", "target", "window", "mapping", "inverse_window",
                  "inverse_mapping"),
    "Transducer": ("core", "entries"),
    "CoeMap": ("pre", "core", "post", "transducer"),
    "Witness": ("level", "z", "pair", "g", "tau0"),
    "SuiteResult": ("name", "ok", "summary"),
}

# The repr of each instance no other test prints, ``{G}`` standing for the
# matrix's.
CODE = ("BlockCode(source={G}, target={G}, window=1, mapping=(((1,), 1), ((2,), 2)), "
        "inverse_window=1, inverse_mapping=(((1,), 1), ((2,), 2)))")
SWAP = "TableElement(matrix={G}, entries=(((1, 1), (1, 1)), ((1, 2), (2,)), ((2,), (1, 2))))"
REPRS = {
    "Point": "Point(matrix={G}, transient=(2,), cycle=(1,))",
    "CylinderPartition": "CylinderPartition(matrix={G}, parts=((1,), (2,)))",
    "LocFun": "LocFun(matrix={G}, pieces=(((1,), 1), ((2,), 0)))",
    "BlockCode": CODE,
    "CoeMap": (f"CoeMap(pre={SWAP}, core={CODE}, "
               "post=TableElement(matrix={G}, entries=(((1,), (1,)), ((2,), (2,)))), "
               f"transducer=Transducer(core={CODE}, "
               "entries=(((1, 1), (1, 1), 2), ((1, 2), (2,), 2), ((2,), (1, 2), 1))))"),
    "Witness": ("Witness(level=2, z=Point(matrix={G}, transient=(2,), cycle=(1,)), "
                f"pair=(1, 2), g=LocFun(matrix={{G}}, pieces=(((1,), 0), ((2,), 1))), tau0={SWAP})"),
    "SuiteResult": "SuiteResult(name='group-laws', ok=True, summary='5 cases')",
}


def value_instances():
    namespace = {}
    exec(VALUES, namespace)
    return namespace["INSTANCES"]


def test_values_keep_their_fields_and_nothing_else():
    """Each value class's fields are its annotations, in order.  Rebuilt
    from them, positionally, an instance is ``==`` with one hash; with one
    field too few or too many it raises ``TypeError``; against an instance
    of another class ``==`` is False, with no error; and ``repr`` names
    the fields, as pinned."""
    instances = value_instances()
    assert {type(value).__name__: type(value)._fields for value in instances} == FIELDS
    for value in instances:
        kind = type(value)
        fields = tuple(getattr(value, name) for name in kind._fields)
        copy = kind(*fields)
        assert copy is not value and copy == value and hash(copy) == hash(value)
        assert repr(copy) == repr(value)
        for wrong in (fields[:-1], fields + (None,)):
            with pytest.raises(TypeError):
                kind(*wrong)
        for other in instances:
            if other is not value:
                assert (value == other, value != other) == (False, True)
        assert value != fields
    matrix = repr(instances[0])
    printed = {type(value).__name__: repr(value).replace(matrix, "{G}") for value in instances}
    assert {name: printed[name] for name in REPRS} == REPRS


def test_values_refuse_assignment_and_deletion(capsys):
    """Assigning or deleting a field, or any other attribute, of a value
    raises ``AttributeError``, in process and in a ``python -O`` child."""
    exec(FROZEN, {})
    assert capsys.readouterr().out == "10 frozen\n"
    child = run_python("-O", "-c", FROZEN)
    assert (child.returncode, child.stdout, child.stderr) == (0, "10 frozen\n", "")
