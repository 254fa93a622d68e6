"""Matrix invariants as independent oracles for the code layer.

Two classical integer invariants of a transition matrix are computed here
by plain elimination, reading nothing of the library but ``rows``:

* Williams' total column amalgamation (R. F. Williams, *Classification of
  subshifts of finite type*, Ann. Math. 1973): merge two symbols whose
  columns are equal, adding their rows, until no two columns are equal.
  Two one-sided shifts of finite type are conjugate exactly when the
  results are isomorphic.
* The Bowen-Franks group ``coker(I - A)`` with the sign of
  ``det(I - A)``, read off a Smith form.  By Matsumoto-Matui
  (*Continuous orbit equivalence of topological Markov shifts and
  Cuntz-Krieger algebras*, Kyoto J. Math. 2014) the pair classifies
  continuous orbit equivalence, the weaker relation that the paper's
  non-conjugacy witness separates from conjugacy.

So every block code that ``make_code`` or ``relabel_code`` accepts joins
matrices with isomorphic amalgamations, every block presentation keeps
both invariants, and the golden-mean shift and the full 2-shift share the
orbit equivalence invariants but not the amalgamation.
"""

import itertools
from fractions import Fraction

import pytest

from shiftgroups.codes import higher_block_codes, make_code, relabel_code
from shiftgroups.errors import ShiftError
from shiftgroups.selftest import FULL_TWO, GOLDEN_MEAN, MATRICES, TRIANGLE
from shiftgroups.sft import enumerate_words

MATRIX_IDS = [name for name, _ in MATRICES]


def amalgamate(rows):
    """Williams' total column amalgamation of a nonnegative integer matrix."""
    a = [list(row) for row in rows]
    while True:
        n = len(a)
        columns = [tuple(row[j] for row in a) for j in range(n)]
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if columns[i] == columns[j]), None)
        if pair is None:
            return tuple(map(tuple, a))
        i, j = pair
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        del a[j]
        for row in a:
            del row[j]


def isomorphic(a, b):
    """Equal up to one permutation of the rows and the columns."""
    n = len(a)
    return len(b) == n and any(
        all(a[p[i]][p[j]] == b[i][j] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n)))


def smith_diagonal(m):
    """The Smith form diagonal of a square integer matrix, by elimination."""
    m = [list(row) for row in m]
    n = len(m)
    diagonal = []
    for t in range(n):
        while True:
            nonzero = [(abs(m[i][j]), i, j) for i in range(t, n)
                       for j in range(t, n) if m[i][j]]
            if not nonzero:
                return diagonal + [0] * (n - t)
            _, i, j = min(nonzero)
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            p = m[t][t]
            for i in range(t + 1, n):
                q = m[i][t] // p
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
            for j in range(t + 1, n):
                q = m[t][j] // p
                for row in m:
                    row[j] -= q * row[t]
            if any(m[i][t] for i in range(t + 1, n)) or any(m[t][j] for j in range(t + 1, n)):
                continue
            bad = next((i for i in range(t + 1, n)
                        for j in range(t + 1, n) if m[i][j] % p), None)
            if bad is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
        diagonal.append(abs(m[t][t]))
    return diagonal


def det_sign(m):
    """The sign of the determinant, by elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in m]
    n, sign = len(m), 1
    for t in range(n):
        pivot = next((i for i in range(t, n) if m[i][t]), None)
        if pivot is None:
            return 0
        if pivot != t:
            m[t], m[pivot] = m[pivot], m[t]
            sign = -sign
        if m[t][t] < 0:
            sign = -sign
        for i in range(t + 1, n):
            q = m[i][t] / m[t][t]
            m[i] = [x - q * y for x, y in zip(m[i], m[t])]
    return sign


def bowen_franks(rows):
    """``coker(I - A)`` as its sorted cyclic orders other than 1 (0 for a
    copy of Z), with the sign of ``det(I - A)``."""
    n = len(rows)
    shifted = [[(i == j) - rows[i][j] for j in range(n)] for i in range(n)]
    return tuple(sorted(d for d in smith_diagonal(shifted) if d != 1)), det_sign(shifted)


# -- the invariants on known shifts ---------------------------------------------


def test_known_invariants():
    """Golden mean and the full 2-shift: a trivial group and det(I - A) = -1
    for both, but amalgamations that are not isomorphic, so they are orbit
    equivalent and not one-sided conjugate.  The triangle's group is
    (Z/2)^2 with a negative determinant."""
    assert bowen_franks(GOLDEN_MEAN.rows) == bowen_franks(FULL_TWO.rows) == ((), -1)
    assert bowen_franks(TRIANGLE.rows) == ((2, 2), -1)
    assert amalgamate(FULL_TWO.rows) == ((2,),)
    assert amalgamate(GOLDEN_MEAN.rows) == GOLDEN_MEAN.rows
    assert not isomorphic(amalgamate(GOLDEN_MEAN.rows), amalgamate(FULL_TWO.rows))
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_block_presentations_keep_both_invariants(matrix):
    """The m-block presentations, m = 2..4, amalgamate back to the base's
    amalgamation and have the base's group and sign."""
    base = amalgamate(matrix.rows)
    for m in (2, 3, 4):
        block, _, _ = higher_block_codes(matrix, m)
        assert isomorphic(amalgamate(block.rows), base)
        assert bowen_franks(block.rows) == bowen_franks(matrix.rows)


# -- every accepted code joins conjugate shifts -----------------------------------


def block_maps(source, target, window):
    """Every map from the admissible source windows to target symbols."""
    windows = enumerate_words(source, window)
    for images in itertools.product(target.symbols(), repeat=len(windows)):
        yield dict(zip(windows, images))


def candidate_codes():
    """Calls of ``make_code`` and ``relabel_code``: every map with
    windows up to 2 each way between the golden-mean and full 2-shifts and
    from the golden mean to its 2-block presentation, the relabelings
    along every permutation between same-size selftest matrices, and the
    block presentations' encode codes rebuilt from their tables."""
    golden2, _, _ = higher_block_codes(GOLDEN_MEAN, 2)
    for source, target in ((GOLDEN_MEAN, FULL_TWO), (FULL_TWO, GOLDEN_MEAN),
                           (GOLDEN_MEAN, golden2)):
        for window, inverse_window in itertools.product((1, 2), repeat=2):
            for mapping in block_maps(source, target, window):
                for inverse in block_maps(target, source, inverse_window):
                    yield make_code, (source, target, window, mapping,
                                      inverse_window, inverse)
    for (_, source), (_, target) in itertools.product(MATRICES, repeat=2):
        if source.n == target.n:
            for image in itertools.permutations(source.symbols()):
                yield relabel_code, (source, target, dict(zip(source.symbols(), image)))
    for _, matrix in MATRICES:
        for m in (2, 3):
            block, encode, _ = higher_block_codes(matrix, m)
            yield make_code, (matrix, block, m, dict(encode.mapping),
                              1, dict(encode.inverse_mapping))


def test_accepted_codes_join_isomorphic_amalgamations():
    """No accepted code joins shifts with different amalgamations; in
    particular every block map between the golden-mean and full 2-shifts
    is rejected."""
    accepted = rejected = 0
    for build, args in candidate_codes():
        try:
            code = build(*args)
        except ShiftError:
            rejected += 1
            continue
        accepted += 1
        assert isomorphic(amalgamate(code.source.rows), amalgamate(code.target.rows)), code
    assert accepted > 10 and rejected > 1000
