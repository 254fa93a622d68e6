"""Integer weight cocycles over tables and the subgroups they carve out.

For a locally constant integer weight ``f`` and a table ``tau``, the
cocycle value at ``x`` is the ``f``-sum over the matched initial orbit
segments:

    sum of f along the first l(x) shifts of x
    minus the sum of f along the first k(x) shifts of tau(x),

where ``(k, l)`` is any valid exponent pair for ``tau``; the result is
independent of that choice.  The elements on which the cocycle vanishes
identically form a subgroup; with weight 1 the cocycle degenerates to the
exponent difference ``d``, whose vanishing picks out the exchanges that
never shift the tape.

With ``(k, l) = (|mu|, |nu|)`` on the cylinder of an entry ``nu -> mu``
the cocycle is entrywise.  For ``f`` of depth ``D`` and each admissible
word ``e`` of ``D - 1`` symbols that can follow ``nu``, on the cylinder
of ``nu e``:

    rho = sum_{i < |nu|} f((nu e)[i:i+D]) - sum_{i < |mu|} f((mu e)[i:i+D])

(``mu e`` is admissible: ``nu`` and ``mu`` end in symbols with the same
successors).  Windows starting in a common suffix of ``nu`` and ``mu``
cancel.  One walk refines each entry's cylinder until the rest are
fixed, so the cost follows the table's words, not ``max(k)`` shifted
copies of ``f``.
"""

from __future__ import annotations

from .functions import LocFun, birkhoff, canonical, constant, eval_at, window_sum
from .sft import Point, Word, refine_until, shift_point
from .tables import TableElement, apply


def rho(f: LocFun, table: TableElement) -> LocFun:
    """The weight-transfer cocycle of ``f`` across ``table``, exactly."""
    return rho_from_entries(f, table, table.entries)


def rho_from_entries(f: LocFun, table: TableElement, entries) -> LocFun:
    """Same cocycle computed from an unmerged entry presentation.

    Exposed so refined presentations of one map can be checked to give
    the same function.  One walk from the entries fixes both window sums.
    """
    if f.matrix != table.matrix:
        raise ValueError("functions live over different matrices")
    depth = f.depth()

    def decide(word: Word, n: int, mu: Word, shared: int):
        plus = window_sum(f, depth, word, n - shared)
        minus = None if plus is None else window_sum(f, depth, mu + word[n:], len(mu) - shared)
        return None if minus is None else plus - minus

    roots = []
    for nu, mu in ((tuple(nu), tuple(mu)) for nu, mu in entries):
        shared, bound = 0, min(len(nu), len(mu))
        while shared < bound and nu[-1 - shared] == mu[-1 - shared]:
            shared += 1
        roots.append((nu, (len(nu), mu, shared)))
    return canonical(f.matrix, dict(refine_until(f.matrix, roots, decide)))


def rho_at(f: LocFun, table: TableElement, point: Point, inclusive: bool = False) -> int:
    """Pointwise cocycle value by literal orbit sums (independent oracle).

    With ``inclusive`` the sums run one step further on both sides; the
    extra terms cancel, so both forms agree everywhere.
    """
    nu, mu = table.entry_for(point)
    k, l = len(mu), len(nu)
    if inclusive:
        k, l = k + 1, l + 1
    total = 0
    x = point
    for _ in range(l):
        total += eval_at(f, x)
        x = shift_point(x)
    y = apply(table, point)
    for _ in range(k):
        total -= eval_at(f, y)
        y = shift_point(y)
    return total


def in_cocycle_group(table: TableElement, f: LocFun) -> bool:
    """Whether the cocycle of ``f`` vanishes identically on the table."""
    return rho(f, table).is_zero()


def in_af_group(table: TableElement) -> bool:
    """Whether the exponent difference ``d = |nu| - |mu|`` vanishes on every entry."""
    return all(len(nu) == len(mu) for nu, mu in table.entries)


def gauge_weight(table: TableElement, f: LocFun) -> LocFun:
    """Integer phase exponent the table's unitary picks up under the
    circle action with potential ``f``: the cocycle of the inverse."""
    return rho_from_entries(f, table, ((mu, nu) for nu, mu in table.entries))


def ck_word_weight(matrix_word: Word, f: LocFun) -> LocFun:
    """Phase exponent attached to the partial isometry of a word: the
    ``f``-sum over as many shifts as the word is long."""
    f.matrix.check_admissible(tuple(matrix_word))
    return birkhoff(f, constant(f.matrix, len(tuple(matrix_word))))
