"""Integer-valued locally constant functions with exact arithmetic.

A function that only depends on a finite prefix of its argument is stored
as a cylinder partition together with one integer per part.  The stored
form is canonical: whenever every admissible one-symbol extension of a
word carries the same value, those siblings are merged into their parent
(:func:`sft.merge_siblings` with the same-value rule).  Canonical forms
are unique, so ``==`` is function equality.

Values are Python ints, hence unbounded.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter

from .errors import BadPartition, NegativeExponent
from .sft import (
    EMPTY,
    Point,
    TransitionMatrix,
    Word,
    cylinder_run,
    family_error,
    merge_siblings,
    prefix_of,
    refine_until,
    refine_words,
    shift_point,
)

_word = itemgetter(0)  # the word of a piece, which pieces sort by


@dataclass(frozen=True)
class LocFun:
    """Locally constant integer function, canonical form.

    ``pieces`` maps each part of a complete prefix-free partition to the
    value taken on that cylinder, sorted by word.  Build instances with
    :func:`make` (validating) or the module operations, not directly.
    """

    matrix: TransitionMatrix
    pieces: tuple[tuple[Word, int], ...]

    @property
    def parts(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.pieces)

    def depth(self) -> int:
        return max((len(w) for w, _ in self.pieces), default=0)

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.pieces)

    def min_value(self) -> int:
        return min(v for _, v in self.pieces)

    def max_value(self) -> int:
        return max(v for _, v in self.pieces)

    def __add__(self, other: "LocFun") -> "LocFun":
        return linear(1, self, 1, other)

    def __sub__(self, other: "LocFun") -> "LocFun":
        return linear(1, self, -1, other)

    def __neg__(self) -> "LocFun":
        return scale(-1, self)


def _same_value(word: Word, value: int) -> int:
    return value


def canonical(matrix: TransitionMatrix, table: dict[Word, int]) -> LocFun:
    """The canonical function of a ``{word: value}`` table whose words
    already form a cylinder partition (not re-validated; see :func:`make`).

    A family merges when its members carry one value, which the parent
    takes (:func:`sft.merge_siblings`).
    """
    return LocFun(matrix, merge_siblings(matrix, sorted(table.items(), key=_word), _same_value))


def make(matrix: TransitionMatrix, pieces) -> LocFun:
    """Validate (partition completeness included) and canonicalize.

    ``pieces`` is a ``{word: value}`` mapping or ``(word, value)`` pairs, sorted
    once by word for the check and the merge; a repeated word is refused.
    """
    pairs = sorted(((tuple(w), int(v)) for w, v in (
        pieces.items() if isinstance(pieces, Mapping) else pieces)), key=_word)
    if error := family_error(matrix, [w for w, _ in pairs]):
        raise BadPartition(error)
    return LocFun(matrix, merge_siblings(matrix, pairs, _same_value))


def constant(matrix: TransitionMatrix, value: int) -> LocFun:
    return LocFun(matrix, (((), int(value)),))


def zero(matrix: TransitionMatrix) -> LocFun:
    return constant(matrix, 0)


def indicator(matrix: TransitionMatrix, word: Word) -> LocFun:
    """Characteristic function of the cylinder of ``word``: the prefixes of
    ``word`` are refined until each cylinder is ``word``'s or off it."""
    word = tuple(word)
    matrix.check_admissible(word)
    return canonical(matrix, dict(refine_until(matrix, [(EMPTY, ())], lambda w: (
        1 if w == word else None if w == word[:len(w)] else 0))))


def eval_at(f: LocFun, point: Point) -> int:
    """Value at a point by its own lookup, for the oracles ``rho_at`` and ``birkhoff_at``."""
    values = dict(f.pieces)
    word = point.prefix(f.depth())
    while word and word not in values:
        word = word[:-1]
    return values[word]


def restrict(f: LocFun, word: Word) -> list[tuple[Word, int]]:
    """Pieces of ``f`` covering exactly the cylinder of ``word``: the piece
    holding all of it, cut down to it, or else the pieces inside it."""
    above = prefix_of(f.pieces, word, _word)
    if above is not None:
        return [(word, above[1])]
    return list(cylinder_run(f.pieces, word, _word))


def is_zero_on(f: LocFun, word: Word) -> bool:
    return all(v == 0 for _, v in restrict(f, word))


def on_refinement(*fs: LocFun):
    """Common refinement parts with the value tuple each function takes."""
    parts = refine_words(fs[0].matrix, [f.parts for f in fs])
    return [(part, tuple(prefix_of(f.pieces, part, _word)[1] for f in fs)) for part in parts]


def linear(a: int, f: LocFun, b: int, g: LocFun) -> LocFun:
    """The function ``a*f + b*g`` on the common refinement."""
    if f.matrix != g.matrix:
        raise ValueError("functions live over different matrices")
    table = {part: a * u + b * v for part, (u, v) in on_refinement(f, g)}
    return canonical(f.matrix, table)


def scale(a: int, f: LocFun) -> LocFun:
    return canonical(f.matrix, {w: a * v for w, v in f.pieces})


def equal(f: LocFun, g: LocFun) -> bool:
    """Function equality; canonical forms make this structural equality."""
    if f.matrix != g.matrix:
        raise ValueError("functions live over different matrices")
    return f.pieces == g.pieces


def compose_shift(f: LocFun) -> LocFun:
    """The function ``x -> f(shift(x))``."""
    table: dict[Word, int] = {}
    for w, v in f.pieces:
        if not w:
            table[w] = v
            continue
        for a in f.matrix.predecessors(w[0]):
            table[(a,) + w] = v
    return canonical(f.matrix, table)


def window_sum(f: LocFun, depth: int, word: Word, count: int):
    """Sum of ``f`` over the first ``count`` windows of ``word``, each
    ``depth = f.depth()`` symbols long; None while one fixes no piece.
    Only the last windows can be cut short, so they are read first."""
    out = 0
    for i in reversed(range(count)):
        piece = prefix_of(f.pieces, word[i: i + depth], _word)
        if piece is None:
            return None
        out += piece[1]
    return out


def birkhoff(f: LocFun, exponent: LocFun) -> LocFun:
    """Sum of ``f`` along the first ``exponent(x)`` shifts of ``x``.

    The exponent is itself locally constant and must be nonnegative; a
    zero exponent contributes the empty sum.  One walk settles every window.
    """
    if f.matrix != exponent.matrix:
        raise ValueError("functions live over different matrices")
    if exponent.min_value() < 0:
        raise NegativeExponent("iterated-sum exponent takes a negative value")
    depth = f.depth()
    roots = [(word, (count,)) for word, count in exponent.pieces]
    return canonical(f.matrix, dict(refine_until(
        f.matrix, roots, lambda word, count: window_sum(f, depth, word, count))))


def birkhoff_at(f: LocFun, n: int, point: Point) -> int:
    """Literal sum of ``f`` along the orbit of one point (test oracle)."""
    total = 0
    for _ in range(n):
        total += eval_at(f, point)
        point = shift_point(point)
    return total
