"""Prefix-exchange tables: the computable continuous full group.

A table is a finite list of entries ``nu -> mu`` whose source words and
target words each partition the shift space, with matching follower rows
(the last symbols of ``nu`` and ``mu`` allow the same successors).  The
entry acts by rewriting the prefix: a point ``nu y`` maps to ``mu y``.
Such homeomorphisms match shift orbits up to the locally constant
exponents ``k`` (target side) and ``l`` (source side), and form a group
under composition.

Tables are kept in canonical form -- entries sorted by source word, with
every full sibling family ``(nu a -> mu a)`` over all admissible letters
``a`` collapsed to ``(nu -> mu)`` whenever ``nu`` and ``mu`` are nonempty
and allow the same successors (:func:`sft.merge_siblings`) -- so ``==``
decides equality in the group.  Sorted sources also make the entry above
a word one bisection (:func:`sft.prefix_of`) and the entries below it one
run (:func:`sft.cylinder_run`), for applying and composing with no walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import (
    DomainNotPartition,
    EqualSymbols,
    FollowerMismatch,
    ImageNotPartition,
    Inadmissible,
    InadmissiblePair,
    InadmissibleWord,
)
from .functions import LocFun, canonical, window_sum
from .sft import (EMPTY, Point, TransitionMatrix, Word, canonical_point, cylinder_run,
                  enumerate_words, family_error, merge_siblings, part_at, prefix_of, refine_until,
                  walk, word_name)

Entry = tuple[Word, Word]
_source = itemgetter(0)  # the source word of an entry, which entries sort by


@dataclass(frozen=True)
class TableElement:
    """Element of the continuous full group, as a canonical table.

    Build instances with :func:`validate_table` (validating) or
    :func:`canonical_table` (trusting entries the library built), not
    directly.  Lookups bisect the source-sorted entries: a canonical table's
    own, which its merge left sorted, or for a table built directly from
    unsorted entries a sorted copy, made on its first lookup.
    """

    matrix: TransitionMatrix
    entries: tuple[Entry, ...]

    # Not fields, so ``==``, ``hash`` and ``repr`` see only the fields above.
    @cached_property
    def _by_source(self) -> tuple[Entry, ...]:
        return tuple(sorted(self.entries))

    @cached_property
    def _depth(self) -> int:
        return max(len(nu) for nu, _ in self.entries)

    @property
    def domain_words(self) -> tuple[Word, ...]:
        return tuple(nu for nu, _ in self.entries)

    def entry_for(self, point: Point) -> Entry:
        return part_at(self._by_source, point, self._depth, _source)

    def entry_at(self, word: Word) -> Entry | None:
        """The entry whose source is a prefix of ``word``, or None."""
        return prefix_of(self._by_source, word, _source)

    def is_identity(self) -> bool:
        return all(nu == mu for nu, mu in self.entries)


def validate_table(matrix: TransitionMatrix, entries) -> TableElement:
    """Validate raw ``(nu, mu)`` pairs and return the canonical table.

    The entries are sorted by source once, and the targets once.  Raises
    the first failure in this order: :class:`InadmissibleWord` for an empty
    word; then the sorted sources, then the sorted targets, each read in one
    pass (:func:`sft.family_error`) that names a family's first defect
    (:class:`InadmissibleWord` for an inadmissible word, else
    :class:`DomainNotPartition` or :class:`ImageNotPartition`); then
    :class:`FollowerMismatch` for the first entry by source whose words
    allow different successors (two ``followers`` rows that are not one).
    So the error does not depend on the order of the entries.
    """
    ordered = sorted(((tuple(nu), tuple(mu)) for nu, mu in entries), key=_source)
    if not all(nu and mu for nu, mu in ordered):
        raise InadmissibleWord("table words must be nonempty")
    for words, error in (([nu for nu, _ in ordered], DomainNotPartition),
                         (sorted(mu for _, mu in ordered), ImageNotPartition)):
        try:
            message = family_error(matrix, words)
        except Inadmissible as exc:
            raise InadmissibleWord(str(exc)) from exc
        if message:
            raise error(message)
    row = matrix.followers
    for nu, mu in ordered:
        if row[nu[-1]] is not row[mu[-1]]:
            raise FollowerMismatch(
                f"entry {word_name(nu)} -> {word_name(mu)} pairs different follower rows")
    return _merged(matrix, ordered)


def canonical_table(matrix: TransitionMatrix, entries) -> TableElement:
    """Canonical table of ``(nu, mu)`` entries, in any order, that already
    form a valid table, without re-checking them.

    For tables the library built itself; input goes through
    :func:`validate_table`.  A family ``nu a -> mu a`` over all letters
    ``a`` that follow ``nu`` merges into ``nu -> mu`` when ``nu`` and
    ``mu`` are nonempty and allow the same successors
    (:func:`sft.merge_siblings`), so no entry word is ever empty.
    """
    return _merged(matrix, sorted(entries, key=_source))


def _merged(matrix: TransitionMatrix, ordered) -> TableElement:
    """The canonical table of valid entries sorted by source; its merged
    entries, sorted, serve its lookups as they are."""
    row = matrix.followers

    def lift(nu: Word, mu: Word) -> Word | None:
        if len(mu) < 2 or len(nu) < 2 or nu[-1] != mu[-1] or row[nu[-2]] is not row[mu[-2]]:
            return None
        return mu[:-1]

    table = TableElement(matrix, merge_siblings(matrix, ordered, lift))
    object.__setattr__(table, "_by_source", table.entries)
    return table


def identity_table(matrix: TransitionMatrix) -> TableElement:
    return TableElement(matrix, tuple(((a,), (a,)) for a in matrix.symbols()))


def apply(table: TableElement, point: Point) -> Point:
    """Image of a point: rewrite its matching source prefix, in one step.

    ``mu`` ends in a letter with the follower row of ``nu``'s last letter,
    so ``mu y`` is admissible whenever ``nu y`` is, and nothing is
    re-checked.  When the source ends inside the transient, what is left
    of it still ends off the cycle, so the point is canonical as it is.
    """
    nu, mu = table.entry_for(point)
    u, w, n = point.transient, point.cycle, len(nu)
    if n < len(u):
        return Point(table.matrix, mu + u[n:], w)
    r = (n - len(u)) % len(w)
    return canonical_point(table.matrix, mu, w[r:] + w[:r])


def compose(outer: TableElement, inner: TableElement) -> TableElement:
    """The table of ``outer after inner``, canonical.

    The outer sources partition the space, so an inner target ``mu`` lies
    in one, ``a -> b``, giving ``nu -> b + mu[len(a):]``, or else each outer
    source ``mu c -> b`` of the sorted run under it gives ``nu c -> b``.
    """
    if outer.matrix != inner.matrix:
        raise ValueError("tables live over different matrices")
    by_source, entries = outer._by_source, []
    for nu, mu in inner.entries:
        above = outer.entry_at(mu)
        if above is None:
            entries += [(nu + a[len(mu):], b) for a, b in cylinder_run(by_source, mu, _source)]
        else:
            entries.append((nu, above[1] + mu[len(above[0]):]))
    return canonical_table(inner.matrix, entries)


def invert(table: TableElement) -> TableElement:
    """Swap source and target words; the group inverse."""
    return canonical_table(table.matrix, ((mu, nu) for nu, mu in table.entries))


def cocycle_data_from_entries(matrix: TransitionMatrix, entries) -> tuple[LocFun, LocFun, LocFun]:
    """Exponents ``(k, l) = (|mu|, |nu|)`` on the cylinder of each raw entry
    ``nu -> mu``, where ``shift^k(tau(x)) = shift^l(x)``, and ``d = l - k``,
    which is the same for every valid entry presentation of the same map."""
    k = canonical(matrix, {tuple(nu): len(mu) for nu, mu in entries})
    l = canonical(matrix, {tuple(nu): len(nu) for nu, mu in entries})
    return k, l, l - k


def cocycle_data(table: TableElement) -> tuple[LocFun, LocFun, LocFun]:
    """Exponent functions ``(k, l, d)`` of a table, from its entries."""
    return cocycle_data_from_entries(table.matrix, table.entries)


def cylinder_swap(matrix: TransitionMatrix, u: Word, v: Word) -> TableElement:
    """The involution exchanging the cylinders of ``u`` and ``v``, fixing
    everything else.  The words must be admissible and incomparable, with
    last symbols that allow the same successors (not re-checked)."""
    def image(word: Word):
        if word in (u, v):
            return v if word == u else u
        return None if word in (u[:len(word)], v[:len(word)]) else word

    return canonical_table(matrix, refine_until(matrix, [(EMPTY, ())], image))


def block_swap_pairs(matrix: TransitionMatrix, level: int):
    """The pairs ``(w a, w[1:] a)`` of level-``level`` words ``w`` and
    successors ``a`` of ``w[-1]``, but not ``w[1:] a == w``, in block order:
    on the base shift, the level's block presentation (the sliding window
    recoding) swaps the blocks ``w`` and ``w[1:] a`` as these cylinders."""
    for word, _ in walk(matrix, EMPTY, level + 1):
        if word[1:] != word[:-1]:
            yield word, word[1:]


def prefix_swap(matrix: TransitionMatrix, z1: int, z2: int) -> TableElement:
    """The involution exchanging the cylinders of ``z1 z2`` and ``z2``.

    Sends ``z1 z2 y`` to ``z2 y``, ``z2 y`` to ``z1 z2 y`` and fixes
    everything else.
    """
    if z1 == z2:
        raise EqualSymbols("swap needs two distinct symbols")
    if not (1 <= z1 <= matrix.n and 1 <= z2 <= matrix.n and matrix.entry(z1, z2)):
        raise InadmissiblePair(f"{z1} -> {z2} is not an admissible transition")
    return cylinder_swap(matrix, (z1, z2), (z2,))


def pullback_table(f: LocFun, table: TableElement) -> LocFun:
    """The function ``x -> f(tau(x))``: each entry ``nu -> mu`` is refined
    until the image prefix it determines fixes ``f``'s piece."""
    if f.matrix != table.matrix:
        raise ValueError("function and table live over different matrices")
    depth = f.depth()

    def value(word: Word, nu: Word, mu: Word):
        return window_sum(f, depth, mu + word[len(nu):], 1)

    roots = [(nu, (nu, mu)) for nu, mu in table.entries]
    return canonical(table.matrix, dict(refine_until(table.matrix, roots, value)))


def pad_entry(matrix: TransitionMatrix, entry: Entry, depth: int) -> list[Entry]:
    """Replace an entry by its sibling refinements, ``depth`` levels down."""
    nu, mu = entry
    return [(w, mu + w[len(nu):]) for w, _ in walk(matrix, nu, len(nu) + depth)]


def random_element(matrix: TransitionMatrix, depth_budget: int, seed: int) -> TableElement:
    """Seeded random table: a product of cylinder swaps.

    Factors are the prefix swaps of block levels up to ``depth_budget -
    1``, read on the base shift (:func:`block_swap_pairs`), mixed with
    same-length cylinder exchanges.  Deterministic for a fixed seed.
    """
    if depth_budget < 2:
        raise ValueError("depth budget must be >= 2")
    rng = random.Random(seed)
    result = identity_table(matrix)
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.6:
            pairs = list(block_swap_pairs(matrix, rng.randint(1, depth_budget - 1)))
            factor = cylinder_swap(matrix, *pairs[rng.randrange(len(pairs))])
        else:
            factor = _pair_exchange(matrix, depth_budget, rng)
        result = compose(factor, result)
    return result


def _pair_exchange(matrix: TransitionMatrix, depth_budget: int, rng) -> TableElement:
    """Exchange two same-length incomparable cylinders, identity elsewhere."""
    length = rng.randint(2, depth_budget)
    words, row = enumerate_words(matrix, length), matrix.followers
    pairs = [
        (a, b)
        for i, a in enumerate(words)
        for b in words[i + 1:]
        if row[a[-1]] is row[b[-1]]
    ]
    if not pairs:
        return identity_table(matrix)
    return cylinder_swap(matrix, *pairs[rng.randrange(len(pairs))])
