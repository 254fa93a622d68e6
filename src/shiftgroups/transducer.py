"""Prefix-to-prefix transducers: normal forms for chain maps.

Every map built from prefix-exchange tables and one invertible block code
acts, on a fine enough cylinder, by writing a fixed target word and then
streaming the code over a shifted tail.  A :class:`Transducer` stores
exactly that: a core code plus entries ``(mu, alpha, r)`` meaning

    on the cylinder of ``mu``:  h(x) = alpha . code-stream(shift^r(x))

with the source words forming a complete prefix-free partition, sorted,
so the entry above a word is one bisection.  Stage application (one more
table, one more code, a shift on either side), the inverse of a stage list
and the conjugate of a table by one (:func:`conjugate_by_stages`) live here.
A stage, an orbit sum or a table is read in one walk from the entries whose
nodes carry the target word they determine, one window longer per child;
a potential transfer (:func:`transfer_sum`) walks the parts of ``t`` and
``t after shift`` with both words.

:func:`stage_transducer` reads a first table stage off the table's own
entries (:func:`from_table`), with no walk, and refines that transducer
by each later stage.  Every constructor builds through
:func:`canonical_transducer`, so one map has one transducer and map
equality is ``==``; ``t after shift`` is built once per transducer
(:func:`precompose_shift`).  Where two maps differ,
:func:`difference_parts` names the cylinders, aligning the shifts of each
pair of entries on a common refinement.  Each such check reads the core
stream over one cylinder: position ``p`` holds the symbol the core writes
at ``p`` on every point of the cylinder, or None where its points
disagree.  :func:`_stream` returns one run of positions as a tuple; each
part is read once, between the two shifts its checks compare.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from operator import itemgetter

from .codes import BlockCode, compose_codes, identity_code
from .errors import NegativeExponent, VerificationFailed
from .functions import LocFun, canonical, constant, restrict, window_sum
from .sft import (
    Point,
    TransitionMatrix,
    Value,
    Word,
    cylinder_run,
    expand_to_depth,
    merge_siblings,
    part_at,
    prefix_of,
    prepend_point,
    refine_until,
    refine_words,
    shift_point_n,
)
from .tables import TableElement, canonical_table, invert

Entry = tuple[Word, Word, int]
_word = itemgetter(0)  # the leading word of an entry or a piece, which both sort by


class Transducer(Value):
    """A chain map in normal form, built by :func:`canonical_transducer`:
    entries sorted by ``mu`` and reduced, siblings with one output merged."""

    core: BlockCode
    entries: tuple[Entry, ...]

    @property
    def source(self) -> TransitionMatrix:
        return self.core.source

    @property
    def target(self) -> TransitionMatrix:
        return self.core.target

    @property
    def parts(self) -> tuple[Word, ...]:
        return tuple(mu for mu, _, _ in self.entries)

    def entry_for(self, point: Point) -> Entry:
        return part_at(self.entries, point, self._depth, _word)

    # Not fields, so ``==``, ``hash`` and ``repr`` see only the fields above.
    @cached_property
    def _depth(self) -> int:
        return max(len(mu) for mu, _, _ in self.entries)

    @cached_property
    def _shifted(self) -> "Transducer":
        """:func:`precompose_shift`'s ``self after shift``."""
        return canonical_transducer(self.core, (
            ((a,) + mu, alpha, r + 1) for mu, alpha, r in self.entries
            for a in (self.source.predecessors(mu[0]) if mu else self.source.symbols())))


def _refine_entries(t: Transducer, decide, also: Transducer | None = None):
    """:func:`sft.refine_until` from the entries with state ``(known, alpha, r)``:
    ``known``, the target word the cylinder determines, is ``alpha`` and the core's
    stream past ``r``; a child adds the symbol of the window ending at its last letter.
    With ``also``, a transducer of the same core, the walk starts from the parts of
    the two's common refinement (:func:`_aligned`) and the state is both sides'
    ``(known, alpha, r)``, ``t``'s first, read off one stream from the lesser shift."""
    table, m = t.core.symbol_map(), t.core.window

    def step(word: Word, known: Word, alpha: Word, r: int):
        return (known + (table[word[-m:]],) if len(word) - r >= m else known), alpha, r

    def both(word: Word, known: Word, alpha: Word, r: int, known2: Word, alpha2: Word, r2: int):
        return step(word, known, alpha, r) + step(word, known2, alpha2, r2)

    aligned = None if also is None else list(_aligned(t, also))
    entries = t.entries if aligned is None else [
        (part, (), min(r, q)) for part, (_, _, r), (_, _, q) in aligned]
    roots = [(mu, (alpha + t.core.apply_word(mu[r:]), alpha, r)) for mu, alpha, r in entries]
    if aligned is not None:
        roots = [(part, (a + stream[r - lead:], a, r, b + stream[q - lead:], b, q))
                 for (part, (stream, _, lead)), (_, (_, a, r), (_, b, q)) in zip(roots, aligned)]
    return refine_until(t.source, roots, decide, step if aligned is None else both)


def canonical_transducer(core: BlockCode, entries) -> Transducer:
    """The canonical transducer of valid ``(mu, alpha, r)`` entries, in any
    order, whose words partition the source; nothing is re-checked.

    Each entry drops the last letter of ``alpha`` and one from ``r`` while the
    core writes that letter at position ``r`` all over the cylinder.  Past
    ``mu`` the stream is read one position at a time.  Inside it, once the
    last letter agrees, the common suffix of ``alpha`` and the core's word on
    ``mu`` comes off at once: the whole run when it agrees, else the part a
    bisection on suffix slices finds.  Siblings with one ``(alpha, r)`` then
    merge (:func:`sft.merge_siblings`); the merged entry is reduced, as they were."""
    matrix, table, m = core.source, core.symbol_map(), core.window

    def reduced(mu: Word, alpha: Word, r: int):
        n, inside = len(alpha), max(len(mu) - m + 1, 0)  # positions read off ``mu``
        while n and r > inside and alpha[n - 1] == _stream(matrix, core, mu, r - 1, r)[0]:
            n, r = n - 1, r - 1
        if n and r and r <= inside and alpha[n - 1] == table[mu[r - 1:r - 1 + m]]:
            j = min(n, r)
            written = core.apply_word(mu[r - j:r - 1 + m])  # positions r - j + 1 .. r
            if alpha[n - j:n] != written:
                j = bisect_left(range(j), True, 1,
                                key=lambda i: alpha[n - i - 1:n] != written[j - i - 1:])
            n, r = n - j, r - j
        return mu, (alpha[:n], r)

    merged = merge_siblings(matrix, sorted([reduced(*entry) for entry in entries]),
                            lambda word, output: output)
    return Transducer(core, tuple([(mu, alpha, r) for mu, (alpha, r) in merged]))


def identity_transducer(matrix: TransitionMatrix) -> Transducer:
    return canonical_transducer(identity_code(matrix), (((), (), 0),))


def from_table(table: TableElement) -> Transducer:
    return canonical_transducer(identity_code(table.matrix),
                                ((nu, mu, len(nu)) for nu, mu in table.entries))


def apply_table_stage(t: Transducer, table: TableElement) -> Transducer:
    """The transducer of ``table after t``."""
    if table.matrix != t.target:
        raise ValueError("table acts on the wrong shift space")

    def rewrite(mu: Word, known: Word, alpha: Word, r: int):
        if (entry := table.entry_at(known)) is None:
            return None
        nu, image = entry
        return image + alpha[len(nu):], (r + len(nu) - len(alpha) if len(nu) > len(alpha) else r)

    return canonical_transducer(t.core, (
        (mu, *output) for mu, output in _refine_entries(t, rewrite)))


def apply_code_stage(t: Transducer, code: BlockCode) -> Transducer:
    """The transducer of ``code after t``; cores compose."""
    if code.source != t.target:
        raise ValueError("code reads the wrong shift space")

    def recode(mu: Word, known: Word, alpha: Word, r: int):
        needed = len(alpha) + code.window - 1 if alpha else 0
        return None if len(known) < needed else (code.apply_word(known[:needed]), r)

    return canonical_transducer(compose_codes(code, t.core), (
        (mu, *output) for mu, output in _refine_entries(t, recode)))


def stage_transducer(source: TransitionMatrix, stages) -> Transducer:
    """The transducer of tables and codes applied in order; an identity stage
    is skipped.  A first table on ``source`` that changes the map is read
    off its own entries (:func:`from_table`); every later stage refines
    the transducer so far."""
    t = None  # the identity, until a stage changes the map
    for stage in stages:
        if isinstance(stage, TableElement):
            if not stage.is_identity():
                t = (from_table(stage) if t is None and stage.matrix == source
                     else apply_table_stage(t or identity_transducer(source), stage))
        elif stage != identity_code(stage.source):
            t = apply_code_stage(t or identity_transducer(source), stage)
    return t or identity_transducer(source)


def inverse_stages(stages) -> tuple:
    """The stages of the inverse map: in reverse order, each inverted."""
    return tuple(invert(stage) if isinstance(stage, TableElement) else stage.inverse()
                 for stage in reversed(stages))


def precompose_shift(t: Transducer) -> Transducer:
    """The transducer of ``t after shift``, built once per transducer."""
    return t._shifted


def post_shift(t: Transducer, n: LocFun) -> Transducer:
    """The transducer of ``shift^n after t`` for locally constant ``n >= 0``."""
    if n.matrix != t.source:
        raise ValueError("exponent lives over the wrong shift space")
    if n.min_value() < 0:
        raise ValueError("shift exponent must be nonnegative")
    return canonical_transducer(t.core, (
        (word, *_shift_entry(alpha, r, n0))
        for mu, alpha, r in t.entries for word, n0 in restrict(n, mu)))


def _shift_entry(alpha: Word, r: int, n: int) -> tuple[Word, int]:
    """The output ``(alpha, r)`` of one entry after ``shift^n``; ``r`` may pass the word."""
    if n <= len(alpha):
        return alpha[n:], r
    return (), r + n - len(alpha)


def point_apply(t: Transducer, point: Point) -> Point:
    mu, alpha, r = t.entry_for(point)
    return prepend_point(alpha, t.core.encode(shift_point_n(point, r)))


def orbit_sum(g: LocFun, n: LocFun, t: Transducer) -> LocFun:
    """The function ``x -> sum of g over the first n(x) shifts of h(x)``
    for the map ``h`` of the transducer and locally constant ``n >= 0``.

    Each entry's cylinder is refined until it lies in one piece of ``n``
    and the symbols it determines fix ``g``'s piece at every one of the
    ``n`` positions; each position reads a window of ``g.depth()`` symbols.
    """
    if g.matrix != t.target:
        raise ValueError("function lives over the wrong shift space")
    if n.matrix != t.source:
        raise ValueError("exponent lives over the wrong shift space")
    if n.min_value() < 0:
        raise NegativeExponent("iterated-sum exponent takes a negative value")
    depth = g.depth()

    def total(word: Word, known: Word, alpha: Word, r: int):
        piece = prefix_of(n.pieces, word, _word)
        return None if piece is None else window_sum(g, depth, known, piece[1])

    return canonical(t.source, dict(_refine_entries(t, total)))


def transfer_sum(g: LocFun, t: Transducer) -> LocFun:
    """The function ``x -> sum of g over the first l(x) shifts of h(x) minus
    the sum over the first k(x) shifts of h(shift x)`` for the map ``h`` of
    the transducer and any valid exponent pair ``(k, l)``, read with no pair.

    On a part of the common refinement of ``t`` and ``t after shift``,
    ``h(x) = a . S(shift^r x)`` and ``h(shift x) = b . S(shift^q x)`` for the
    core stream ``S``.  With ``d = (q - |b|) - (r - |a|)``, the window of ``h(x)``
    at ``i >= i0 = max(|a|, |b| + d)`` is the window of ``h(shift x)`` at
    ``i - d``, both read off one stream, and every valid pair has ``l - k = d``
    and cancels the windows past ``l`` alike, so the sums stop at ``i0`` and
    ``i0 - d``.  One walk refines each part until both sums are fixed.
    """
    if g.matrix != t.target:
        raise ValueError("function lives over the wrong shift space")
    depth = g.depth()

    def total(word: Word, known: Word, a: Word, r: int, known2: Word, b: Word, q: int):
        d = (q - len(b)) - (r - len(a))
        cut = max(len(a), len(b) + d)
        plus = window_sum(g, depth, known, cut)
        minus = None if plus is None else window_sum(g, depth, known2, cut - d)
        return None if minus is None else plus - minus

    return canonical(t.source, dict(_refine_entries(t, total, precompose_shift(t))))


def pullback(g: LocFun, t: Transducer) -> LocFun:
    """The function ``x -> g(h(x))`` for the map ``h`` of the transducer."""
    return orbit_sum(g, constant(t.source, 1), t)


# -- exact equality ---------------------------------------------------------


def _stream(matrix: TransitionMatrix, core: BlockCode, mu: Word, start: int, stop: int) -> tuple:
    """The core's symbols at positions ``start + 1 .. stop`` over the cylinder
    of ``mu``, each None where the cylinder's points disagree.  The windows
    inside ``mu`` are read in one step; past them, the set of windows the
    points show next (the extensions of ``mu``'s last ``window`` symbols, or
    all of a shorter ``mu``) takes the follower step ``w -> w[1:] + (a,)``."""
    table, m = core.symbol_map(), core.window
    symbols = list(map(table.__getitem__, zip(*[mu[start + i: stop + i] for i in range(m)])))
    inside = max(len(mu) - m + 1, 0)  # positions read off ``mu``
    if stop > max(start, inside):
        lead = min(inside, 1)
        windows = {w[lead:] for w in expand_to_depth(matrix, mu[inside - lead:], lead + m)}
        for p in range(inside, stop):
            if p > inside:
                windows = {w[1:] + (a,) for w in windows for a in matrix.followers[w[-1]]}
            if p >= start:
                written = {table[w] for w in windows}
                symbols.append(written.pop() if len(written) == 1 else None)
    return tuple(symbols)


def _entries_agree_on(stream: tuple, start: int, a1: Word, r1: int, a2: Word, r2: int) -> bool:
    """Exact equality of two same-core entry maps on one cylinder whose core
    ``stream`` starts at position ``start + 1`` and runs past both shifts:
    aligned up to the larger shift, the shorter side's output must spell the
    longer side's extra symbols, which the stream holds between the shifts."""
    if r1 > r2:
        a1, r1, a2, r2 = a2, r2, a1, r1
    return a1 + stream[r1 - start: r2 - start] == a2


def _aligned(t1: Transducer, t2: Transducer, under: Word = ()):
    """Each part of the common refinement of two transducers within
    ``under`` (``under`` itself when one part holds all of it), with the
    entry of each side there."""
    parts = refine_words(t1.source, [t1.parts, t2.parts])
    inside = (under,) if prefix_of(parts, under) is not None else cylinder_run(parts, under)
    for part in inside:
        yield part, prefix_of(t1.entries, part, _word), prefix_of(t2.entries, part, _word)


def difference_parts(t1: Transducer, t2: Transducer, under: Word = ()) -> tuple[Word, ...]:
    """Cylinders (within ``under``) where two same-core maps provably
    differ: none exactly when they agree everywhere on ``under``."""
    if t1.core != t2.core:
        raise ValueError("transducers have different cores; not comparable")
    # One stream per part, between its two shifts: exact, as on an irreducible
    # SFT every window of the stream's window sets shows on some point of the part.
    return tuple(sorted(
        part for part, (_, a1, r1), (_, a2, r2) in _aligned(t1, t2, under)
        if not _entries_agree_on(_stream(t1.source, t1.core, part, min(r1, r2), max(r1, r2)),
                                 min(r1, r2), a1, r1, a2, r2)))


def shift_exponents(t: Transducer) -> tuple[LocFun, LocFun]:
    """The least exponents ``(k, l)`` with ``shift^k(h(shift x)) =
    shift^l(h(x))`` on each part of the common refinement of ``t`` and
    ``t after shift``.

    There ``h(x) = a . S(shift^r x)`` and ``h(shift x) = b . S(shift^q x)``
    for the core stream ``S``.  Both sides must stream from the same
    offset, so ``l - k = (q - |b|) - (r - |a|)`` for every valid pair.
    Valid ``k`` are closed upward (shift both sides once more), and once
    ``k >= |b|`` and ``l >= |a|`` both sides are the bare stream from one
    offset, so bisection finds the least valid ``k`` below that bound.

    Each side's shift grows with ``k`` until both are ``max(q, r)`` at the
    top candidate, so each part's stream is read once, from the smaller
    shift at ``low`` to there, and every check slices it.  The ``k`` kept
    is checked once more, the pair's one exact check:
    :class:`VerificationFailed` names the part when no candidate passes or
    the kept one fails (a library bug).
    """
    k_table, l_table = {}, {}
    for part, (_, a, r), (_, b, q) in _aligned(t, precompose_shift(t)):
        d = (q - len(b)) - (r - len(a))
        low = max(0, -d)
        start = min(_shift_entry(b, q, low)[1], _shift_entry(a, r, low + d)[1])
        stream = _stream(t.source, t.core, part, start, max(q, r))

        def valid(k: int) -> bool:
            return _entries_agree_on(stream, start, *_shift_entry(b, q, k),
                                     *_shift_entry(a, r, k + d))

        candidates = range(low, max(len(b), len(a) - d, low) + 1)
        i = bisect_left(candidates, True, key=valid)
        if i == len(candidates) or not valid(candidates[i]):
            raise VerificationFailed(f"no shift-matching exponent pair checks on the part {part}")
        k_table[part], l_table[part] = candidates[i], candidates[i] + d
    return canonical(t.source, k_table), canonical(t.source, l_table)


def transducer_equal(t1: Transducer, t2: Transducer) -> bool:
    """Map equality: transducers are canonical, so it is ``==``."""
    return t1 == t2


def is_identity_transducer(t: Transducer) -> bool:
    """Exact decision of whether the map is the identity, by canonical form."""
    return t == identity_transducer(t.source)


# -- table extraction -------------------------------------------------------


def extract_table(t: Transducer) -> TableElement:
    """Read a prefix-exchange table off a transducer whose core streams
    each point unchanged: by canonical form, the window-1 identity code.
    Each part is refined past its shift, which a merged entry's may pass,
    so every image ends in its source's last letter."""
    if t.core != identity_code(t.source):
        raise ValueError("core is not the identity; the map is not a table")

    def image(mu: Word, known: Word, alpha: Word, r: int):
        return alpha + mu[r:] if r < len(mu) else None

    return canonical_table(t.source, _refine_entries(t, image))


def conjugate_by_stages(stages, table: TableElement) -> TableElement:
    """The table of ``h . table . h^{-1}`` for the map ``h`` of a nonempty
    stage tuple: ``table`` lives on its source, the result on its target."""
    last = stages[-1]
    target = last.matrix if isinstance(last, TableElement) else last.target
    return extract_table(stage_transducer(target, inverse_stages(stages) + (table,) + stages))
