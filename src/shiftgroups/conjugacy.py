"""Deciding shift-commutation and certifying its failure.

A chain map either commutes with the two shifts (so the shifts are
topologically conjugate) or it does not.  Both outcomes are read off the
verified least exponents ``(k1, l1)`` of the chain map: on each part of
their refinement ``l1 - k1`` is forced (the core is injective and every
cylinder holds non-periodic points) and valid ``k1`` are closed upward,
so ``(0, 1)`` is valid there exactly when it is the least pair.  In the
failing case this module builds a checkable certificate: after recoding
the source to a suitable block level, a point ``z``, a cylinder indicator
``g`` on the target, and a prefix swap ``tau0`` such that

* ``tau0`` preserves the level sets of ``g . h`` (so the cocycle of
  ``g . h - g . h . shift`` vanishes on it), yet
* the cocycle of ``g . h - g . shift . h`` is nonzero at ``z``.

Those two facts together show the potential ``g - g . shift`` transfers
to a weight whose vanishing subgroup differs from the pullback weight's,
which is exactly the group-level obstruction to conjugacy.

The search reads ``h``'s cached stages and normal form; only
:func:`check_witness` rebuilds the recoded chain map, to re-check.
The commutant search reads block-level swaps as base cylinder swaps.
"""

from __future__ import annotations

from collections import deque
from itertools import count

from .cocycles import in_cocycle_group, rho
from .codes import higher_block_codes
from .errors import SearchBudgetExceeded, VerificationFailed
from .functions import LocFun, compose_shift, constant, eval_at, indicator, is_zero_on, restrict
from .orbit import CoeMap, coe_apply, coe_from_chain, pullback_map, stage_transducer
from .sft import (
    EMPTY,
    Point,
    TransitionMatrix,
    Value,
    Word,
    canonical_point,
    primitive_root,
    refine_words,
    representative,
    shift_point,
    walk,
)
from .tables import (TableElement, apply as table_apply, block_swap_pairs, cylinder_swap,
                     prefix_swap)
from .transducer import (
    Transducer,
    apply_table_stage,
    difference_parts,
    inverse_stages,
    is_identity_transducer,
    point_apply,
    precompose_shift,
    pullback,
)

DEFAULT_MAX_LEVEL = 6
DEFAULT_MAX_DEPTH = 12
_EXTRA_DEPTH = 4  # levels below a difference cylinder that pointwise_difference probes


class Witness(Value):
    """Certificate that a chain map does not commute with the shifts.

    All source-side data lives over the level-``level`` block recoding
    of the source shift; ``g`` is the indicator of a target cylinder.
    """

    level: int
    z: Point
    pair: tuple[int, int]
    g: LocFun
    tau0: TableElement


def is_conjugacy(h: CoeMap) -> bool:
    """Exact decision of ``h . shift == shift . h``: ``(k1, l1) == (0, 1)``."""
    return h.k1 == constant(h.source, 0) and h.l1 == constant(h.source, 1)


def difference_locus(h: CoeMap) -> tuple[Word, ...]:
    """Cylinders on which the two sides of the commutation differ: the
    parts of the refinement of ``t`` and ``t after shift`` where the least
    exponent pair is not ``(0, 1)``, in sorted order."""
    t = h.transducer
    parts = refine_words(t.source, [t.parts, precompose_shift(t).parts])
    return tuple(part for part in parts
                 if restrict(h.k1, part) != [(part, 0)] or restrict(h.l1, part) != [(part, 1)])


def recode_source(h: CoeMap, level: int):
    """The map ``h`` read from the level-``level`` block presentation.

    Returns ``(h_level, encode_code)`` where the code carries source
    points up to the block presentation.
    """
    _, encode_code, decode_code = higher_block_codes(h.source, level)
    return coe_from_chain((decode_code,) + h.stages()), encode_code


def _least_long_cycle(matrix: TransitionMatrix) -> Word:
    """Least primitive cycle word visiting at least two symbols."""
    for length in range(2, matrix.n + 2):
        for word, _ in walk(matrix, EMPTY, length):
            if matrix.entry(word[-1], word[0]) and primitive_root(word) == word:
                return word
    raise AssertionError("an irreducible non-permutation graph has a long cycle")


def _long_cycle_point(matrix: TransitionMatrix, word: Word) -> Point:
    """Deterministic point of the cylinder whose cycle has length >= 2."""
    cycle = _least_long_cycle(matrix)
    for depth in count(len(word)):
        for tail, _ in walk(matrix, word, depth):
            if not tail or matrix.entry(tail[-1], cycle[0]):
                return canonical_point(matrix, tail, cycle)


def _find_difference_point(h: CoeMap, seeds, max_depth: int) -> Point:
    """Deterministic point where commutation visibly fails.

    Walks the difference cylinders breadth first; at each word tries a
    long-cycle point first (preferred) and the least representative as a
    fallback, keeping the first fallback hit in case no preferred point
    shows up within two extra levels.
    """
    matrix = h.source

    def usable(z: Point) -> bool:
        hz = coe_apply(h, z)
        return (not z.is_fixed() and not hz.is_fixed()
                and coe_apply(h, shift_point(z)) != shift_point(hz))

    queue = deque(sorted(seeds, key=lambda w: (len(w), w)))
    fallback = None
    give_up_at = None
    while queue:
        word = queue.popleft()
        if give_up_at is not None and len(word) > give_up_at:
            break
        preferred = _long_cycle_point(matrix, word)
        if usable(preferred):
            return preferred
        if fallback is None:
            plain = representative(matrix, word)
            if usable(plain):
                fallback = plain
                give_up_at = len(word) + 2
        if len(word) < max_depth:
            queue.extend(matrix.extensions(word))
    if fallback is not None:
        return fallback
    raise SearchBudgetExceeded(
        "no usable difference point found", max_depth=max_depth)


def _isolating_level(h: CoeMap, z: Point, w0: Point, max_level: int) -> int:
    """The least block level ``L`` where the first two ``L``-blocks of
    ``z`` differ and the preimage ``x`` of ``w0`` starts with neither that
    pair of blocks nor the second block.  ``x`` is taken stage by stage
    through ``h``'s inverse stages, and the tests compare base words, so
    no block code is built."""
    x = w0
    for stage in inverse_stages(h.stages()):
        x = table_apply(stage, x) if isinstance(stage, TableElement) else stage.encode(x)
    for level in range(1, max_level + 1):
        pair, xs = z.prefix(level + 1), x.prefix(level + 1)
        second = pair[1:]
        if pair[:-1] != second and xs != pair and xs[:-1] != second:
            return level
    raise SearchBudgetExceeded(
        "no block level isolates the difference point", max_level=max_level)


def witness_non_conjugacy(h: CoeMap, max_level: int = DEFAULT_MAX_LEVEL,
                          max_depth: int = DEFAULT_MAX_DEPTH) -> Witness | None:
    """Build a certificate of non-commutation, or None when ``h`` commutes.

    Follows the constructive route: pick a difference point ``z``, recode
    until the two-symbol cylinder at ``z`` cleanly avoids the shifted
    image point, take ``g`` supported on a deep cylinder around that
    image point, and swap the two leading symbols.  The recoded map is
    ``h`` after the level's decode code, so ``g . h`` is pulled back
    through it.  Raises :class:`SearchBudgetExceeded` at the caps.
    """
    seeds = difference_locus(h)
    if not seeds:
        return None
    z = _find_difference_point(h, seeds, max_depth)
    w0 = shift_point(coe_apply(h, z))
    level = _isolating_level(h, z, w0, max_level)
    block_matrix, encode_code, decode_code = higher_block_codes(h.source, level)
    z_level = encode_code.encode(z)
    pair = z_level.prefix(2)
    decode = stage_transducer(block_matrix, (decode_code,))

    for depth in range(1, max_depth + 1):
        g = indicator(h.target, w0.prefix(depth))
        g_h = pullback(pullback_map(g, h), decode)
        if is_zero_on(g_h, pair) and is_zero_on(compose_shift(g_h), pair):
            break
    else:
        raise SearchBudgetExceeded(
            "no cylinder depth separates the image point", max_depth=max_depth)

    witness = Witness(level, z_level, pair, g, prefix_swap(block_matrix, *pair))
    if not check_witness(h, witness):
        raise VerificationFailed("non-conjugacy witness failed its exact check")
    return witness


def check_witness(h: CoeMap, witness: Witness) -> bool:
    """Exact verification of a certificate against the map.

    Checks (a) the swap preserves the ``g . h`` level sets, as vanishing
    of the cocycle of ``g . h - g . h . shift`` on it, and (b) the
    cocycle of ``g . h - g . shift . h`` is nonzero at the stored point.
    """
    h_level, _ = recode_source(h, witness.level)
    g_h = pullback_map(witness.g, h_level)
    balanced = g_h - compose_shift(g_h)
    if not in_cocycle_group(witness.tau0, balanced):
        return False
    skewed = g_h - pullback_map(compose_shift(witness.g), h_level)
    return eval_at(rho(skewed, witness.tau0), witness.z) != 0


# -- commuting tables --------------------------------------------------------


def pointwise_difference(t1: Transducer, t2: Transducer):
    """A representative where two same-core maps visibly differ, or None."""
    matrix = t1.source
    for part in difference_parts(t1, t2):
        for depth in range(len(part), len(part) + _EXTRA_DEPTH + 1):
            for word, _ in walk(matrix, part, depth):
                z = representative(matrix, word)
                if point_apply(t1, z) != point_apply(t2, z):
                    return z
    return None


def commutant_witness(h0: CoeMap, max_level: int = DEFAULT_MAX_LEVEL) -> TableElement | None:
    """A table that fails to commute with a self chain map.

    Returns None exactly when ``h0`` is the identity map (decided on the
    normal form).  Otherwise searches the prefix swaps of increasing block
    levels, each read on the base shift as one cylinder swap
    (:func:`tables.block_swap_pairs`), in a fixed deterministic order,
    and returns the first one whose two compositions with ``h0``
    differ; the difference is re-verified at a concrete representative
    before returning.  ``table after h0`` is one more table stage on the
    cached normal form of ``h0``.
    """
    if h0.source != h0.target:
        raise ValueError("commutant search needs a self map")
    if is_identity_transducer(h0.transducer):
        return None
    matrix = h0.source
    for level in range(1, max_level + 1):
        for pair in block_swap_pairs(matrix, level):
            table = cylinder_swap(matrix, *pair)
            after = stage_transducer(matrix, (table,) + h0.stages())
            before = apply_table_stage(h0.transducer, table)
            if pointwise_difference(after, before) is not None:
                return table
    raise SearchBudgetExceeded(
        "no prefix swap separates the compositions", max_level=max_level)
