"""Orbit-matching chain maps between two shift spaces.

A chain map composes prefix-exchange tables with one invertible block
code.  Every such homeomorphism ``h`` intertwines the two shifts up to
locally constant exponents ``(k1, l1)``:

    shift_B^{k1(x)} ( h(shift_A(x)) ) = shift_B^{l1(x)} ( h(x) )

and topological conjugacy is exactly the case where ``(0, 1)`` works.
Chains are normalized to ``post-table . code . pre-table``, the stage
list that inverses and conjugated tables are built from (in
:mod:`transducer`).  The cached transducer is canonical, so equal maps are
``==``, and ``(k1, l1)`` is found on its first read, then cached: the least valid
pair on each part of the common refinement of the transducer and its
precomposition with the shift (:func:`transducer.shift_exponents`).  That
search is also the pair's one exact check: it re-reads the kept ``k`` on
each part, so a formula bug cannot hand a caller a silently wrong pair.

The potential transfer :func:`psi` reads no pair.  On a part of that
refinement ``h(x) = a . S(shift^r x)`` and ``h(shift x) = b . S(shift^q x)``
for the core stream ``S``; with ``d = (q - |b|) - (r - |a|)``, the window of
``h(x)`` at every ``i >= i0 = max(|a|, |b| + d)`` is the window of
``h(shift x)`` at ``i - d``.  Every valid pair has ``l1 - k1 = d``, so the
windows past the cut ``i0`` cancel between the two sums, and the transfer is
the sum over the first ``i0`` windows of ``h(x)`` minus the sum over the
first ``i0 - d`` of ``h(shift x)`` (:func:`transducer.transfer_sum`).
"""

from __future__ import annotations

from functools import cached_property

from .codes import BlockCode, compose_codes, identity_code
from .cocycles import rho
from .errors import IncompatibleChain, VerificationFailed
from .functions import LocFun, equal
from .sft import Point, TransitionMatrix, Value
from .tables import (
    TableElement,
    apply as table_apply,
    compose as table_compose,
    identity_table,
)
from .transducer import (
    Transducer,
    conjugate_by_stages,
    inverse_stages,
    orbit_sum,
    post_shift,
    precompose_shift,
    pullback,
    shift_exponents,
    stage_transducer,
    transfer_sum,
)


class CoeMap(Value):
    """Orbit-matching homeomorphism in normalized chain form.

    ``pre`` acts on the source shift, then ``core`` recodes, then
    ``post`` acts on the target shift.  ``transducer`` is the cached
    normal form of the composite.  Its shift-matching exponents ``(k1, l1)``,
    not fields, are found and checked on the first read: least on each part
    of the common refinement of ``transducer`` and ``transducer after shift``.
    """

    pre: TableElement
    core: BlockCode
    post: TableElement
    transducer: Transducer

    @cached_property
    def _exponents(self) -> tuple[LocFun, LocFun]:
        return shift_exponents(self.transducer)

    @property
    def k1(self) -> LocFun:
        return self._exponents[0]

    @property
    def l1(self) -> LocFun:
        return self._exponents[1]

    @property
    def source(self) -> TransitionMatrix:
        return self.core.source

    @property
    def target(self) -> TransitionMatrix:
        return self.core.target

    def stages(self) -> tuple:
        return (self.pre, self.core, self.post)


def _normalize_chain(source: TransitionMatrix, stages):
    """Fold arbitrary compatible stages into (pre, core, post).

    A lone table on either side is taken as it is (so it must be
    canonical, as parsed and library-built tables are); a missing side is
    the identity."""
    pre = core = post = None
    current = source
    for stage in stages:
        if isinstance(stage, TableElement):
            if stage.matrix != current:
                raise IncompatibleChain("table stage acts on the wrong shift space")
            if core is None:
                pre = stage if pre is None else table_compose(stage, pre)
            else:
                post = stage if post is None else table_compose(stage, post)
        elif isinstance(stage, BlockCode):
            if stage.source != current:
                raise IncompatibleChain("code stage reads the wrong shift space")
            if post is not None:
                post = conjugate_by_stages((stage,), post)
            core = stage if core is None else compose_codes(stage, core)
            current = stage.target
        else:
            raise TypeError(f"not a chain stage: {stage!r}")
    if core is None:
        core = identity_code(current)
    return (identity_table(source) if pre is None else pre, core,
            identity_table(current) if post is None else post)


# -- exponent bookkeeping ----------------------------------------------------


def _fold_stage_data(k: LocFun, l: LocFun, stage_k: LocFun, stage_l: LocFun,
                     t: Transducer) -> tuple[LocFun, LocFun]:
    """Exponents of ``stage . h`` from h's pair, the stage's pair, and
    h's transducer; sums run along the intermediate shift, from ``h(x)``
    or from ``h(shift x)``."""
    shifted = precompose_shift(t)
    k_new = orbit_sum(stage_l, k, shifted) + orbit_sum(stage_k, l, t)
    l_new = orbit_sum(stage_k, k, shifted) + orbit_sum(stage_l, l, t)
    return k_new, l_new


# -- construction ------------------------------------------------------------


def coe_from_chain(stages, source: TransitionMatrix | None = None) -> CoeMap:
    """Build and normalize a chain map.

    ``stages`` lists tables and codes in application order; any number of
    codes is allowed (they fold into one).  ``source`` is only needed for
    an empty chain.  Raises :class:`IncompatibleChain` on mismatched
    stages.  The exponents get their exact check on the first read of
    ``k1`` or ``l1``, which raises :class:`VerificationFailed` there; it
    signals a library bug, not bad input.
    """
    stages = list(stages)
    if source is None:
        if not stages:
            raise IncompatibleChain("empty chain needs an explicit source matrix")
        first = stages[0]
        source = first.matrix if isinstance(first, TableElement) else first.source
    pre, core, post = _normalize_chain(source, stages)
    return CoeMap(pre, core, post, stage_transducer(source, (pre, core, post)))


def identity_coe(matrix: TransitionMatrix) -> CoeMap:
    return coe_from_chain((), source=matrix)


def coe_apply(h: CoeMap, point: Point) -> Point:
    """Stage-by-stage image of a point."""
    return table_apply(h.post, h.core.encode(table_apply(h.pre, point)))


def coe_invert(h: CoeMap) -> CoeMap:
    """The inverse chain map, rebuilt from the inverse stages."""
    return coe_from_chain(inverse_stages(h.stages()))


def coe_compose(outer: CoeMap, inner: CoeMap) -> CoeMap:
    """The chain map ``outer after inner``."""
    if inner.target != outer.source:
        raise IncompatibleChain("chain maps do not compose")
    return coe_from_chain(inner.stages() + outer.stages())


def compose_cocycles(outer: CoeMap, inner: CoeMap) -> tuple[LocFun, LocFun]:
    """Exponent pair of ``outer after inner`` from the two cached pairs.

    The closed-form sums are re-verified exactly against the composite
    map; :class:`VerificationFailed` signals a library bug, never bad
    input.
    """
    if inner.target != outer.source:
        raise IncompatibleChain("chain maps do not compose")
    k, l = _fold_stage_data(inner.k1, inner.l1, outer.k1, outer.l1, inner.transducer)
    composite = stage_transducer(inner.source, inner.stages() + outer.stages())
    if post_shift(precompose_shift(composite), k) != post_shift(composite, l):
        raise VerificationFailed("composed exponents failed their exact check")
    return k, l


# -- transported structure ---------------------------------------------------


def pullback_map(g: LocFun, h: CoeMap) -> LocFun:
    """The function ``x -> g(h(x))``, computed from the normal form."""
    return pullback(g, h.transducer)


def psi(h: CoeMap, g: LocFun) -> LocFun:
    """Transfer of a target-side potential to the source side.

    The value at ``x`` is the ``g``-sum over the first ``l1(x)`` target
    shifts of ``h(x)`` minus the sum over the first ``k1(x)`` target
    shifts of ``h(shift x)``; additive in ``g`` and independent of the
    exponent pair choice.  The windows past the cut ``i0`` on ``h(x)``, and
    past ``i0 - d`` on ``h(shift x)``, are one core stream read from one
    offset and cancel (see the module docstring), so the sums stop there,
    in one walk, and no exponent pair is searched or read.
    """
    if g.matrix != h.target:
        raise ValueError("potential lives over the wrong shift space")
    return transfer_sum(g, h.transducer)


def conjugate_table(h: CoeMap, table: TableElement) -> TableElement:
    """The table of ``h . table . h^{-1}`` over the target shift."""
    if table.matrix != h.source:
        raise ValueError("table lives over the wrong shift space")
    return conjugate_by_stages(h.stages(), table)


def check_xihg(h: CoeMap, table: TableElement, g: LocFun) -> bool:
    """Exact check that conjugation and potential transfer cooperate:
    the ``g``-cocycle of the conjugated table, pulled back through ``h``,
    is the cocycle of the transferred potential on the original table."""
    lhs = pullback_map(rho(g, conjugate_table(h, table)), h)
    rhs = rho(psi(h, g), table)
    return equal(lhs, rhs)
