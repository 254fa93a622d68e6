"""Exact arithmetic for one-sided shifts of finite type.

The package computes, with plain integers and words, in the continuous
full group of a topological Markov shift: prefix-exchange tables, locally
constant weights and their transfer cocycles, orbit-matching chain maps
between two shifts, and constructive certificates separating topological
conjugacy from weaker orbit equivalence.
"""

from .sft import (
    CylinderPartition,
    Point,
    TransitionMatrix,
    canonicalize_point,
    enumerate_words,
    partition,
    refine,
    representative,
    shift_point,
    validate_matrix,
)
from .functions import (
    LocFun,
    birkhoff,
    compose_shift,
    constant,
    equal,
    eval_at,
    indicator,
    linear,
    make,
)
from .tables import (
    TableElement,
    apply,
    cocycle_data,
    compose,
    identity_table,
    invert,
    prefix_swap,
    pullback_table,
    random_element,
    validate_table,
)
from .cocycles import (
    ck_word_weight,
    gauge_weight,
    in_af_group,
    in_cocycle_group,
    rho,
)
from .codes import (BlockCode, higher_block, higher_block_codes, identity_code, make_code,
                    relabel_code)
from .orbit import (
    CoeMap,
    check_xihg,
    coe_apply,
    coe_compose,
    coe_from_chain,
    coe_invert,
    compose_cocycles,
    conjugate_table,
    identity_coe,
    psi,
    pullback_map,
)
from .conjugacy import (
    Witness,
    check_witness,
    commutant_witness,
    difference_locus,
    is_conjugacy,
    witness_non_conjugacy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
