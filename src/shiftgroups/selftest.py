"""Seeded cross-module property suites.

Each suite draws its cases from one ``random.Random`` stream (Mersenne
Twister, seeded from the single run seed), checks exact integer
identities, and reports one line.  Reports are byte-identical for equal
seed and case count: nothing here depends on hashing order, timing, or
the environment.

The same suites back the command line ``selftest`` and the acceptance
test module; the latter pins the case counts.
"""

from __future__ import annotations

import random

from . import functions as fn
from .cocycles import (
    ck_word_weight,
    gauge_weight,
    in_af_group,
    in_cocycle_group,
    rho,
    rho_at,
    rho_from_entries,
)
from .codes import higher_block_codes, relabel_code
from .conjugacy import (
    check_witness,
    commutant_witness,
    is_conjugacy,
    pointwise_difference,
    recode_source,
    witness_non_conjugacy,
)
from .functions import (
    LocFun,
    birkhoff,
    birkhoff_at,
    compose_shift,
    constant,
    equal,
    eval_at,
    indicator,
    restrict,
)
from .orbit import (
    CoeMap,
    check_xihg,
    coe_apply,
    coe_from_chain,
    conjugate_table,
    identity_coe,
    psi,
    pullback_map,
    stage_transducer,
)
from .sft import (TransitionMatrix, Value, representative, refine_words, shift_point_n,
                  validate_matrix)
from .tables import (
    TableElement,
    apply as table_apply,
    block_swap_pairs,
    cocycle_data,
    cocycle_data_from_entries,
    compose,
    cylinder_swap,
    identity_table,
    invert,
    pad_entry,
    prefix_swap,
    pullback_table,
    random_element,
)
from .transducer import point_apply

GOLDEN_MEAN = validate_matrix([[1, 1], [1, 0]])
FULL_TWO = validate_matrix([[1, 1], [1, 1]])
TRIANGLE = validate_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

MATRICES = (
    ("golden-mean", GOLDEN_MEAN),
    ("full-2", FULL_TWO),
    ("triangle-3", TRIANGLE),
)


class SuiteResult(Value):
    name: str
    ok: bool
    summary: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name} ({self.summary})"


# -- seeded generators --------------------------------------------------------


def random_function(matrix: TransitionMatrix, rng: random.Random,
                    depth: int = 3, span: int = 3) -> LocFun:
    parts = {(): rng.randint(-span, span)}
    for _ in range(rng.randint(0, 4)):
        splittable = sorted(w for w in parts if len(w) < depth)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        del parts[word]
        for child in matrix.extensions(word):
            parts[child] = rng.randint(-span, span)
    return fn.make(matrix, parts)


def random_table(matrix: TransitionMatrix, rng: random.Random) -> TableElement:
    return random_element(matrix, 3, rng.randrange(1 << 30))


def random_point(matrix: TransitionMatrix, rng: random.Random, depth: int = 4):
    word = ()
    for _ in range(rng.randint(0, depth)):
        extensions = matrix.extensions(word)
        word = extensions[rng.randrange(len(extensions))]
    return representative(matrix, word)


_AUTOMORPHISMS = {
    id(FULL_TWO): [{1: 2, 2: 1}],
    id(TRIANGLE): [{1: 2, 2: 3, 3: 1}, {1: 2, 2: 1, 3: 3}],
}


def random_chain(matrix: TransitionMatrix, rng: random.Random) -> CoeMap:
    """Seeded chain map out of ``matrix``: tables around an optional code."""
    stages = []
    if rng.random() < 0.8:
        stages.append(random_table(matrix, rng))
    style = rng.randrange(3)
    target = matrix
    if style == 1:
        target, encode_code, _ = higher_block_codes(matrix, 2)
        stages.append(encode_code)
    elif style == 2:
        perms = _AUTOMORPHISMS.get(id(matrix))
        if perms:
            stages.append(relabel_code(matrix, matrix, perms[rng.randrange(len(perms))]))
    if rng.random() < 0.8:
        stages.append(random_table(target, rng))
    return coe_from_chain(stages, source=matrix)


# -- suites -------------------------------------------------------------------


def suite_group_laws(seed: int, cases: int) -> SuiteResult:
    """Associativity, identity, inverse, and swap involutions, exactly."""
    rng = random.Random(seed)
    swaps = 0
    for name, matrix in MATRICES:
        ident = identity_table(matrix)
        for _ in range(cases):
            a, b, c = (random_table(matrix, rng) for _ in range(3))
            if compose(compose(a, b), c) != compose(a, compose(b, c)):
                return SuiteResult("group-laws", False, f"associativity on {name}")
            if compose(a, ident) != a or compose(ident, a) != a:
                return SuiteResult("group-laws", False, f"identity on {name}")
            if compose(a, invert(a)) != ident or compose(invert(a), a) != ident:
                return SuiteResult("group-laws", False, f"inverse on {name}")
        for pair in block_swap_pairs(matrix, 1):
            swap = cylinder_swap(matrix, *pair)
            swaps += 1
            if compose(swap, swap) != ident:
                return SuiteResult("group-laws", False, f"involution on {name}")
    return SuiteResult("group-laws", True,
                       f"{cases} triples x {len(MATRICES)} matrices, {swaps} swaps")


def suite_cocycle_identity(seed: int, cases: int) -> SuiteResult:
    """Composition and inverse rules of the weight transfer."""
    rng = random.Random(seed)
    for name, matrix in MATRICES:
        for _ in range(cases):
            f = random_function(matrix, rng)
            tau1, tau2 = random_table(matrix, rng), random_table(matrix, rng)
            lhs = rho(f, compose(tau2, tau1))
            rhs = rho(f, tau1) + pullback_table(rho(f, tau2), tau1)
            if not equal(lhs, rhs):
                return SuiteResult("cocycle-identity", False, f"composition on {name}")
            lhs = rho(f, invert(tau1))
            rhs = -pullback_table(rho(f, tau1), invert(tau1))
            if not equal(lhs, rhs):
                return SuiteResult("cocycle-identity", False, f"inverse on {name}")
    return SuiteResult("cocycle-identity", True,
                       f"{cases} triples x {len(MATRICES)} matrices")


def suite_padding(seed: int, cases: int) -> SuiteResult:
    """Refined entry presentations change nothing observable."""
    rng = random.Random(seed)
    for _ in range(cases):
        name, matrix = MATRICES[rng.randrange(len(MATRICES))]
        tau = random_table(matrix, rng)
        f = random_function(matrix, rng)
        padded = []
        for entry in tau.entries:
            padded.extend(pad_entry(matrix, entry, rng.randint(0, 2)))
        _, _, d_padded = cocycle_data_from_entries(matrix, padded)
        _, _, d_plain = cocycle_data(tau)
        if not equal(d_padded, d_plain):
            return SuiteResult("padding", False, f"exponent difference on {name}")
        if not equal(rho_from_entries(f, tau, padded), rho(f, tau)):
            return SuiteResult("padding", False, f"weight transfer on {name}")
    return SuiteResult("padding", True, f"{cases} padded tables")


def suite_af_agreement(seed: int, cases: int) -> SuiteResult:
    """The constant weight 1 carves out exactly the no-drift subgroup."""
    rng = random.Random(seed)
    members = 0
    for name, matrix in MATRICES:
        one = constant(matrix, 1)
        for _ in range(cases):
            tau = random_table(matrix, rng)
            af = in_af_group(tau)
            if af != in_cocycle_group(tau, one):
                return SuiteResult("af-agreement", False, f"disagreement on {name}")
            members += af
    return SuiteResult("af-agreement", True,
                       f"{cases} tables x {len(MATRICES)} matrices, {members} members")


def _entrywise_gauge(tau: TableElement, f: LocFun) -> LocFun:
    """Per-entry phase exponent on the image partition."""
    matrix = tau.matrix
    inverse = invert(tau)
    pieces = []
    for nu, mu in tau.entries:
        term = birkhoff(f, constant(matrix, len(mu))) - pullback_table(
            birkhoff(f, constant(matrix, len(nu))), inverse)
        pieces += restrict(term, mu)
    return fn.make(matrix, pieces)


def suite_gauge_weights(seed: int, cases: int) -> SuiteResult:
    """Phase exponents match the entrywise form and detect membership."""
    rng = random.Random(seed)
    for _ in range(cases):
        name, matrix = MATRICES[rng.randrange(len(MATRICES))]
        tau = random_table(matrix, rng)
        f = random_function(matrix, rng)
        weight = gauge_weight(tau, f)
        if not equal(weight, _entrywise_gauge(tau, f)):
            return SuiteResult("gauge-weights", False, f"entrywise form on {name}")
        if weight.is_zero() != in_cocycle_group(tau, f):
            return SuiteResult("gauge-weights", False, f"fixed-point criterion on {name}")
        word = random_point(matrix, rng).prefix(rng.randint(1, 3))
        z = random_point(matrix, rng)
        if eval_at(ck_word_weight(word, f), z) != birkhoff_at(f, len(word), z):
            return SuiteResult("gauge-weights", False, f"word weight oracle on {name}")
    return SuiteResult("gauge-weights", True, f"{cases} pairs")


def suite_golden_values(seed: int, cases: int) -> SuiteResult:
    """Hand-derived transfer values on the golden mean shift."""
    matrix = GOLDEN_MEAN
    tau0 = prefix_swap(matrix, 1, 2)
    chi1, chi2 = indicator(matrix, (1,)), indicator(matrix, (2,))
    got = rho(chi1, tau0)
    want = (((1, 1), 0), ((1, 2), 1), ((2,), -1))
    if got.pieces != want:
        return SuiteResult("golden-values", False, f"got {got.pieces}")
    if not rho(chi2, tau0).is_zero():
        return SuiteResult("golden-values", False, "second indicator not balanced")
    # Independent oracle: literal orbit sums at one representative per part,
    # in both the matched and the one-longer sum forms.
    for word, value in got.pieces:
        z = representative(matrix, word)
        for inclusive in (False, True):
            if rho_at(chi1, tau0, z, inclusive=inclusive) != value:
                return SuiteResult("golden-values", False, f"oracle clash at {word}")
    return SuiteResult("golden-values", True, "2 functions, oracle checked")


def _conjugation_exponent_transport(h: CoeMap, tau: TableElement) -> bool:
    """Conjugated tables carry the transported exponent pair.

    Checks the exponent-difference identity exactly, and that the
    transported pair is valid matching data at one representative per
    refinement part.
    """
    matrix = h.source
    k_t, l_t, _ = cocycle_data(tau)
    xi = conjugate_table(h, tau)
    _, _, d_xi = cocycle_data(xi)
    inverse = invert(tau)

    def sum_over_image(f: LocFun, n: LocFun) -> LocFun:
        return pullback_table(birkhoff(f, pullback_table(n, inverse)), tau)

    rhs_k = sum_over_image(h.l1, k_t) + birkhoff(h.k1, l_t)
    rhs_l = sum_over_image(h.k1, k_t) + birkhoff(h.l1, l_t)
    if not equal(pullback_map(d_xi, h), rhs_l - rhs_k):
        return False
    parts = refine_words(matrix, [rhs_k.parts, rhs_l.parts, tau.domain_words])
    for part in parts:
        z = representative(matrix, part)
        hz = coe_apply(h, z)
        lhs_point = shift_point_n(table_apply(xi, hz), eval_at(rhs_k, z))
        rhs_point = shift_point_n(hz, eval_at(rhs_l, z))
        if lhs_point != rhs_point:
            return False
    return True


def suite_transfer(seed: int, cases: int) -> SuiteResult:
    """Potential transfer across chains: additivity, coboundaries,
    conjugation exponents, and the transported-cocycle identity."""
    rng = random.Random(seed)
    bases = (GOLDEN_MEAN, FULL_TWO)
    for i in range(cases):
        matrix = bases[i % len(bases)]
        h = random_chain(matrix, rng)
        g = random_function(h.target, rng)
        g2 = random_function(h.target, rng)
        tau = random_table(matrix, rng)
        if not equal(psi(h, g + g2), psi(h, g) + psi(h, g2)):
            return SuiteResult("transfer", False, "additivity")
        lhs = psi(h, g - compose_shift(g))
        q = pullback_map(g, h)
        if not equal(lhs, q - compose_shift(q)):
            return SuiteResult("transfer", False, "coboundary transport")
        if not _conjugation_exponent_transport(h, tau):
            return SuiteResult("transfer", False, "conjugation exponents")
        if not check_xihg(h, tau, g):
            return SuiteResult("transfer", False, "transported cocycle")
        xi = conjugate_table(h, tau)
        if in_cocycle_group(tau, psi(h, g)) != in_cocycle_group(xi, g):
            return SuiteResult("transfer", False, "group transport")
        tau2 = random_table(matrix, rng)
        if conjugate_table(h, compose(tau2, tau)) != compose(conjugate_table(h, tau2),
                                                             conjugate_table(h, tau)):
            return SuiteResult("transfer", False, "conjugation homomorphism")
    return SuiteResult("transfer", True, f"{cases} chain/table/potential draws")


def conjugacy_corpus() -> list[CoeMap]:
    """Twenty genuinely shift-commuting chains."""
    out = []
    for _, matrix in MATRICES:
        out.append(identity_coe(matrix))
        block2, encode2, decode2 = higher_block_codes(matrix, 2)
        out.append(coe_from_chain([encode2]))
        out.append(coe_from_chain([decode2]))
        _, encode3, _ = higher_block_codes(matrix, 3)
        out.append(coe_from_chain([encode3]))
        out.append(coe_from_chain([encode2, decode2]))
    out.append(coe_from_chain([relabel_code(FULL_TWO, FULL_TWO, {1: 2, 2: 1})]))
    rotate = relabel_code(TRIANGLE, TRIANGLE, {1: 2, 2: 3, 3: 1})
    out.append(coe_from_chain([rotate]))
    out.append(coe_from_chain([relabel_code(TRIANGLE, TRIANGLE, {1: 2, 2: 1, 3: 3})]))
    out.append(coe_from_chain([rotate, rotate]))
    block2, encode2, _ = higher_block_codes(GOLDEN_MEAN, 2)
    _, encode22, _ = higher_block_codes(block2, 2)
    out.append(coe_from_chain([encode2, encode22]))
    return out


def twisted_corpus() -> list[CoeMap]:
    """Twenty chains whose table twists break shift commutation."""
    out = []
    for _, matrix in MATRICES:
        for pair in block_swap_pairs(matrix, 1):
            out.append(coe_from_chain([cylinder_swap(matrix, *pair)]))
    block2g, encode2g, _ = higher_block_codes(GOLDEN_MEAN, 2)
    out.append(coe_from_chain([prefix_swap(GOLDEN_MEAN, 1, 2), encode2g]))
    out.append(coe_from_chain([encode2g, prefix_swap(block2g, 2, 3)]))
    block2f, encode2f, _ = higher_block_codes(FULL_TWO, 2)
    out.append(coe_from_chain([prefix_swap(FULL_TWO, 2, 1), encode2f]))
    out.append(coe_from_chain([encode2f, prefix_swap(block2f, 1, 2)]))
    flip = relabel_code(FULL_TWO, FULL_TWO, {1: 2, 2: 1})
    out.append(coe_from_chain([prefix_swap(FULL_TWO, 1, 2), flip]))
    out.append(coe_from_chain([flip, prefix_swap(FULL_TWO, 1, 2)]))
    out.append(coe_from_chain([prefix_swap(GOLDEN_MEAN, 1, 2),
                               prefix_swap(GOLDEN_MEAN, 2, 1)]))
    out.append(coe_from_chain([prefix_swap(TRIANGLE, 1, 2),
                               prefix_swap(TRIANGLE, 2, 3)]))
    out.append(coe_from_chain([prefix_swap(FULL_TWO, 1, 2),
                               prefix_swap(FULL_TWO, 2, 1)]))
    rotate = relabel_code(TRIANGLE, TRIANGLE, {1: 2, 2: 3, 3: 1})
    out.append(coe_from_chain([prefix_swap(TRIANGLE, 3, 1), rotate]))
    return out


def suite_conjugacy_detection(seed: int, cases: int) -> SuiteResult:
    """Commuting chains are recognized; twisted ones yield certificates
    that exhibit the transferred-weight subgroup obstruction."""
    del seed, cases  # curated corpus, fixed size
    good = conjugacy_corpus()
    for i, h in enumerate(good):
        if not is_conjugacy(h):
            return SuiteResult("conjugacy-detection", False, f"conjugacy {i} rejected")
        if witness_non_conjugacy(h) is not None:
            return SuiteResult("conjugacy-detection", False, f"conjugacy {i} got a witness")
    bad = twisted_corpus()
    for i, h in enumerate(bad):
        if is_conjugacy(h):
            return SuiteResult("conjugacy-detection", False, f"twist {i} accepted")
        witness = witness_non_conjugacy(h)
        if witness is None or not check_witness(h, witness):
            return SuiteResult("conjugacy-detection", False, f"twist {i} witness failed")
        h_level, _ = recode_source(h, witness.level)
        balanced = witness.g - compose_shift(witness.g)
        transferred = in_cocycle_group(witness.tau0, psi(h_level, balanced))
        pulled = in_cocycle_group(witness.tau0, pullback_map(balanced, h_level))
        if transferred == pulled:
            return SuiteResult("conjugacy-detection", False,
                               f"twist {i} shows no subgroup obstruction")
    return SuiteResult("conjugacy-detection", True,
                       f"{len(good)} conjugacies, {len(bad)} twists")


def commutant_corpus() -> list[CoeMap]:
    """Ten non-identity self chain maps."""
    out = []
    for _, matrix in MATRICES:
        for pair in block_swap_pairs(matrix, 1):
            if len(out) < 8:
                out.append(coe_from_chain([cylinder_swap(matrix, *pair)]))
    block2, encode2, decode2 = higher_block_codes(GOLDEN_MEAN, 2)
    out.append(coe_from_chain([encode2, prefix_swap(block2, 2, 3), decode2]))
    out.append(coe_from_chain([prefix_swap(GOLDEN_MEAN, 1, 2), encode2,
                               prefix_swap(block2, 3, 1), decode2]))
    return out


def suite_commutant(seed: int, cases: int) -> SuiteResult:
    """Non-identity self maps fail to commute with some table, visibly."""
    del seed, cases
    for i, h0 in enumerate(commutant_corpus()):
        table = commutant_witness(h0)
        if table is None:
            return SuiteResult("commutant", False, f"self map {i} got no witness")
        after = stage_transducer(h0.source, (table,) + h0.stages())
        before = stage_transducer(h0.source, h0.stages() + (table,))
        z = pointwise_difference(after, before)
        if z is None or point_apply(after, z) == point_apply(before, z):
            return SuiteResult("commutant", False, f"self map {i} not separated")
    if commutant_witness(identity_coe(GOLDEN_MEAN)) is not None:
        return SuiteResult("commutant", False, "identity got a witness")
    return SuiteResult("commutant", True, "10 self maps + identity")


SUITES = (
    suite_group_laws,
    suite_cocycle_identity,
    suite_padding,
    suite_af_agreement,
    suite_gauge_weights,
    suite_golden_values,
    suite_transfer,
    suite_conjugacy_detection,
    suite_commutant,
)

_CASE_SCALE = {
    "suite_group_laws": 2.0,
    "suite_padding": 0.5,
    "suite_transfer": 0.5,
}


def run_selftest(seed: int, cases: int) -> tuple[str, bool]:
    """Run every suite; returns the textual report and overall success."""
    lines = [f"selftest seed={seed} cases={cases}"]
    ok = True
    for index, suite in enumerate(SUITES):
        scaled = max(1, int(cases * _CASE_SCALE.get(suite.__name__, 1.0)))
        result = suite(seed * 1000003 + index, scaled)
        lines.append(result.line())
        ok = ok and result.ok
    lines.append("ALL PASS" if ok else "FAILED")
    return "\n".join(lines) + "\n", ok
