"""Differential tests: the partition kernels against their quadratic originals.

The reference functions below are the pairwise ``refine``, the
``any()``-scan completeness check and the fixpoint merge loops that the
library used before its linear kernels, the hand-rolled prefix scans
that the sorted-order lookups ``sft.prefix_of``, ``sft.part_at`` and
``sft.cylinder_run`` replaced, the per-window code loops that
``BlockCode.apply_word`` replaced, and the ``compose_shift`` towers that
the window sums of ``functions.window_sum`` replaced under ``birkhoff``,
``rho`` and, inside ``transducer.orbit_sum``, under ``pullback`` and the
exponent fold, and inside ``transducer.transfer_sum``, under ``psi``.
``psi``, which stops each part's sums where the streams of ``h`` and
``h after shift`` meet, is also checked against the sums along the
verified exponents it read before.  ``rho`` is also checked on the deep exchange, on
tables with unsorted entries, on padded presentations and on entries
given as lists.  Each kernel must return exactly what
its reference returns on seeded random inputs over every matrix of
``selftest.MATRICES`` and over the chain corpora.  A table built from
entries not sorted by source, as the benchmark's weight oracle builds
one, must look up exactly like its canonical form.

The trusted constructors are checked against the boundary ones: every
table the group operations build through ``tables.canonical_table`` is
what ``validate_table`` returns for its entries, with no sibling family
left to merge, and every ``higher_block_codes`` result passes
``make_code`` and has the block rows of the blocks x blocks scan, with
successor and predecessor lists equal to the row and column scans.

``transducer.shift_exponents`` is checked against the exponent fold and
per-part minimization that ``orbit.coe_from_chain`` ran before it: the
same ``l1 - k1``, a ``k1`` never larger, and one that is least on every
part of its refinement.  Its read of the kept ``k`` on each part is the
pair's one exact check, run on the first read of ``k1`` or ``l1`` and
not at the build: a failing kernel or a bisection that hands back one
candidate too low raises ``VerificationFailed`` there, also under
``-O``, where ``shiftgroups conjugacy`` exits 2 and ``psi`` and
``pullback`` exit 0.  A build with reads of both makes ``t after shift``
once and no whole-map comparison; a build alone makes none.  The pair is
searched at most once per map: never for a loaded map pulled back
through, in the commutant search or by ``psi``, and once in the witness search,
not for the recoded map its check builds.  It is ``shift_exponents`` of
the transducer, and reading it leaves ``==``, ``hash`` and ``repr``
alone.  Its agreement checks, which slice one core stream
per cylinder, are checked against the window sets the old
``_entries_agree_on`` rebuilt from position 1 on every call, and so are
``_stream``'s reads inside a part, across its end and past it, and
``difference_parts`` on a core rebuilt through a block round trip, which
gives the same ``==`` core; every check reads inside its part's stream.

The depth-first ``sft.walk`` is checked against the breadth-first list
it replaced, and its images against ``BlockCode.apply_word``.  The
chain-map builds are checked against the bodies they replaced:
``make_code`` against the one that read its round trips off two composite
codes at the declared windows (the same code once trimmed by enumeration,
or the same exception type and message, also with
one image changed at the first or the last composite window of either
round trip), with its memory flat in the number of windows, the
window-map check against the one that listed every admissible window
first and against the one that sorted its own keys and walked the
``window + 1`` words for the transitions (seeded maps given as dicts and
as pair lists, repeats included), and its name for a missing window against the window grown one
least successor at a time (past 64 symbols, its ends and length),
``compose_codes`` against the window-by-window build, trimmed, with and
without an identity side, ``orbit._normalize_chain`` against the fold
that composed every table stage with an identity table, and
``stage_transducer``, which reads a first table off its own entries,
against the walk from the identity transducer, the wrong-matrix error
included.

The commutation answers read off the verified exponents are checked
against the walks they replaced, on the three chain corpora and 60
seeded ``random_chain`` draws: ``is_conjugacy`` and ``difference_locus``
(the points it covers) against the equality of ``t after shift`` and
``shift after t``,
``is_identity_transducer`` against the walk that settled each entry's
output word, and the witness level search against the loop that recoded
and inverted the map at every level it tried.  The witness search's
pullback through the level's decode code is checked against the pullback
through the recoded chain map, and the search is held to the one chain
map build of its re-check.  One table stage on a cached normal form is
checked against the rebuild of all the stages, and the commutant search
compares each candidate it tries with one ``difference_parts`` call.

The swaps are checked against the transport they replaced: at block
levels 1 to 5, the ``tables.cylinder_swap`` of each pair
``tables.block_swap_pairs`` lists is the block presentation's prefix
swap carried down through the decode code, in the same order, and
``random_element`` and the commutant search call neither
``higher_block_codes`` nor ``conjugate_by_stages``.
``tables.pullback_table``, one walk over the entries, is checked against
the pullback through the table's transducer, and ``_pair_exchange``
against its hand-built entry list.

The one-pass ``partition``, which reads each sorted member against the
next cylinder after its predecessor, and the ``validate_table`` that
leaves its word checks to the same scan are checked against ordered checks written
here (admissibility, a neighbour scan for repeats and prefixes, then a
preorder completeness walk that checks each node with an ``any()`` scan
when it is popped, so it names the first uncovered cylinder in sorted
order), run family by family for tables, on perturbed families and
mutated tables, each table also shuffled: the same result, or an exception
of the same type and message, with words past 64 symbols spelled by
``sft.word_name``.  The one-step ``shift_point_n``, which ``shift_point``
is, is checked against ``n`` single shifts that each re-canonicalize.

Points are checked once, where they are read.  The trusted
``sft.canonical_point`` and the validating ``canonicalize_point`` are
checked against the ``canonicalize_point`` they replaced, which checked
``u + w + w`` and absorbed one symbol at a time, on pairs whose transient
ends in copies of the cycle, repeated; the one-step ``tables.apply``
against the shift, then the target word prepended through that
reference, on random elements and padded presentations.  Every point
that ``BlockCode.encode``, ``representative``,
``conjugacy._long_cycle_point``, ``transducer.point_apply`` and
``coe_apply`` build is one that the reference returns unchanged, and a
bad point literal still raises ``Inadmissible`` with the message that
names it, also under ``-O``.

The chain layer's one conjugation, ``transducer.conjugate_by_stages``, is
checked against the one-code conjugation it replaced on a one-code tuple,
and ``inverse_stages`` against the inverse stages written out by hand, on
the chain corpora, seeded ``random_chain`` draws and higher-block codes.
Every code is kept at its least windows, so ``==`` on codes, which
replaced the window-aware ``cores_semantically_equal``, is checked
against that function's enumeration of every admissible window of the
longer length on every ordered pair of those codes, with pairs that are
one map built by two routes.  Every code ``compose_codes`` returns in a
seeded run of the chain corpora, ``random_chain`` draws and the witness
and commutant searches is its trim by enumeration (the least ``m`` such
that every admissible window writes its ``m``-prefix's symbol), and no
identity map is stored at a window above 1.  The preferred point
of the difference-point search always has a cycle of at least two
symbols: the cycle of ``_least_long_cycle``, rotated.

The table path is checked against the per-node and per-word steps it
dropped: ``tables.compose``, which reads the outer entry above each
inner target or the sorted run below it, against the settle walk that
refined each inner entry until its image selected one outer entry (on
random elements, padded presentations, cylinder permutations up to
length 6 and products of deep exchanges up to k = 50); the inline word
reads of ``parse_table`` and ``parse_function`` against ``parse_word``
on every field, with odd fields in every position (the same object, or
the same error type, message and line); ``Point.prefix`` against the
``symbol`` loop; ``is_admissible`` against the successor-row scan on
every word up to length 4 with symbols out of range; ``validate_matrix``'s
two reachability passes against the search from every symbol, and
``refine_until``'s reversed letter rows against the ``extensions``
walk, in yield order, with and without a per-child state step.  The
target word each transducer walk carries, one window longer per child,
is checked at every node a few levels below the entries against the
word streamed from the root, on the chain transducers and their
shifted forms, and the stages built on it against the stages that
re-streamed each part at every node, entry for entry once the reference
is brought to canonical form.

Transducers are canonical.  The unmerged stage walk and the unmerged
shifts on either side are kept here as references, and on pairs of
them (one map split into stages two ways, a chain's walk against its
library transducer, the two sides of the commutation at ``(k1, l1)``
and with ``k1`` one higher, a map against itself followed by a swap of
two deep cylinders) the canonical forms are ``==`` exactly when the
reference finds no part where the pair differs.  Every transducer the
library builds is its own canonical form, its entries given in any order.

The input boundary is checked against the kernels it had before it
sorted each family once and looked follower rows up: ``merge_siblings``
with its own sort and each family read off ``successors()``, and
``validate_table`` with ``partition`` on both sides and followers compared
through ``successors()``, on random elements, padded presentations,
cylinder permutations up to length 6 and deep exchanges up to k = 50,
each also shuffled, and on tables with a repeat, a prefix, a gap, an
inadmissible word or a follower mismatch (the same table, or the same
exception type and message); ``functions.make`` likewise, repeated words
included.  The row ids and sibling family rows are checked against
``successors()`` on every 0/1 matrix up to 3 x 3, unvalidated ones with an
empty row included.
"""

import itertools
import math
import random
from bisect import bisect_left
from collections.abc import Mapping
import re
import sys
import time
import tracemalloc
from operator import itemgetter

import pytest
from conftest import deep_exchange, run_python, stage_split_pairs, write_chain

from shiftgroups import functions as fn
from shiftgroups import conjugacy, orbit
from shiftgroups import formats, tables, transducer
from shiftgroups.cocycles import gauge_weight, rho, rho_at, rho_from_entries
from shiftgroups.errors import (
    BadPartition,
    DomainNotPartition,
    FollowerMismatch,
    ImageNotPartition,
    FormatError,
    Inadmissible,
    InadmissibleWord,
    IncompatibleChain,
    NotAdmissibleImage,
    NotInverse,
    NotZeroOne,
    Permutation,
    Reducible,
    SearchBudgetExceeded,
    ShiftError,
    VerificationFailed,
)
from shiftgroups.codes import (
    BlockCode,
    _check_block_map,
    _window_name,
    _raw_code,
    _sorted_pairs,
    compose_codes,
    higher_block,
    higher_block_codes,
    identity_code,
    make_code,
)
from shiftgroups.functions import eval_at, on_refinement, restrict
from shiftgroups.conjugacy import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_LEVEL,
    _find_difference_point,
    _isolating_level,
    _least_long_cycle,
    _long_cycle_point,
    commutant_witness,
    difference_locus,
    is_conjugacy,
    recode_source,
    witness_non_conjugacy,
)
from shiftgroups.formats import (
    format_function,
    format_table,
    load_coe,
    parse_word,
)
from shiftgroups.orbit import (
    CoeMap,
    _normalize_chain,
    coe_apply,
    coe_from_chain,
    coe_invert,
    psi,
    pullback_map,
    stage_transducer,
)
from shiftgroups.selftest import (
    FULL_TWO,
    GOLDEN_MEAN,
    MATRICES,
    commutant_corpus,
    conjugacy_corpus,
    random_chain,
    random_function,
    random_point,
    random_table,
    twisted_corpus,
)
from shiftgroups.sft import (
    EMPTY,
    CylinderPartition,
    Point,
    TransitionMatrix,
    canonical_point,
    canonicalize_point,
    enumerate_words,
    expand_to_depth,
    cylinder_run,
    family_defects,
    merge_siblings,
    part_at,
    partition,
    prefix_of,
    refine,
    refine_until,
    refine_words,
    representative,
    shift_point,
    shift_point_n,
    validate_matrix,
    walk,
    word_name,
)
from shiftgroups.tables import (
    TableElement,
    block_swap_pairs,
    compose,
    cylinder_swap,
    identity_table,
    invert,
    pad_entry,
    prefix_swap,
    random_element,
    validate_table,
)
from shiftgroups.transducer import (
    Transducer,
    _aligned,
    _entries_agree_on,
    _shift_entry,
    _stream,
    apply_code_stage,
    apply_table_stage,
    canonical_transducer,
    conjugate_by_stages,
    difference_parts,
    extract_table,
    from_table,
    identity_transducer,
    inverse_stages,
    is_identity_transducer,
    orbit_sum,
    post_shift,
    precompose_shift,
    pullback,
    shift_exponents,
    transducer_equal,
)

MATRIX_IDS = [name for name, _ in MATRICES]


# -- reference kernels ----------------------------------------------------------


def reference_refine(p, q):
    """Pairwise refinement: the longer word of every comparable pair."""
    out = set()
    for a in p.parts:
        for b in q.parts:
            if b[: len(a)] == a:
                out.add(b)
            elif a[: len(b)] == b:
                out.add(a)
    return CylinderPartition(p.matrix, tuple(sorted(out)))


def reference_refine_words(matrix, families):
    acc = CylinderPartition(matrix, (EMPTY,))
    for family in families:
        acc = reference_refine(acc, CylinderPartition(matrix, tuple(sorted(family))))
    return acc.parts


def reference_expand_to_depth(matrix, word, depth):
    """``sft.expand_to_depth`` as it was: breadth first, one list per level."""
    out = [word]
    while len(out[0]) < depth:
        out = [ext for w in out for ext in matrix.extensions(w)]
    return out


def reference_check_complete(matrix, parts):
    """The first uncovered cylinder in sorted order: a preorder walk that
    checks each node when it is popped and pushes its children reversed."""
    stack = [EMPTY]
    while stack:
        node = stack.pop()
        if node in parts:
            continue
        if not any(p[: len(node)] == node for p in parts):
            raise BadPartition(f"no part covers sequences through {word_name(node)}")
        stack.extend(reversed(matrix.extensions(node)))


def reference_partition(matrix, parts):
    """The ordered checks ``partition`` ran before its one pass, on the
    family as given, sharing no code with it: a repeated word fails the
    neighbour scan."""
    parts = tuple(sorted(tuple(p) for p in parts))
    if not parts:
        raise BadPartition("a partition needs at least one part")
    for p in parts:
        matrix.check_admissible(p)
    for a, b in zip(parts, parts[1:]):
        if a == b:
            raise BadPartition(f"word {word_name(a)} repeats")
        if b[: len(a)] == a:
            raise BadPartition(f"{word_name(a)} is a prefix of {word_name(b)}")
    reference_check_complete(matrix, frozenset(parts))
    return CylinderPartition(matrix, parts)


def reference_validate_table(matrix, entries):
    """``validate_table``'s order of checks, sharing no code with
    ``partition``: an empty word, then the source family and then the
    target family through :func:`reference_partition`, then the first
    follower mismatch by source."""
    raw = [(tuple(nu), tuple(mu)) for nu, mu in entries]
    if any(not word for entry in raw for word in entry):
        raise InadmissibleWord("table words must be nonempty")
    try:
        reference_partition(matrix, [nu for nu, _ in raw])
    except Inadmissible as exc:
        raise InadmissibleWord(str(exc)) from exc
    except BadPartition as exc:
        raise DomainNotPartition(str(exc)) from exc
    try:
        reference_partition(matrix, [mu for _, mu in raw])
    except Inadmissible as exc:
        raise InadmissibleWord(str(exc)) from exc
    except BadPartition as exc:
        raise ImageNotPartition(str(exc)) from exc
    for nu, mu in sorted(raw):
        if matrix.successors(nu[-1]) != matrix.successors(mu[-1]):
            raise FollowerMismatch(f"entry {word_name(nu)} -> {word_name(mu)} pairs different "
                                   "follower rows")
    return tables.canonical_table(matrix, raw)


def reference_shift_point_n(point, n):
    """``n`` single shifts, each re-canonicalizing the point from scratch."""
    for _ in range(n):
        u, w = point.transient, point.cycle
        point = canonicalize_point(point.matrix, u[1:], w) if u else canonicalize_point(
            point.matrix, EMPTY, w[1:] + w[:1])
    return point


def reference_merge_siblings(matrix, table):
    changed = True
    while changed:
        changed = False
        for word in sorted(table, key=len, reverse=True):
            if word not in table or not word:
                continue
            parent = word[:-1]
            family = matrix.extensions(parent)
            if all(table.get(c) == table[word] for c in family):
                value = table[word]
                for c in family:
                    del table[c]
                table[parent] = value
                changed = True
    return table


def reference_merge_entries(matrix, entries):
    changed = True
    while changed:
        changed = False
        for nu in sorted(entries, key=len, reverse=True):
            if nu not in entries or len(nu) < 2:
                continue
            mu = entries[nu]
            if len(mu) < 2 or nu[-1] != mu[-1]:
                continue
            p_nu, p_mu = nu[:-1], mu[:-1]
            letters = matrix.successors(p_nu[-1])
            if matrix.successors(p_mu[-1]) != letters:
                continue
            family = [(p_nu + (a,), p_mu + (a,)) for a in letters]
            if all(entries.get(src) == dst for src, dst in family):
                for src, _ in family:
                    del entries[src]
                entries[p_nu] = p_mu
                changed = True
    return entries


def reference_starts_with_scan(members, point):
    """The first member whose cylinder holds the point, scanning them all."""
    for member in members:
        if point.starts_with(member):
            return member
    raise AssertionError("complete partition failed to cover a point")


def reference_longest_prefix(family, word):
    """The backwards loop over the prefixes of ``word``."""
    for i in range(len(word), -1, -1):
        if word[:i] in family:
            return word[:i]
    return None


def reference_forward_scan(family, word):
    """The forward scan over the members, as ``tables.compose`` did."""
    for member in family:
        if word[: len(member)] == member:
            return member
    return None


def reference_restrict(f, word):
    out = []
    for w, v in f.pieces:
        if w[: len(word)] == word:
            out.append((w, v))
        elif word[: len(w)] == w:
            out.append((word, v))
    return out


def reference_exponent_pieces(n, mu):
    """The pieces ``post_shift`` cut each part ``mu`` into, with their values."""
    values = dict(n.pieces)
    pieces = [p for p in values if p[: len(mu)] == mu] or [mu]
    out = []
    for piece in pieces:
        word = piece if len(piece) >= len(mu) else mu
        out.append((word, values[reference_longest_prefix(values, word)]))
    return out


def reference_restriction(t, part):
    for mu, alpha, r in t.entries:
        if part[: len(mu)] == mu:
            return alpha, r
    raise AssertionError("no entry covers the part")


def reference_encode(code, point):
    """Every window of the transient and of one cycle, read symbol by symbol."""
    u, w = point.transient, point.cycle
    m = code.window
    table = dict(code.mapping)
    new_u = tuple(
        table[tuple(point.symbol(j) for j in range(i, i + m))]
        for i in range(1, len(u) + 1)
    )
    new_w = tuple(
        table[tuple(point.symbol(j) for j in range(i, i + m))]
        for i in range(len(u) + 1, len(u) + len(w) + 1)
    )
    return canonicalize_point(code.target, new_u, new_w)


def reference_known_prefix(t, mu, alpha, r):
    m = t.core.window
    table = dict(t.core.mapping)
    streamed = tuple(
        table[mu[r + j: r + j + m]]
        for j in range(max(0, len(mu) - r - m + 1))
    )
    return alpha + streamed


def reference_birkhoff(f, exponent):
    """The tower: ``max(exponent)`` shifted copies of ``f``, refined together."""
    shifted = [f]
    for _ in range(1, exponent.max_value()):
        shifted.append(fn.compose_shift(shifted[-1]))
    table = {}
    for part, values in on_refinement(exponent, *shifted):
        table[part] = sum(values[1: values[0] + 1])
    return fn.canonical(f.matrix, table)


def reference_pullback(g, t):
    """The recursive single-position walk of the old ``pullback``."""
    pieces = dict(g.pieces)
    out = {}

    def emit(mu, alpha, r):
        piece = reference_longest_prefix(pieces, reference_known_prefix(t, mu, alpha, r))
        if piece is not None:
            out[mu] = pieces[piece]
            return
        for child in t.source.extensions(mu):
            emit(child, alpha, r)

    for mu, alpha, r in t.entries:
        emit(mu, alpha, r)
    return fn.canonical(t.source, out)


def reference_sum_along(f, exponent, t, behind_shift):
    """The tower of ``orbit._sum_along``: one pullback and one or two
    ``compose_shift`` per step; ``behind_shift`` sums from ``h(shift x)``."""
    terms = []
    g = f
    for _ in range(max(0, exponent.max_value())):
        term = reference_pullback(g, t)
        if behind_shift:
            term = fn.compose_shift(term)
        terms.append(term)
        g = fn.compose_shift(g)
    table = {}
    for part, values in on_refinement(exponent, *terms):
        table[part] = sum(values[1: values[0] + 1])
    return fn.canonical(exponent.matrix, table)


def reference_table_stage_data(table):
    """A table's pair as a self chain map, from its own ``(k, l)``:
    ``k1 = k . shift`` and ``l1 = k + s`` with ``s = l . shift + 1 - l``,
    padded per part so ``s`` stays nonnegative."""
    k_tau, l_tau, _ = tables.cocycle_data(table)
    s = fn.compose_shift(l_tau) + fn.constant(table.matrix, 1) - l_tau
    k_table, l_table = {}, {}
    for part, (shifted_k, plain_k, sv) in on_refinement(fn.compose_shift(k_tau), k_tau, s):
        pad = max(0, -sv)
        k_table[part] = shifted_k + pad
        l_table[part] = plain_k + sv + pad
    return fn.canonical(table.matrix, k_table), fn.canonical(table.matrix, l_table)


def reference_minimize_pair(t, k, l):
    """The largest common drop on each part of ``on_refinement(k, l)``,
    every candidate tested with two whole-map ``post_shift`` transducers."""
    shifted = precompose_shift(t)
    k_table, l_table = {}, {}
    for part, (kv, lv) in on_refinement(k, l):
        best = 0
        for drop in range(min(kv, lv), 0, -1):
            lhs = post_shift(shifted, fn.constant(k.matrix, kv - drop))
            rhs = post_shift(t, fn.constant(k.matrix, lv - drop))
            if not difference_parts(lhs, rhs, part):
                best = drop
                break
        k_table[part], l_table[part] = kv - best, lv - best
    return fn.canonical(k.matrix, k_table), fn.canonical(k.matrix, l_table)


def reference_shift_exponents(h):
    """Each table stage's pair folded along the chain, then minimized,
    as ``coe_from_chain`` derived ``(k1, l1)`` before ``shift_exponents``."""
    source = h.source
    k, l = fn.constant(source, 0), fn.constant(source, 1)
    if not h.pre.is_identity():
        k, l = orbit._fold_stage_data(k, l, *reference_table_stage_data(h.pre),
                                      identity_transducer(source))
    if not h.post.is_identity():
        partial = orbit.stage_transducer(source, (h.pre, h.core))
        k, l = orbit._fold_stage_data(k, l, *reference_table_stage_data(h.post), partial)
    return reference_minimize_pair(h.transducer, k, l)


def reference_window_sets(matrix, window, mu, upto):
    """Possible code windows at positions 1..upto for points of ``mu``,
    every window of the shift listed and scanned against ``mu``."""
    def compatible(word, offset):
        for i, symbol in enumerate(word):
            position = offset + i
            if position < len(mu) and mu[position] != symbol:
                return False
        return True

    current = {w for w in enumerate_words(matrix, window) if compatible(w, 0)}
    for p in range(1, upto + 1):
        yield current
        current = {
            w[1:] + (a,)
            for w in current
            for a in matrix.successors(w[-1])
            if compatible(w[1:] + (a,), p)
        }


def reference_entries_agree_on(matrix, core1, core2, part, a1, r1, a2, r2):
    """Entry agreement from window sets rebuilt from position 1, read
    with the core of the side with the smaller shift."""
    if r1 > r2:
        a1, r1, a2, r2 = a2, r2, a1, r1
        core1, core2 = core2, core1
    gap = r2 - r1
    if len(a1) + gap != len(a2) or a2[: len(a1)] != a1:
        return False
    if gap == 0:
        return True
    needed = a2[len(a1):]
    table = core1.symbol_map()
    for p, windows in enumerate(reference_window_sets(matrix, core1.window, part, r2), start=1):
        if p <= r1:
            continue
        if {table[w] for w in windows} != {needed[p - r1 - 1]}:
            return False
    return True


def reference_difference_parts(t1, t2):
    """``difference_parts`` over the whole shift, each part checked with
    :func:`reference_entries_agree_on` and both cores."""
    return tuple(sorted(
        part for part, (_, a1, r1), (_, a2, r2) in _aligned(t1, t2)
        if not reference_entries_agree_on(t1.source, t1.core, t2.core, part, a1, r1, a2, r2)))


def reference_code(source, target, window, mapping, inverse_window, inverse_mapping):
    """A code with both maps sorted as declared, at the declared windows."""
    return BlockCode(source, target, window, tuple(sorted(mapping.items())),
                     inverse_window, tuple(sorted(inverse_mapping.items())))


def reference_least_map(matrix, window, table):
    """The least ``m`` such that every admissible window writes the symbol
    of the first window with its ``m``-prefix, with the map on the prefixes."""
    windows = enumerate_words(matrix, window)
    for m in range(1, window + 1):
        prefixes = {}
        if all(prefixes.setdefault(w[:m], table[w]) == table[w] for w in windows):
            return m, tuple(sorted(prefixes.items()))


def reference_trim(code):
    """``code`` with each map at its least window, found by enumeration."""
    return BlockCode(code.source, code.target,
                     *reference_least_map(code.source, code.window, code.symbol_map()),
                     *reference_least_map(code.target, code.inverse_window,
                                          code.inverse().symbol_map()))


def reference_compose_codes(outer, inner):
    """Both tables of ``outer after inner`` rebuilt window by window, as
    ``compose_codes`` did before it returned the other side of an
    identity code as it is, and before codes were kept at their least
    windows."""
    if inner.target != outer.source:
        raise ValueError("codes do not chain")
    window = inner.window + outer.window - 1
    table = {word: outer.apply_word(inner.apply_word(word))[0]
             for word in reference_expand_to_depth(inner.source, EMPTY, window)}
    inner_inverse, outer_inverse = inner.inverse(), outer.inverse()
    inv_window = outer.inverse_window + inner.inverse_window - 1
    inv_table = {word: inner_inverse.apply_word(outer_inverse.apply_word(word))[0]
                 for word in reference_expand_to_depth(outer.target, EMPTY, inv_window)}
    return reference_code(inner.source, outer.target, window, table, inv_window, inv_table)


def reference_make_code(source, target, window, mapping, inverse_window, inverse_mapping):
    """``make_code`` reading the round trips off the sorted mappings of the
    two composites :func:`reference_compose_codes` builds, at the declared
    windows; the code it returns is untrimmed."""
    for name, value in (("window", window), ("inverse window", inverse_window)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    code = reference_code(source, target, window, dict(mapping), inverse_window,
                          dict(inverse_mapping))
    inverse = code.inverse()
    _check_block_map(source, target, window, code.mapping)
    _check_block_map(target, source, inverse_window, inverse.mapping)
    for composite in (reference_compose_codes(inverse, code),
                      reference_compose_codes(code, inverse)):
        for word, symbol in composite.mapping:
            if symbol != word[0]:
                raise NotInverse(
                    f"round trip sends the window {word} to {symbol}, not {word[0]}")
    return code


def reference_listing_check_block_map(source, target, window, table):
    """``codes._check_block_map`` as it was first: every admissible window
    listed before any key is compared with them."""
    windows = reference_expand_to_depth(source, EMPTY, window)
    for word in windows:
        if word not in table:
            raise NotAdmissibleImage(f"no image declared for window {word}")
        if not 1 <= table[word] <= target.n:
            raise NotAdmissibleImage(f"image of {word} is not a target symbol")
    if len(table) > len(windows):
        stray = min(set(table).difference(windows))
        raise NotAdmissibleImage(f"{stray} is not an admissible window of {window} symbols")
    for word in reference_expand_to_depth(source, EMPTY, window + 1):
        a, b = table[word[:-1]], table[word[1:]]
        if not target.entry(a, b):
            raise NotAdmissibleImage(
                f"windows of {word} map to the forbidden transition {a} -> {b}")


def reference_check_block_map(source, target, window, mapping):
    """``codes._check_block_map`` as it was before ``make_code`` handed it
    sorted pairs: it takes a mapping or pairs, sorts the keys itself and
    checks the transitions with a depth-``window + 1`` walk whose nodes
    look their last ``window`` symbols up."""
    pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
    keys = sorted(w for w, _ in pairs)
    windows = [w for w in keys if len(w) == window and source.is_admissible(w)]
    repeat, gap = family_defects(source, windows)
    if repeat is not None:
        raise NotAdmissibleImage(repeat)
    table = dict(pairs)
    bad = next((w for w in windows if not 1 <= table[w] <= target.n), None)
    if gap is not None and (bad is None or gap < bad):
        raise NotAdmissibleImage(
            f"no image declared for window {_window_name(source, gap, window)}")
    if bad is not None:
        raise NotAdmissibleImage(f"image of {word_name(bad)} is not a target symbol")
    if len(windows) < len(keys):
        stray = next(w for w in keys if len(w) != window or not source.is_admissible(w))
        raise NotAdmissibleImage(f"{word_name(stray)} "
                                 f"is not an admissible window of {window} symbols")
    for word, (a, b) in walk(source, EMPTY, window + 1,
                             lambda path: table.get(tuple(path[-window:]))):
        if not target.entry(a, b):
            raise NotAdmissibleImage(
                f"windows of {word_name(word)} map to the forbidden transition {a} -> {b}")


def reference_normalize_chain(source, stages):
    """``orbit._normalize_chain`` starting both sides from the identity
    table, so every table stage is composed with one, and folding codes
    with :func:`reference_compose_codes`."""
    pre = identity_table(source)
    core = post = None
    current = source
    for stage in stages:
        if isinstance(stage, TableElement):
            if stage.matrix != current:
                raise IncompatibleChain("table stage acts on the wrong shift space")
            if core is None:
                pre = compose(stage, pre)
            else:
                post = compose(stage, post)
        else:
            if stage.source != current:
                raise IncompatibleChain("code stage reads the wrong shift space")
            if core is None:
                core, post = stage, identity_table(stage.target)
            else:
                post = reference_conjugate_table_by_code(stage, post)
                core = reference_compose_codes(stage, core)
            current = stage.target
    if core is None:
        core, post = identity_code(current), identity_table(current)
    return pre, core, post


def reference_conjugate_table_by_code(code, table):
    """The one-code conjugation ``code . table . code^{-1}`` that
    ``transducer.conjugate_by_stages`` replaced."""
    return extract_table(stage_transducer(code.target, (code.inverse(), table, code)))


def reference_cores_semantically_equal(c1, c2):
    """Whether two codes are the same map, as ``cores_semantically_equal``
    decided it before codes were canonical, listing every admissible window
    of the longer window length."""
    if c1.source != c2.source or c1.target != c2.target:
        return False
    if c1.mapping == c2.mapping:
        return True
    t1, t2 = c1.symbol_map(), c2.symbol_map()
    length = max(c1.window, c2.window)
    return all(
        t1[w[: c1.window]] == t2[w[: c2.window]]
        for w in enumerate_words(c1.source, length)
    )


def reference_block_rows(matrix, m):
    """The blocks x blocks scan: ``w`` is followed by ``v`` when they
    overlap in ``m - 1`` symbols and the joined word is admissible."""
    blocks = enumerate_words(matrix, m)
    return tuple(
        tuple(1 if v[: m - 1] == w[1:] and matrix.entry(w[-1], v[-1]) else 0
              for v in blocks)
        for w in blocks
    )


def reference_rho_from_entries(f, table, entries):
    """Two birkhoff towers, an inverse and two ``pullback_table`` round trips."""
    k, l, _ = tables.cocycle_data_from_entries(table.matrix, entries)
    k_on_image = tables.pullback_table(k, tables.invert(table))
    return reference_birkhoff(f, l) - tables.pullback_table(
        reference_birkhoff(f, k_on_image), table)


def reference_precompose_shift(t):
    """``precompose_shift`` as it ran before canonical transducers: each
    entry under every letter that may precede it, kept as it comes."""
    return Transducer(t.core, tuple(sorted(
        ((a,) + mu, alpha, r + 1) for mu, alpha, r in t.entries
        for a in (t.source.predecessors(mu[0]) if mu else t.source.symbols()))))


def reference_post_shift(t, n):
    """``post_shift`` as it ran before canonical transducers: each entry
    cut to the pieces of ``n`` and shifted, kept as it comes."""
    return Transducer(t.core, tuple(sorted(
        (word, *_shift_entry(alpha, r, n0))
        for mu, alpha, r in t.entries for word, n0 in restrict(n, mu))))


def reference_shift_pair(t):
    """``t after shift`` and ``shift after t``, as two transducers built
    without canonical forms."""
    return reference_precompose_shift(t), reference_post_shift(t, fn.constant(t.source, 1))


def reference_is_conjugacy(h):
    """``is_conjugacy`` as the equality of the two sides of the commutation."""
    return not difference_parts(*reference_shift_pair(h.transducer))


def reference_difference_locus(h):
    """``difference_locus`` as the parts where the two sides differ."""
    return difference_parts(*reference_shift_pair(h.transducer))


def reference_is_identity_transducer(t):
    """The walk that settled each entry's cylinder until its output word
    was decided against ``mu``, then accepted a core that writes each
    window's symbol at offset ``|alpha| - r``."""
    if t.source != t.target:
        return False
    m = t.core.window
    table = t.core.symbol_map()

    def projects_to(offset):
        return all(table[v] == v[offset] for v in enumerate_words(t.source, m))

    def entry_ok(mu, alpha, r):
        common = min(len(mu), len(alpha))
        if mu[:common] != alpha[:common]:
            return False
        if len(mu) < len(alpha):
            return None
        offset = len(alpha) - r
        if offset < 0 or offset >= m:
            return False
        return projects_to(offset)

    roots = [(mu, (alpha, r)) for mu, alpha, r in t.entries]
    return all(ok for _, ok in refine_until(t.source, roots, entry_ok))


def reference_witness_level(h, z, max_level=DEFAULT_MAX_LEVEL):
    """The witness level loop that recoded ``h`` and inverted the recoded
    map at every level it tried, as ``(level, pair, x_star)``, or None
    when no level up to ``max_level`` isolates ``z``."""
    w0 = shift_point(coe_apply(h, z))
    for level in range(1, max_level + 1):
        h_level, encode_code = recode_source(h, level)
        z_level = encode_code.encode(z)
        pair = (z_level.symbol(1), z_level.symbol(2))
        if pair[0] == pair[1]:
            continue
        x_star = coe_apply(coe_invert(h_level), w0)
        if x_star.prefix(2) == pair or x_star.symbol(1) == pair[1]:
            continue
        return level, pair, x_star
    return None


def reference_block_swap(level, decode, z1, z2):
    """The prefix swap of the blocks ``z1`` and ``z2`` carried down to the
    base shift through the level's decode code, as ``random_element`` and
    the commutant search built it before ``tables.cylinder_swap``; at
    level 1 the blocks are the base symbols."""
    swap = prefix_swap(decode.source, z1, z2)
    return swap if level == 1 else reference_conjugate_table_by_code(decode, swap)


def reference_pair_exchange(matrix, depth_budget, rng):
    """``tables._pair_exchange`` with its hand-built entry list."""
    length = rng.randint(2, depth_budget)
    words = enumerate_words(matrix, length)
    pairs = [(a, b) for i, a in enumerate(words) for b in words[i + 1:]
             if matrix.successors(a[-1]) == matrix.successors(b[-1])]
    if not pairs:
        return identity_table(matrix)
    a, b = pairs[rng.randrange(len(pairs))]
    entries = [(w, w) for w in words if w not in (a, b)] + [(a, b), (b, a)]
    return tables.canonical_table(matrix, entries)


# -- seeded inputs ----------------------------------------------------------------


def random_parts(matrix, rng, depth=5, splits=12):
    """A complete prefix-free family: the empty word split at random."""
    parts = {EMPTY}
    for _ in range(rng.randint(0, splits)):
        splittable = sorted(w for w in parts if len(w) < depth)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        parts.remove(word)
        parts.update(matrix.extensions(word))
    return parts


def random_piece_table(matrix, rng):
    """Values on a random partition, then split further keeping values, so
    merges cascade over several levels; a few values are then changed."""
    table = {w: rng.randint(-1, 1) for w in random_parts(matrix, rng, depth=3, splits=5)}
    for _ in range(rng.randint(0, 10)):
        splittable = sorted(w for w in table if len(w) < 6)
        if not splittable:
            break
        word = splittable[rng.randrange(len(splittable))]
        value = table.pop(word)
        for child in matrix.extensions(word):
            table[child] = value
    words = sorted(table)
    for _ in range(rng.randint(0, 2)):
        table[words[rng.randrange(len(words))]] = rng.randint(-1, 1)
    return shuffled(table, rng)


def random_exponent(matrix, rng, top=4):
    """A nonnegative function on a random partition."""
    return fn.make(matrix, {w: rng.randint(0, top)
                            for w in random_parts(matrix, rng, depth=3, splits=4)})


def shuffled(table, rng):
    items = list(table.items())
    rng.shuffle(items)
    return dict(items)


def random_word(matrix, rng, depth=7):
    word = ()
    for _ in range(rng.randint(0, depth)):
        extensions = matrix.extensions(word)
        word = extensions[rng.randrange(len(extensions))]
    return word


def comb(matrix, k):
    """The complete family of the deep swap's domain, over any matrix: the
    siblings along the k-symbol path of least successors, then the
    path's own extensions (on the full 2-shift, ``2``, ``1^j 2`` and
    ``1^k 1``, ``1^k 2``)."""
    path, family = (), []
    for _ in range(k):
        first, *others = matrix.extensions(path)
        family += others
        path = first
    return family + list(matrix.extensions(path))


def bad_letters(matrix, word):
    """Letters that cannot follow ``word``: 0, ``n + 1`` and the forbidden
    symbols."""
    allowed = set(matrix.successors(word[-1])) if word else set(matrix.symbols())
    return [b for b in range(matrix.n + 2) if b not in allowed]


def perturbed(matrix, family, rng):
    """A complete family after one to three random edits at its members,
    most of which break it."""
    members = sorted(family)
    family = list(members)
    for _ in range(rng.randint(1, 3)):
        word = rng.choice(members)
        kind = rng.randrange(8)
        if kind in (0, 4, 5, 6) and word in family:
            family.remove(word)
        if kind == 1:
            longer = word
            for _ in range(rng.randint(1, 3)):
                longer = rng.choice(matrix.extensions(longer))
            family.append(longer)
        elif kind == 2 and word:
            family.append(word[:-1])
        elif kind == 3 and word:
            family.append(word[:-1] + (rng.choice(bad_letters(matrix, word[:-1])),))
        elif kind == 4:
            family.append(word + (rng.choice(bad_letters(matrix, word)),))
        elif kind == 5:
            family.extend(matrix.extensions(word))
        elif kind == 6 and word:
            family.append(word[:-1] + (rng.randint(0, matrix.n + 1),))
        elif kind == 7:
            family.append(word)
    rng.shuffle(family)
    return family


def mutated(matrix, entries, rng):
    """Table entries after one or two random edits, most of which break
    the table."""
    entries = list(entries)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(entries))
        nu, mu = entries[i]
        kind = rng.randrange(7)
        if kind == 0:
            j = rng.randrange(len(entries))
            entries[i], entries[j] = (nu, entries[j][1]), (entries[j][0], mu)
        elif kind == 1 and len(entries) > 1:
            del entries[i]
        elif kind == 2:
            entries.append((nu, entries[rng.randrange(len(entries))][1]))
        elif kind == 3:
            entries[i] = (EMPTY, mu) if rng.random() < 0.5 else (nu, EMPTY)
        elif kind == 4:
            if rng.random() < 0.5:
                entries[i] = (nu + (rng.choice(bad_letters(matrix, nu)),), mu)
            else:
                entries[i] = (nu, mu[:-1] + (rng.choice(bad_letters(matrix, mu[:-1])),))
        elif kind == 5:
            entries[i] = (nu, mu[:-1] + (rng.randint(1, matrix.n),))
        else:
            entries[i:i + 1] = pad_entry(matrix, (nu, mu), 1)
    rng.shuffle(entries)
    return entries


def outcome(check, matrix, arg):
    """The value ``check`` returns, or the type and message it raises."""
    try:
        return check(matrix, arg)
    except ShiftError as exc:
        return type(exc), str(exc)


def random_cycle_point(matrix, rng):
    """A point with a random transient and a random, maybe repeated, cycle
    closed on the walk, made canonical."""
    walk = random_word(matrix, rng, depth=12)
    starts = [i for i, a in enumerate(walk) if matrix.entry(walk[-1], a)]
    if not starts:
        return representative(matrix, walk)
    i = rng.choice(starts)
    return canonicalize_point(matrix, walk[:i], walk[i:] * rng.randint(1, 2))


def small_matrices():
    """Every irreducible non-permutation 0/1 matrix on up to three symbols."""
    out = []
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            try:
                out.append(validate_matrix([bits[i * n: (i + 1) * n] for i in range(n)]))
            except ShiftError:
                pass
    return out


def chain_maps():
    maps = conjugacy_corpus() + twisted_corpus() + commutant_corpus()
    rng = random.Random(23)
    for _, matrix in MATRICES:
        maps.extend(random_chain(matrix, rng) for _ in range(4))
    return maps


# -- refine -----------------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_refine_matches_pairwise_reference(matrix):
    rng = random.Random(11)
    for _ in range(200):
        p = partition(matrix, random_parts(matrix, rng))
        q = partition(matrix, random_parts(matrix, rng))
        assert refine(p, q) == reference_refine(p, q)
    for _ in range(50):
        families = [random_parts(matrix, rng) for _ in range(rng.randint(1, 4))]
        assert refine_words(matrix, families) == reference_refine_words(matrix, families)


# -- completeness check -----------------------------------------------------------


def check_message(check, matrix, parts):
    try:
        check(matrix, frozenset(parts))
    except BadPartition as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_completeness_check_matches_reference(matrix):
    rng = random.Random(13)
    incomplete = 0
    for _ in range(300):
        parts = sorted(random_parts(matrix, rng))
        if len(parts) > 1:
            # Drop one part, and sometimes put back part of its subtree.
            gone = parts.pop(rng.randrange(len(parts)))
            children = list(matrix.extensions(gone))
            parts.extend(c for c in children if rng.random() < 0.5)
        expected = check_message(reference_check_complete, matrix, parts)
        assert check_message(partition, matrix, parts) == expected
        if expected is not None:
            incomplete += 1
            with pytest.raises(BadPartition, match=re.escape(expected)):
                partition(matrix, parts)
    assert incomplete > 100
    deep = comb(matrix, 300)
    assert check_message(partition, matrix, deep) is None
    assert check_message(reference_check_complete, matrix, deep) is None
    for gone in (deep[0], deep[len(deep) // 2], deep[-1]):
        parts = [w for w in deep if w != gone]
        expected = check_message(reference_check_complete, matrix, parts)
        assert expected is not None
        assert check_message(partition, matrix, parts) == expected


# -- one-scan validation ----------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_partition_scan_matches_ordered_checks(matrix):
    """Perturbed random families and the perturbed 300-deep comb: the
    same partition, or the same first error."""
    rng = random.Random(73)
    families = [[], [EMPTY], [EMPTY, (1,)], [(0,)], [(matrix.n + 1,)]]
    for _ in range(400):
        family = random_parts(matrix, rng)
        families += [family, perturbed(matrix, family, rng)]
    deep = comb(matrix, 300)
    families += [deep] + [perturbed(matrix, deep, rng) for _ in range(30)]
    seen = set()
    for family in families:
        expected = outcome(reference_partition, matrix, family)
        assert outcome(partition, matrix, family) == expected
        seen.add(expected[0] if isinstance(expected, tuple) else "valid")
    assert seen == {"valid", BadPartition, Inadmissible}


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_validate_table_matches_word_first_reference(matrix):
    """Mutated padded random tables and mutated comb tables: the same table,
    or the same first error.  Each table's defects are named first in sorted
    order, family by family, so a shuffled copy of each case gives exactly
    the case's own outcome: a check that named a defect in entry order
    would fail there."""
    rng = random.Random(79)
    deep = comb(matrix, 300)
    ones = [((a,), (a,)) for a in matrix.symbols()]
    gap_and_bad_target = [((1,), (1, 0))] + ones[1:-1]
    crossed = [((a,), (matrix.n + 1 - a,)) for a in reversed(matrix.symbols())]
    cases = [[(EMPTY, EMPTY)], [(EMPTY, EMPTY), ((1,), EMPTY)],
             [((a,), EMPTY) for a in matrix.symbols()],
             [(w, w) for w in deep], [(w, v) for w, v in zip(deep, reversed(deep))],
             gap_and_bad_target, ones + [ones[0]], crossed]
    assert outcome(validate_table, matrix, gap_and_bad_target)[0] is DomainNotPartition
    assert outcome(validate_table, matrix, ones + [ones[0]]) == (
        DomainNotPartition, "word (1,) repeats")
    for seed in range(150):
        entries = padded(random_element(matrix, 3, seed), rng).entries
        cases += [list(entries), mutated(matrix, entries, rng)]
    cases += [mutated(matrix, cases[3 + i % 2], rng) for i in range(20)]
    seen = set()
    for entries in cases:
        expected = outcome(reference_validate_table, matrix, entries)
        shuffled = list(entries)
        rng.shuffle(shuffled)
        for copy in (entries, shuffled):
            assert outcome(validate_table, matrix, copy) == expected
            assert outcome(reference_validate_table, matrix, copy) == expected
        seen.add(expected[0] if isinstance(expected, tuple) else "valid")
    assert seen >= {"valid", InadmissibleWord, DomainNotPartition, ImageNotPartition}
    if len(set(map(matrix.successors, matrix.symbols()))) > 1:
        assert FollowerMismatch in seen
        assert outcome(validate_table, matrix, crossed)[0] is FollowerMismatch


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_shift_point_n_matches_repeated_shift(matrix):
    rng = random.Random(83)
    transients, cycles = set(), set()
    for _ in range(300):
        x = random_cycle_point(matrix, rng)
        transients.add(len(x.transient))
        cycles.add(len(x.cycle))
        for n in range(21):
            assert shift_point_n(x, n) == reference_shift_point_n(x, n)
    assert min(transients) == 0 and max(transients) > 5 and max(cycles) > 5


# -- trusted points ----------------------------------------------------------------


def reference_canonicalize_point(matrix, transient, cycle):
    """``canonicalize_point`` before the trusted constructor split off: the
    transitions of ``u + w + w`` checked, the cycle's shortest repeating
    prefix, then the transient's last symbol absorbed one at a time while
    it is the cycle's, the cycle rotated each time."""
    u, w = tuple(transient), tuple(cycle)
    if not w:
        raise Inadmissible("cycle word must be nonempty")
    if not matrix.is_admissible(u + w + w):
        raise Inadmissible(f"point {word_name(u)}|{word_name(w)} is not admissible")
    w = next(w[:p] for p in range(1, len(w) + 1) if w[:p] * (len(w) // p) == w)
    u = list(u)
    while u and u[-1] == w[-1]:
        u.pop()
        w = w[-1:] + w[:-1]
    return Point(matrix, tuple(u), w)


def reference_apply(table, point):
    """The table action before its one-step rewrite: the shifted point, then
    the target word prepended, re-checked and made canonical again."""
    nu, mu = table.entry_for(point)
    rest = shift_point_n(point, len(nu))
    return reference_canonicalize_point(point.matrix, mu + rest.transient, rest.cycle)


def assert_canonical_point(point):
    """The reference check and canonical form return ``point`` as it is: it
    is admissible and canonical."""
    assert reference_canonicalize_point(point.matrix, point.transient, point.cycle) == point


def absorbable_point(matrix, rng):
    """An admissible ``(transient, cycle)`` pair that is not canonical: a
    point's transient followed by whole and part copies of its cycle, and
    that cycle, rotated to match, repeated."""
    x = random_cycle_point(matrix, rng)
    w, j = x.cycle, rng.randrange(len(x.cycle))
    transient = x.transient + w * rng.randint(0, 2) + w[:j]
    return transient, (w[j:] + w[:j]) * rng.randint(1, 3)


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_point_constructors_match_absorbing_reference(matrix):
    rng = random.Random(89)
    absorbed = 0
    for _ in range(300):
        transient, cycle = absorbable_point(matrix, rng)
        expected = reference_canonicalize_point(matrix, transient, cycle)
        assert canonical_point(matrix, transient, cycle) == expected
        assert canonicalize_point(matrix, transient, cycle) == expected
        absorbed += len(expected.transient) < len(transient)
    assert absorbed > 100


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_apply_matches_recanonicalizing_reference(matrix):
    """``tables.apply`` on random elements and padded presentations, 50
    seeded points each, with sources that end inside and past the
    transient."""
    rng = random.Random(97)
    inside = set()
    for seed in range(8):
        tau = random_element(matrix, 3, seed)
        for table in (tau, padded(tau, rng)):
            for _ in range(50):
                x = random_cycle_point(matrix, rng)
                y = tables.apply(table, x)
                assert y == reference_apply(table, x)
                assert_canonical_point(y)
                inside.add(len(table.entry_for(x)[0]) < len(x.transient))
    assert inside == {True, False}


def test_library_built_points_are_valid_and_canonical():
    """The points the trusted constructor builds: ``BlockCode.encode`` on the
    codes under test and the block codes of levels 1 to 3,
    ``representative`` on every word up to length 4, ``_long_cycle_point``
    on every word up to length 3, and ``transducer.point_apply`` and
    ``coe_apply`` on the chain maps."""
    rng = random.Random(101)
    codes = codes_under_test()
    for _, matrix in MATRICES:
        for level in (1, 2, 3):
            codes += higher_block_codes(matrix, level)[1:]
        for length in range(5):
            for word in enumerate_words(matrix, length):
                assert_canonical_point(representative(matrix, word))
                if length < 4:
                    assert_canonical_point(_long_cycle_point(matrix, word))
    for code in codes:
        for _ in range(10):
            assert_canonical_point(code.encode(random_cycle_point(code.source, rng)))
    for h in chain_maps():
        for _ in range(10):
            x = random_cycle_point(h.source, rng)
            assert_canonical_point(coe_apply(h, x))
            assert_canonical_point(transducer.point_apply(h.transducer, x))


BAD_POINTS = """
from shiftgroups.errors import Inadmissible
from shiftgroups.formats import parse_point
from shiftgroups.selftest import GOLDEN_MEAN
from shiftgroups.sft import canonicalize_point, representative
calls = [(parse_point, text, GOLDEN_MEAN) for text in
         ("2|2", "|1.2.2", "|2", "|2.1.2", "2|2.1", "3|1", "0|1", "1." * 80 + "2.2|1")]
calls += [(canonicalize_point, GOLDEN_MEAN, (1,), ()), (representative, GOLDEN_MEAN, (2, 2))]
for call, *args in calls:
    try:
        call(*args)
    except Inadmissible as exc:
        print(exc)
"""

BAD_POINT_MESSAGES = [
    "point (2,)|(2,) is not admissible",
    "point ()|(1, 2, 2) is not admissible",
    "point ()|(2,) is not admissible",
    "point ()|(2, 1, 2) is not admissible",
    "point (2,)|(2, 1) is not admissible",
    "point (3,)|(1,) is not admissible",
    "point (0,)|(1,) is not admissible",
    "point (1, 1, 1, 1, ..., 1, 1, 2, 2) of 82 symbols|(1,) is not admissible",
    "cycle word must be nonempty",
    "word (2, 2) is not admissible",
]


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_bad_points_raise_with_their_messages(flags):
    """Points whose transient, cycle, junction or wrap-around is forbidden,
    or that hold a symbol out of range, still raise ``Inadmissible`` with
    the message that names them, also under ``-O``."""
    result = run_python(*flags, "-c", BAD_POINTS)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == BAD_POINT_MESSAGES


# -- canonical merges -------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_merge_siblings_matches_fixpoint_reference(matrix):
    """``functions.canonical`` against the fixpoint loop."""
    rng = random.Random(17)
    merged = 0
    for _ in range(300):
        table = random_piece_table(matrix, rng)
        expected = reference_merge_siblings(matrix, dict(table))
        assert fn.canonical(matrix, table).pieces == tuple(sorted(expected.items()))
        merged += len(expected) < len(table)
    assert merged > 100


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_merge_entries_matches_fixpoint_reference(matrix):
    """``tables.canonical_table`` against the fixpoint loop."""
    rng = random.Random(19)
    for seed in range(60):
        tau = random_element(matrix, 3, seed)
        entries = {}
        for entry in tau.entries:
            for nu, mu in pad_entry(matrix, entry, rng.randint(0, 3)):
                entries[nu] = mu
        entries = shuffled(entries, rng)
        expected = reference_merge_entries(matrix, dict(entries))
        assert tables.canonical_table(matrix, entries.items()).entries == tuple(sorted(expected.items()))
        assert sorted(expected.items()) == list(tau.entries)


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_merges_match_fixpoint_reference_on_deep_combs(matrix):
    """The 300-deep comb with one value merges up every level to the
    constant; with its last word apart, or with one value per length, the
    merges stop at the bottom.  As an identity table it merges to the
    one-symbol identity."""
    deep = comb(matrix, 300)
    for values in ({w: 1 for w in deep},
                   {w: int(w == deep[-1]) for w in deep},
                   {w: len(w) for w in deep}):
        expected = reference_merge_siblings(matrix, dict(values))
        assert fn.canonical(matrix, values).pieces == tuple(sorted(expected.items()))
    assert fn.canonical(matrix, {w: 1 for w in deep}) == fn.constant(matrix, 1)
    assert len(fn.canonical(matrix, {w: int(w == deep[-1]) for w in deep}).pieces) == len(deep)
    entries = {w: w for w in deep}
    assert sorted(reference_merge_entries(matrix, dict(entries)).items()) == list(
        identity_table(matrix).entries)
    assert tables.canonical_table(matrix, entries.items()) == identity_table(matrix)


def test_merges_match_fixpoint_reference_on_single_letter_families():
    """On the golden mean every family below a word ending in 2 has the one
    letter 1, so it merges: the cylinder of 2 cut to each depth merges
    back to 2, in functions and in identity tables.  The exchange of 11
    and 21 keeps ``21 -> 11``, whose parents 2 and 1 have different
    follower rows."""
    for depth in range(2, 10):
        under = expand_to_depth(GOLDEN_MEAN, (2,), depth)
        values = {(1,): 0, **{w: 1 for w in under}}
        assert reference_merge_siblings(GOLDEN_MEAN, dict(values)) == {(1,): 0, (2,): 1}
        assert fn.canonical(GOLDEN_MEAN, values).pieces == (((1,), 0), ((2,), 1))
        entries = {(1,): (1,), **{w: w for w in under}}
        assert reference_merge_entries(GOLDEN_MEAN, dict(entries)) == {(1,): (1,), (2,): (2,)}
        assert tables.canonical_table(GOLDEN_MEAN, entries.items()) == identity_table(GOLDEN_MEAN)
    exchange = {(1, 1): (2, 1), (1, 2): (1, 2), (2, 1): (1, 1)}
    assert reference_merge_entries(GOLDEN_MEAN, dict(exchange)) == exchange
    assert tables.canonical_table(GOLDEN_MEAN, exchange.items()).entries == tuple(exchange.items())


# -- prefix lookups --------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_part_of_matches_starts_with_scans(matrix):
    """``part_at`` under ``locate`` and ``TableElement.entry_for``,
    ``prefix_of`` under ``TableElement.entry_at``, and ``eval_at``'s own
    lookup."""
    rng = random.Random(29)
    for _ in range(100):
        p = partition(matrix, random_parts(matrix, rng))
        f = random_function(matrix, rng)
        tau = random_table(matrix, rng)
        images = dict(tau.entries)
        for _ in range(10):
            x = random_point(matrix, rng, depth=6)
            assert p.locate(x) == reference_starts_with_scan(p.parts, x)
            assert eval_at(f, x) == dict(f.pieces)[reference_starts_with_scan(f.parts, x)]
            nu = reference_starts_with_scan(tau.domain_words, x)
            assert tau.entry_for(x) == (nu, images[nu])
            word = x.prefix(rng.randint(0, 6))
            nu = reference_longest_prefix(images, word)
            assert tau.entry_at(word) == (None if nu is None else (nu, images[nu]))
        copy = TableElement(matrix, tau.entries)
        assert (copy, hash(copy), repr(copy)) == (
            tau, hash(tau), f"TableElement(matrix={matrix!r}, entries={tau.entries!r})")


UNCOVERED_POINT = """
from operator import itemgetter
from shiftgroups.selftest import MATRICES
from shiftgroups.sft import part_at, representative
x = representative(MATRICES[0][1], (2,))
for items, key in ((((1,),), None), ((((1,), 0),), itemgetter(0))):
    try:
        part_at(items, x, 1, key)
    except AssertionError as exc:
        print(exc)
"""


def test_part_of_raises_on_an_uncovered_point():
    """``part_at`` on plain and keyed items, in process and in a
    ``python -O`` child, which strips ``assert`` statements but must keep
    this check."""
    matrix = MATRICES[0][1]
    with pytest.raises(AssertionError, match="failed to cover a point"):
        part_at(((1,),), representative(matrix, (2,)), 1)
    child = run_python("-O", "-c", UNCOVERED_POINT)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "complete partition failed to cover a point\n" * 2


def test_transducer_entry_for_matches_starts_with_scan():
    rng = random.Random(31)
    for h in chain_maps():
        t = h.transducer
        outputs = {mu: (alpha, r) for mu, alpha, r in t.entries}
        for _ in range(20):
            x = random_point(t.source, rng, depth=6)
            mu = reference_starts_with_scan(t.parts, x)
            assert t.entry_for(x) == (mu, *outputs[mu])
        copy = Transducer(t.core, t.entries)
        assert (copy, hash(copy), repr(copy)) == (
            t, hash(t), f"Transducer(core={t.core!r}, entries={t.entries!r})")


def assert_prefix_of_matches(family, word):
    """``prefix_of`` on the sorted family, plain and keyed, against the
    backwards longest-prefix loop and the forward member scan; True on a
    miss."""
    expected = reference_longest_prefix(set(family), word)
    assert reference_forward_scan(family, word) == expected
    assert prefix_of(family, word) == expected
    keyed = [(member, i) for i, member in enumerate(family)]
    found = prefix_of(keyed, word, itemgetter(0))
    assert found == (None if expected is None else (expected, family.index(expected)))
    return expected is None


def near_words(matrix, member, rng):
    """A member, a shorter prefix of it and an admissible extension."""
    longer = member
    for _ in range(rng.randint(1, 3)):
        extensions = matrix.extensions(longer)
        longer = extensions[rng.randrange(len(extensions))]
    return [member, member[: rng.randrange(len(member))] if member else member, longer]


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_prefix_in_matches_prefix_loops(matrix):
    """``prefix_of`` over sorted families: complete ones and ones with a
    member dropped, probed with random words and with words equal to,
    shorter than and longer than members; then the 300-deep comb, probed
    at every seventh member and every seventh depth of its path, and with
    each probed member dropped."""
    rng = random.Random(37)
    misses = 0
    for _ in range(200):
        family = sorted(random_parts(matrix, rng))
        if len(family) > 1 and rng.random() < 0.5:
            family.pop(rng.randrange(len(family)))
        words = [random_word(matrix, rng) for _ in range(10)]
        words += near_words(matrix, family[rng.randrange(len(family))], rng)
        for word in words:
            misses += assert_prefix_of_matches(family, word)
    assert misses > 100
    family = sorted(comb(matrix, 300))
    deep = max(family, key=len)
    for i in range(0, len(family), 7):
        member = family[i]
        for word in near_words(matrix, member, rng) + [deep[:i]]:
            assert_prefix_of_matches(family, word)
        assert assert_prefix_of_matches(family[:i] + family[i + 1:], member)


def assert_restrict_matches(f, word):
    expected = reference_restrict(f, word)
    assert restrict(f, word) == expected
    assert reference_exponent_pieces(f, word) == expected
    inside = [(w, v) for w, v in f.pieces if w[: len(word)] == word]
    assert list(cylinder_run(f.pieces, word, itemgetter(0))) == inside
    assert list(cylinder_run(f.parts, word)) == [w for w, _ in inside]


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_restrict_matches_piece_filters(matrix):
    """``functions.restrict`` and the ``cylinder_run`` under it against
    their old loops and against the piece filter ``post_shift`` used
    before it called ``restrict``; on the full 2-shift also the exponent
    functions of the 300-deep swap, probed with words shorter and longer
    than their pieces."""
    rng = random.Random(41)
    for _ in range(200):
        f = random_function(matrix, rng, depth=4)
        for _ in range(10):
            assert_restrict_matches(f, random_word(matrix, rng, depth=5))
    if matrix != FULL_TWO:
        return
    for f in tables.cocycle_data(deep_exchange(300)):
        for j in range(0, 303, 7):
            ones = (1,) * j
            for word in (ones, ones + (2,), ones + (2, 1, 2), ones + (1, 2, 2, 1)):
                assert_restrict_matches(f, word)


def test_difference_parts_lookup_matches_restriction():
    """The per-part entry lookups of ``_aligned`` against the old
    ``_restriction`` scan, on every part of the two-side refinement."""
    cases = 0
    for h in exponent_chains():
        lhs = post_shift(precompose_shift(h.transducer), h.k1)
        rhs = post_shift(h.transducer, h.l1)
        aligned = list(_aligned(lhs, rhs))
        assert [part for part, _, _ in aligned] == list(
            refine_words(lhs.source, [lhs.parts, rhs.parts]))
        for part, *entries in aligned:
            for t, (mu, alpha, r) in zip((lhs, rhs), entries):
                assert part[: len(mu)] == mu
                assert (alpha, r) == reference_restriction(t, part)
                cases += 1
    assert cases > 1000


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_unsorted_table_looks_up_like_its_inverse(matrix):
    """A table built from the swapped entries of another, as the
    benchmark's weight oracle builds it, is not sorted by source; its
    lookups must still match ``invert``, on random points and, on the
    full 2-shift, on the 300-deep swap at its deep cylinders."""
    rng = random.Random(53)
    cases = [random_table(matrix, rng) for _ in range(40)]
    if matrix == FULL_TWO:
        cases.append(deep_exchange(300))
    unsorted = 0
    for table in cases:
        swapped = TableElement(table.matrix, tuple((mu, nu) for nu, mu in table.entries))
        inverse = invert(table)
        unsorted += list(swapped.entries) != sorted(swapped.entries)
        f = random_function(matrix, rng)
        points = [random_point(matrix, rng, depth=8) for _ in range(10)]
        points += [representative(matrix, nu) for nu, _ in inverse.entries[::7]]
        for x in points:
            assert swapped.entry_for(x) == inverse.entry_for(x)
            assert tables.apply(swapped, x) == tables.apply(inverse, x)
            assert rho_at(f, swapped, x) == rho_at(f, inverse, x)
    assert unsorted > 10


# -- the window stream ------------------------------------------------------------


def codes_under_test():
    codes = [h.core for h in chain_maps()]
    for _, matrix in MATRICES:
        for m in (2, 3):
            _, encode, decode = higher_block_codes(matrix, m)
            codes += [encode, decode]
    return codes


def test_encode_matches_per_window_reference():
    rng = random.Random(43)
    for code in codes_under_test():
        for _ in range(20):
            x = random_point(code.source, rng, depth=6)
            assert code.encode(x) == reference_encode(code, x)
            assert code.inverse().encode(code.encode(x)) == x


def test_known_prefix_matches_streamed_reference():
    """Every node up to three levels below the entries of the chain
    transducers, and of their shifted forms, whose shifts may exceed the
    part depth, carries the target word streamed from the root."""
    cases = 0
    for h in chain_maps():
        t = h.transducer
        shifted = precompose_shift(t)
        for u in (t, shifted, post_shift(t, h.k1), post_shift(shifted, h.l1)):
            def check(word, known, alpha, r, u=u):
                nonlocal cases
                mu, entry_alpha, entry_r = prefix_of(u.entries, word, itemgetter(0))
                assert (alpha, r) == (entry_alpha, entry_r)
                assert known == reference_known_prefix(u, word, alpha, r)
                cases += 1
                return True if len(word) >= len(mu) + 3 else None

            assert all(ok for _, ok in transducer._refine_entries(u, check))
    assert cases > 10000


def reference_stage_transducer(source, stages):
    """``stage_transducer`` as it ran before its walks carried the target
    word: every node streamed its part from the root again."""
    t = identity_transducer(source)
    for stage in stages:
        def decide(mu, alpha, r, t=t, stage=stage):
            known = reference_known_prefix(t, mu, alpha, r)
            if isinstance(stage, TableElement):
                entry = stage.entry_at(known)
                if entry is None:
                    return None
                nu, image = entry
                if len(nu) <= len(alpha):
                    return image + alpha[len(nu):], r
                return image, r + len(nu) - len(alpha)
            needed = len(alpha) + stage.window - 1 if alpha else 0
            return None if len(known) < needed else (stage.apply_word(known[:needed]), r)

        core = t.core if isinstance(stage, TableElement) else compose_codes(stage, t.core)
        roots = [(mu, (alpha, r)) for mu, alpha, r in t.entries]
        t = Transducer(core, tuple(sorted(
            (mu, *output) for mu, output in refine_until(source, roots, decide))))
    return t


def test_stages_match_root_streamed_reference():
    """Entry for entry, once the reference is brought to canonical form, on
    the chain corpora, the ``random_chain`` draws over every matrix and the
    deep exchanges up to k = 50."""
    chains = [h.stages() for h in chain_maps()]
    chains += [_normalize_chain(FULL_TWO, [deep_exchange(k)]) for k in range(1, 51)]
    for stages in chains:
        source = stages[0].matrix
        expected = reference_stage_transducer(source, stages)
        assert stage_transducer(source, stages) == canonical_transducer(expected.core,
                                                                        expected.entries)


def reference_identity_start_stage_transducer(source, stages):
    """``stage_transducer`` as it ran before its first table was read off
    its entries: every stage refines the identity transducer onwards."""
    t = identity_transducer(source)
    for stage in stages:
        if isinstance(stage, TableElement):
            t = t if stage.is_identity() else apply_table_stage(t, stage)
        elif stage != identity_code(stage.source):
            t = apply_code_stage(t, stage)
    return t


def stage_outcome(build, source, stages):
    try:
        return build(source, stages)
    except ValueError as exc:
        return type(exc), str(exc)


def test_first_table_stage_matches_identity_start_reference():
    """The stages of the two corpora, of 60 seeded ``random_chain`` draws and
    of those draws with a ``pad_entry``-padded first table; then a first
    table, changing the map or not, on another matrix than the source: the
    same transducer, or the same ``ValueError``, as the walk from the
    identity transducer."""
    rng = random.Random(71)
    draws = [random_chain(matrix, rng) for _, matrix in MATRICES for _ in range(20)]
    chains = [(h.source, h.stages()) for h in conjugacy_corpus() + twisted_corpus() + draws]
    chains += [(h.source, (padded(h.pre, rng),) + h.stages()[1:]) for h in draws]
    for h in draws:
        other = next(m for _, m in MATRICES if m != h.source)
        chains += [(h.source, (table,) + h.stages())
                   for table in (random_table(other, rng), identity_table(other))]
    wrong = 0
    for source, stages in chains:
        got = stage_outcome(stage_transducer, source, stages)
        assert got == stage_outcome(reference_identity_start_stage_transducer, source, stages)
        wrong += got == (ValueError, "table acts on the wrong shift space")
    assert wrong > 40


def test_symbol_map_is_read_only():
    _, encode, _ = higher_block_codes(MATRICES[0][1], 2)
    with pytest.raises(TypeError):
        encode.symbol_map()[(1, 1)] = 2
    assert dict(encode.symbol_map()) == dict(encode.mapping)


# -- word walks -------------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_walk_matches_breadth_first_reference(matrix):
    """From every word of up to three symbols, to depths from one below its
    length to four above: the same words in the same order, and no images
    without ``symbol``.  A depth at or below the word's length yields the
    word alone."""
    cases = 0
    words = [w for length in range(4) for w in reference_expand_to_depth(matrix, EMPTY, length)]
    for word in words:
        for depth in range(len(word) - 1, len(word) + 5):
            pairs = list(walk(matrix, word, depth))
            assert [w for w, _ in pairs] == reference_expand_to_depth(matrix, word, depth)
            assert {image for _, image in pairs} == {()}
            if depth <= len(word):
                assert pairs == [(word, ())]
            cases += 1
    assert cases > 60
    with pytest.raises(ValueError, match="length must be >= 0"):
        enumerate_words(matrix, -1)


def test_walk_images_are_the_code_applied():
    """With a code's window lookup as ``symbol``, at lengths ``window`` to
    ``window + 3``: each leaf's image is the code applied to the leaf."""
    leaves = 0
    for code in codes_under_test():
        table, m = code.symbol_map(), code.window
        for depth in range(m, m + 4):
            pairs = list(walk(code.source, EMPTY, depth,
                              lambda path: table.get(tuple(path[-m:]))))
            assert [w for w, _ in pairs] == reference_expand_to_depth(code.source, EMPTY, depth)
            assert all(image == code.apply_word(w) for w, image in pairs)
            leaves += len(pairs)
    assert leaves > 3000


def reference_apply_word(code, word):
    """One window slice and lookup per position, as ``apply_word`` read a word."""
    table, m = code.symbol_map(), code.window
    return tuple(table[word[i: i + m]] for i in range(len(word) - m + 1))


def test_apply_word_matches_per_window_reference():
    """Every word over ``0..n`` up to length ``window + 3`` on every code
    under test, admissible or not, so also words shorter than a window: the
    same image, or a ``KeyError`` naming the same first missing window."""
    outcomes = {"image": 0, "missing": 0}
    for code in codes_under_test():
        letters = range(code.source.n + 1)
        for length in range(code.window + 4):
            for word in itertools.product(letters, repeat=length):
                try:
                    expected = reference_apply_word(code, word)
                except KeyError as exc:
                    with pytest.raises(KeyError) as raised:
                        code.apply_word(word)
                    assert raised.value.args == exc.args
                    outcomes["missing"] += 1
                    continue
                assert code.apply_word(word) == expected
                outcomes["image"] += 1
    assert min(outcomes.values()) > 1000


# -- chain-map builds -------------------------------------------------------------


def code_outcome(*args):
    """What ``make_code`` and its reference give for the same arguments: the
    code (the reference's after :func:`reference_trim`), or the type and
    message of what they raise."""
    out = []
    for check, trim in ((make_code, lambda code: code), (reference_make_code, reference_trim)):
        try:
            out.append(trim(check(*args)))
        except (ShiftError, ValueError) as exc:
            out.append((type(exc), str(exc)))
    return out


def test_make_code_matches_composite_reference():
    """The codes under test as given, with windows below 1, and with one
    or two inverse windows sent to another symbol or left out."""
    rng = random.Random(97)
    seen = {"accepted": 0, NotInverse: 0, NotAdmissibleImage: 0, ValueError: 0}
    for code in codes_under_test():
        inverses = [dict(code.inverse_mapping)]
        for _ in range(12):
            inverse = dict(code.inverse_mapping)
            for word in rng.sample(sorted(inverse), min(len(inverse), rng.randint(1, 2))):
                if rng.random() < 0.15:
                    del inverse[word]
                else:
                    inverse[word] = rng.randint(1, code.source.n)
            inverses.append(inverse)
        cases = [(code.window, 0, inverses[0]), (0, code.inverse_window, inverses[0])]
        cases += [(code.window, code.inverse_window, inverse) for inverse in inverses]
        for window, inverse_window, inverse in cases:
            got, expected = code_outcome(code.source, code.target, window,
                                         dict(code.mapping), inverse_window, inverse)
            assert got == expected
            seen["accepted" if got == code else got[0]] += 1
    assert min(seen.values()) > 10
    flips = 0
    for code, maps, named in end_flips():
        got, expected = code_outcome(code.source, code.target, code.window, *maps)
        assert got == expected
        assert got[0] is NotInverse and (named is None or named in got[1])
        flips += 1
    assert flips > 50


def end_flips():
    """For each code under test and each round trip, the outer map with its
    image changed at the window the inner map writes on the first, then on
    the last composite window, to each other symbol that the listing block
    map check accepts: ``(code, (mapping, inverse_window, inverse_mapping),
    named)``, where ``named`` starts the message's window when no earlier
    composite window can fail first, and is None otherwise."""
    for code in codes_under_test():
        inverse = code.inverse()
        for first, second in ((code, inverse), (inverse, code)):
            windows = reference_expand_to_depth(
                first.source, EMPTY, first.window + second.window - 1)
            for word in (windows[0], windows[-1]):
                read = first.apply_word(word)
                for symbol in second.target.symbols():
                    table = {**second.symbol_map(), read: symbol}
                    try:
                        reference_listing_check_block_map(second.source, second.target,
                                                          second.window, table)
                    except NotAdmissibleImage:
                        continue
                    if symbol != second.symbol_map()[read]:
                        maps = ((dict(code.mapping), code.inverse_window, table)
                                if second is inverse
                                else (table, code.inverse_window, dict(code.inverse_mapping)))
                        first_named = second is inverse and word == windows[0]
                        yield code, maps, f"window {word} to" if first_named else None


def test_round_trip_lists_no_windows():
    """``make_code`` on the identity written at window 7 on both sides of
    the full 2-shift checks its declared maps and returns the identity
    code with flat memory; a list of its 2 x 8192 declared composite
    windows of 13 symbols alone takes about 2 MB."""
    table = {w: w[0] for w in enumerate_words(FULL_TWO, 7)}
    tracemalloc.start()
    try:
        code = make_code(FULL_TWO, FULL_TWO, 7, table, 7, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == identity_code(FULL_TWO)
    assert peak < 500_000


def mutated_block_map(code, rng):
    """The window and window map of ``code`` after one or two random edits,
    most of which break it: a key dropped, a stray key added (shorter,
    longer, inadmissible or out of range), an image moved, maybe out of
    range, or the window itself changed."""
    source, window, table = code.source, code.window, dict(code.mapping)
    for _ in range(rng.randint(1, 2)):
        word = rng.choice(sorted(table)) if table else (1,) * window
        kind = rng.randrange(6)
        if kind == 0:
            table.pop(word, None)
        elif kind == 1:
            table[word[:-1]] = 1
        elif kind == 2:
            table[word + (rng.randint(0, source.n + 1),)] = 1
        elif kind == 3:
            table[word[:-1] + (rng.randint(0, source.n + 1),)] = rng.randint(1, code.target.n)
        elif kind == 4:
            table[word] = rng.randint(0, code.target.n + 1)
        else:
            window = max(1, window + rng.choice((-1, 1)))
    return window, table


def test_block_map_check_matches_listing_reference():
    """Mutated window maps of the codes under test; maps 12 symbols wide on
    the full 2-shift with one key, all keys but one, or one stray key; empty
    maps; keys shorter or longer than the window, or inadmissible and of its
    length, next to a full map or in place of a missing window; and an image
    that is no target symbol on the window just before, or just after, the
    first missing one: the same verdict, or the same message, as the check
    that listed every admissible window first."""
    rng = random.Random(101)
    cases = []
    for code in codes_under_test():
        cases.append((code.source, code.target, code.window, dict(code.mapping)))
        cases += [(code.source, code.target, *mutated_block_map(code, rng)) for _ in range(6)]
    wide = {w: w[0] for w in enumerate_words(FULL_TWO, 12)}
    cases += [(FULL_TWO, FULL_TWO, 12, {(1,): 1}),
              (FULL_TWO, FULL_TWO, 12, {**wide, (2,) * 13: 1})]
    for word in rng.sample(sorted(wide), 3):
        cases.append((FULL_TWO, FULL_TWO, 12, {w: a for w, a in wide.items() if w != word}))
    golden = {w: w[0] for w in enumerate_words(GOLDEN_MEAN, 4)}
    cases += [(FULL_TWO, FULL_TWO, 12, {}), (GOLDEN_MEAN, GOLDEN_MEAN, 4, {})]
    for source, window, full in ((FULL_TWO, 12, wide), (GOLDEN_MEAN, 4, golden)):
        listed = sorted(full)
        for k in (1, rng.randrange(2, len(listed) - 2), len(listed) - 2):
            missing = listed[k]
            rest = {w: a for w, a in full.items() if w != missing}
            strays = [missing[:-1], missing + (1,), missing[:-1] + (source.n + 1,), (2,) * window]
            cases += [(source, source, window, {**table, stray: 1})
                      for table in (full, rest) for stray in strays]
            cases += [(source, source, window, {**rest, listed[k - 1]: 3}),
                      (source, source, window, {**rest, listed[k + 1]: 0})]
    seen = {"accepted": 0, "no image": 0, "not a target symbol": 0,
            "not an admissible window": 0, "forbidden transition": 0}
    for source, target, window, table in cases:
        verdicts = []
        for check, pairs in ((_check_block_map, _sorted_pairs(table)),
                             (reference_listing_check_block_map, table)):
            try:
                verdicts.append(check(source, target, window, pairs))
            except NotAdmissibleImage as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]
        kind = next((k for k in seen if verdicts[0] and k in verdicts[0]), "accepted")
        seen[kind] += 1
    assert min(seen.values()) > 10


def edited_block_map(source, target, table, rng):
    """The pairs of ``table`` after zero to two seeded edits, shuffled: a
    window dropped or repeated (with its image or another), a stray key
    (shorter, longer, or of the window's length and inadmissible or out of
    range) or an image outside ``1..target.n``."""
    pairs = list(table.items())
    for _ in range(rng.randint(0, 2)):
        word, image = rng.choice(pairs)
        kind = rng.randrange(5)
        if kind == 0:
            pairs.remove((word, image))
        elif kind == 1:
            pairs.append((word, rng.choice((image, rng.randint(1, target.n)))))
        elif kind == 2:
            pairs.append((rng.choice((word[:-1], word + (rng.randint(1, source.n),))), 1))
        elif kind == 3:
            wrong = [a for a in range(source.n + 2) if a not in source.followers[word[-2]]
                     ] if len(word) > 1 else [0, source.n + 1]
            pairs.append((word[:-1] + (rng.choice(wrong),), rng.randint(1, target.n)))
        else:
            pairs[pairs.index((word, image))] = (word, rng.choice((0, target.n + 1, -1)))
    rng.shuffle(pairs)
    return pairs


def block_map_cases(rng):
    """Seeded block maps over the selftest matrices at windows 1 to 3, each
    with its target: the identity read off the first symbol of each window,
    the block encode map onto the block presentation, and seeded images
    into each selftest matrix, most with forbidden transitions; each edited
    by :func:`edited_block_map`."""
    for (_, source), window in itertools.product(MATRICES, (1, 2, 3)):
        windows = enumerate_words(source, window)
        block_matrix, encode, _ = higher_block_codes(source, window)
        maps = [(source, {w: w[0] for w in windows}), (block_matrix, dict(encode.mapping))]
        maps += [(target, {w: rng.randint(1, target.n) for w in windows})
                 for _, target in MATRICES for _ in range(2)]
        for target, table in maps:
            for _ in range(8):
                yield source, target, window, edited_block_map(source, target, table, rng)


def test_block_map_check_matches_walk_reference():
    """The sorted-pairs check, its transitions read off the follower rows of
    each window, against the walk it replaced, on :func:`block_map_cases`
    given as pair lists and as dicts: the same verdict, or the same type and
    message.  Every kind of defect shows up, and repeats only in lists."""
    rng = random.Random(113)
    seen = {"accepted": 0, "repeats": 0, "no image": 0, "not a target symbol": 0,
            "not an admissible window": 0, "forbidden transition": 0}
    for source, target, window, pairs in block_map_cases(rng):
        for given in (pairs, dict(pairs)):
            verdicts = []
            for check, arg in ((_check_block_map, _sorted_pairs(given)),
                               (reference_check_block_map, given)):
                try:
                    verdicts.append(check(source, target, window, arg))
                except ShiftError as exc:
                    verdicts.append((type(exc), str(exc)))
            assert verdicts[0] == verdicts[1]
            kind = next((k for k in seen if verdicts[0] and k in verdicts[0][1]), "accepted")
            seen[kind] += 1
    assert min(seen.values()) > 20


def test_long_missing_window_is_named_by_its_ends():
    """The missing window the block-map check names is its node grown one
    least successor at a time to the full window.  Up to 64 symbols it is
    named in full; past that by its first and last four symbols and its
    length, read off the eventually periodic least-successor walk, which
    on the matrices below runs into cycles of length 1, 2 and 3, after a
    lead-in or none, from nodes of every depth."""
    lead_in = validate_matrix([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                               [0, 1, 0, 0, 1], [1, 0, 0, 0, 0]])
    rng = random.Random(61)
    named = 0
    for matrix in [m for _, m in MATRICES] + [lead_in]:
        for window in [*range(1, 70), 100, 1000, 1001, 1002]:
            for depth in {0, min(2, window), window - 1, window, rng.randint(0, window)}:
                node = [rng.choice(matrix.symbols())] if depth else [1]
                while len(node) < depth:
                    node.append(rng.choice(matrix.successors(node[-1])))
                grown = list(node)
                while len(grown) < window:
                    grown.append(matrix.successors(grown[-1])[0])
                name = _window_name(matrix, node, window)
                if window <= 64:
                    assert name == str(tuple(grown))
                else:
                    ends = ", ".join(map(str, grown[:4] + ["..."] + grown[-4:]))
                    assert name == f"({ends}) of {window} symbols"
                    named += 1
    assert named > 50


def test_compose_codes_matches_window_by_window_reference():
    """The identity code on either side, which returns the other code as
    it is, and pairs the shortcut must not take: codes and their
    inverses, the block round trip (the identity map, read off windows
    of 2), and window-1 codes on the full 2-shift where only one of the two
    symbol maps is the identity.  Each result is the window-by-window
    composite trimmed to its least windows."""
    one_sided = _raw_code(FULL_TWO, FULL_TWO, 1, (((1,), 1), ((2,), 2)),
                          1, (((1,), 2), ((2,), 1)))
    pairs = [(one_sided, one_sided), (one_sided.inverse(), one_sided.inverse())]
    for code in codes_under_test():
        pairs += [(code, identity_code(code.source)), (identity_code(code.target), code),
                  (code.inverse(), code), (code, code.inverse())]
        if code.source == FULL_TWO:
            pairs += [(code, one_sided), (code, one_sided.inverse())]
        if code.target == FULL_TWO:
            pairs += [(one_sided, code), (one_sided.inverse(), code)]
    for _, matrix in MATRICES:
        _, encode, decode = higher_block_codes(matrix, 2)
        round_trip = compose_codes(decode, encode)
        pairs += [(round_trip, round_trip), (encode, round_trip)]
    shortcuts = 0
    for outer, inner in pairs:
        got = compose_codes(outer, inner)
        assert got == reference_trim(reference_compose_codes(outer, inner))
        shortcuts += got is outer or got is inner
    assert compose_codes(one_sided, one_sided) == identity_code(FULL_TWO)
    assert 50 < shortcuts < len(pairs) - 50


def normalize_cases():
    """Chains with 0, 1 or 2 tables before and after 0, 1 or 2 codes:
    the 2-block encode, then its decode, and a self-map core of the
    chain maps, once or twice."""
    rng = random.Random(101)
    cores = {h.core.source: h.core for h in chain_maps()
             if h.core.target == h.core.source and h.core != identity_code(h.core.source)}
    for _, matrix in MATRICES:
        _, encode, decode = higher_block_codes(matrix, 2)
        code_runs = [(), (encode,), (encode, decode)]
        if matrix in cores:
            code_runs += [(cores[matrix],), (cores[matrix], cores[matrix])]
        for codes in code_runs:
            target = codes[-1].target if codes else matrix
            for before, after in itertools.product(range(3), repeat=2):
                stages = [random_element(matrix, 3, rng.randrange(1 << 20))
                          for _ in range(before)]
                stages += codes
                stages += [random_element(target, 3, rng.randrange(1 << 20))
                           for _ in range(after)]
                yield matrix, stages


def test_normalize_chain_matches_identity_composing_reference():
    codes = {0: 0, 1: 0, 2: 0}
    for source, stages in normalize_cases():
        pre, core, post = reference_normalize_chain(source, stages)
        assert _normalize_chain(source, stages) == (pre, reference_trim(core), post)
        codes[sum(not isinstance(stage, TableElement) for stage in stages)] += 1
    assert min(codes.values()) >= 27


def test_composites_are_kept_at_their_least_windows(monkeypatch):
    """Every code ``compose_codes`` returns while the chain corpora and
    seeded ``random_chain`` draws are built, their exponents read and
    their witness and commutant searches run is its trim by enumeration,
    and none is the identity map stored at a window above 1."""
    returned = []

    def recorded(outer, inner):
        returned.append(compose_codes(outer, inner))
        return returned[-1]

    monkeypatch.setattr(orbit, "compose_codes", recorded)
    monkeypatch.setattr(transducer, "compose_codes", recorded)
    for h in commutation_chains():
        h.k1
        try:
            witness_non_conjugacy(h)
            if h.source == h.target:
                commutant_witness(h)
        except SearchBudgetExceeded:
            pass
    identities = 0
    for code in returned:
        assert code == reference_trim(code)
        if reference_cores_semantically_equal(code, identity_code(code.source)):
            assert code.window == code.inverse_window == 1
            identities += 1
    assert len(returned) > 100 and identities > 10


def stage_codes():
    """Identity codes, higher-block encode and decode codes at levels 1 to
    3 with both their composites, and the cores of the chain corpora and
    of seeded ``random_chain`` draws with their inverses, on the three
    selftest matrices."""
    codes = []
    for _, matrix in MATRICES:
        codes.append(identity_code(matrix))
        for level in (1, 2, 3):
            _, encode, decode = higher_block_codes(matrix, level)
            codes += [encode, decode, compose_codes(decode, encode), compose_codes(encode, decode)]
    for h in chain_maps():
        codes += [h.core, h.core.inverse()]
    return codes


def test_code_equality_matches_window_enumeration():
    """Every ordered pair of the stage codes, whose keys are exactly their
    admissible windows, and of each of them declared one symbol wider
    through ``make_code``: ``==`` is the same map, by the enumeration of
    the longer windows.  The block round trips, the identity read off
    windows of 2 or 3, and the wider declarations are one map built by
    two routes."""
    codes = stage_codes()
    codes += [make_code(c.source, c.target, c.window + 1,
                        {w: c.symbol_map()[w[:-1]] for w in enumerate_words(c.source, c.window + 1)},
                        c.inverse_window, c.inverse().symbol_map())
              for c in codes]
    for code in codes:
        assert [w for w, _ in code.mapping] == enumerate_words(code.source, code.window)
    verdicts = {True: 0, False: 0}
    for c1 in codes:
        for c2 in codes:
            verdict = c1 == c2
            assert verdict == reference_cores_semantically_equal(c1, c2)
            if c1.source == c2.source and c1.target == c2.target and c1 is not c2:
                verdicts[verdict] += 1
    assert min(verdicts.values()) > 50


def test_conjugate_by_stages_matches_one_code_reference():
    """One code as a one-stage tuple conjugates each seeded table as the
    old one-code conjugation did, and the inverse stages of every chain
    map are the ones written out by hand."""
    checked = 0
    for code in stage_codes():
        for seed in range(2):
            tau = random_element(code.source, 3, seed)
            assert conjugate_by_stages((code,), tau) == reference_conjugate_table_by_code(code, tau)
            checked += 1
    assert checked > 300
    for h in commutation_chains():
        assert inverse_stages(h.stages()) == (invert(h.post), h.core.inverse(), invert(h.pre))


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_long_cycle_point_has_the_least_long_cycle(matrix):
    """Every word of up to six symbols: the preferred point lies in the
    word's cylinder and its cycle is the least long cycle, rotated."""
    cycle = _least_long_cycle(matrix)
    rotations = {cycle[i:] + cycle[:i] for i in range(len(cycle))}
    assert len(cycle) >= 2
    for depth in range(7):
        for word in enumerate_words(matrix, depth):
            point = _long_cycle_point(matrix, word)
            assert point.starts_with(word)
            assert point.cycle in rotations


# -- restriction of a refinement to a cylinder ------------------------------------


def test_parts_under_matches_three_family_refinement():
    """``_aligned``, under ``difference_parts``, refines two transducer
    partitions and then restricts to ``under`` with one ``cylinder_run``;
    the reference refines with ``[under]`` as a third family and keeps the
    words inside its cylinder."""
    cases = 0
    for h in chain_maps():
        t = h.transducer
        lhs = post_shift(precompose_shift(t), h.k1)
        rhs = post_shift(t, h.l1)
        matrix = t.source
        unders = {part for part, _ in on_refinement(h.k1, h.l1)}
        unders.update(w for depth in range(4) for w in enumerate_words(matrix, depth))
        unders.update(lhs.parts[:20])
        refined = refine_words(matrix, [lhs.parts, rhs.parts])
        for under in sorted(unders):
            expected = [p for p in reference_refine_words(matrix, [lhs.parts, rhs.parts, [under]])
                        if p[: len(under)] == under]
            assert [part for part, _, _ in _aligned(lhs, rhs, under)] == expected
            assert list(cylinder_run(refined, under)) == [
                p for p in refined if p[: len(under)] == under]
            cases += 1
    assert cases > 1000


# -- orbit sums -------------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_birkhoff_matches_tower_reference(matrix):
    rng = random.Random(47)
    for _ in range(100):
        f = random_function(matrix, rng)
        n = random_exponent(matrix, rng)
        assert fn.birkhoff(f, n) == reference_birkhoff(f, n)


# -- cylinder swaps ---------------------------------------------------------------


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_cylinder_swap_matches_block_swap_transport(matrix):
    """At levels 1 to 5, the ``cylinder_swap`` of each pair
    ``block_swap_pairs`` lists is the block presentation's prefix swap
    carried down through the decode code, pair by pair in block order."""
    for level in range(1, 6):
        block, _, decode = higher_block_codes(matrix, level)
        expected = [reference_block_swap(level, decode, z1, z2)
                    for z1 in block.symbols() for z2 in block.successors(z1) if z1 != z2]
        got = [cylinder_swap(matrix, u, v) for u, v in block_swap_pairs(matrix, level)]
        assert got == expected


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_pair_exchange_matches_entry_list_reference(matrix):
    """The same draws give the same exchange as the hand-built entry list."""
    for depth_budget in (2, 3, 4):
        for seed in range(10):
            assert (tables._pair_exchange(matrix, depth_budget, random.Random(seed))
                    == reference_pair_exchange(matrix, depth_budget, random.Random(seed)))


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_pullback_table_matches_transducer_pullback(matrix):
    """Seeded tables, plain and ``pad_entry``-padded: the same function as
    the pullback through the table's transducer."""
    rng = random.Random(73)
    for _ in range(40):
        tau = random_table(matrix, rng)
        f = random_function(matrix, rng)
        for table in (tau, padded(tau, rng)):
            assert tables.pullback_table(f, table) == pullback(f, transducer.from_table(table))


@pytest.mark.parametrize("k", [3, 30, 300])
def test_pullback_table_matches_transducer_pullback_on_the_deep_exchange(k):
    tau = deep_exchange(k)
    rng = random.Random(k)
    fs = [fn.indicator(FULL_TWO, (2,)), fn.indicator(FULL_TWO, (1,) * k),
          *tables.cocycle_data(tau), *(random_function(FULL_TWO, rng) for _ in range(5))]
    for f in fs:
        assert tables.pullback_table(f, tau) == pullback(f, transducer.from_table(tau))


def test_swaps_build_no_block_code_or_transport(monkeypatch):
    """``random_element`` and ``commutant_witness`` build their swaps on
    the base shift: neither calls ``higher_block_codes`` or
    ``conjugate_by_stages``, through any module's binding of them.
    ``recode_source``, which does build a block code, shows the count
    works."""
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    rng = random.Random(79)
    maps = commutant_corpus() + [random_chain(m, rng) for _ in range(5) for _, m in MATRICES]
    real = {"higher_block_codes": higher_block_codes,
            "conjugate_by_stages": conjugate_by_stages}
    for module_name, module in sorted(sys.modules.items()):
        if module_name.partition(".")[0] == "shiftgroups":
            for name, function in real.items():
                if getattr(module, name, None) is function:
                    monkeypatch.setattr(module, name, counted(name, function))
    recode_source(maps[0], 2)
    assert "higher_block_codes" in calls
    calls.clear()
    for _, matrix in MATRICES:
        for seed in range(20):
            random_element(matrix, 3 + seed % 3, seed)
    searched = 0
    for h0 in maps:
        if h0.source == h0.target:
            conjugacy.commutant_witness(h0)
            searched += 1
    assert calls == []
    assert searched > len(commutant_corpus())



@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_rho_matches_two_birkhoff_reference(matrix):
    """Plain and ``pad_entry``-padded presentations of seeded tables."""
    rng = random.Random(53)
    for _ in range(40):
        tau = random_table(matrix, rng)
        f = random_function(matrix, rng)
        padded = [e for entry in tau.entries
                  for e in pad_entry(matrix, entry, rng.randint(0, 2))]
        expected = reference_rho_from_entries(f, tau, tau.entries)
        assert rho(f, tau) == expected
        assert rho_from_entries(f, tau, padded) == expected


def assert_rho_matches(f, table, entries, tower=True):
    """``rho_from_entries`` against the tower reference, unless ``tower``
    is false, and against ``rho_at`` on the representative of every part
    of the result."""
    got = rho_from_entries(f, table, entries)
    if tower:
        assert got == reference_rho_from_entries(f, table, entries)
    for part, value in got.pieces:
        assert rho_at(f, table, representative(table.matrix, part)) == value
    return got


def full_depth_weight(matrix, rng, depth):
    """A weight that reads exactly ``depth`` symbols everywhere."""
    return fn.make(matrix, {w: rng.randint(-3, 3) for w in enumerate_words(matrix, depth)})


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9, 40])
def test_rho_matches_reference_on_the_deep_exchange(k):
    """Depth-1 weights, with two values on ``1`` and ``2`` as the
    benchmark draws them, and depth-2 and depth-3 weights, on the
    exchange's own entries, padded, swapped and as lists.  The tower
    reference holds about ``2**k`` pieces, so at k = 40 only ``rho_at``
    and the agreement of the presentations check the result."""
    rng = random.Random(61 + k)
    tower = k < 10
    tau = deep_exchange(k)
    swapped = TableElement(tau.matrix, tuple((mu, nu) for nu, mu in tau.entries))
    weights = [fn.make(FULL_TWO, {(1,): rng.randint(-3, 3), (2,): rng.randint(-3, 3)})]
    weights += [full_depth_weight(FULL_TWO, rng, depth) for depth in (2, 3)]
    padded = [e for entry in tau.entries for e in pad_entry(FULL_TWO, entry, 1)]
    as_lists = [[list(nu), list(mu)] for nu, mu in tau.entries]
    for f in weights:
        expected = assert_rho_matches(f, tau, tau.entries, tower)
        assert rho(f, tau) == expected
        assert assert_rho_matches(f, tau, padded, tower) == expected
        assert assert_rho_matches(f, tau, as_lists, tower) == expected
        inverse = assert_rho_matches(f, swapped, swapped.entries, tower)
        assert gauge_weight(tau, f) == inverse


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_rho_matches_reference_on_swapped_and_list_entries(matrix):
    """Tables built from swapped entries, as the benchmark's ``weight``
    oracle builds the inverse, are not sorted by source: ``rho`` on them
    is ``gauge_weight`` of the original.  Padded presentations of them and
    entries given as lists give the same function."""
    rng = random.Random(67)
    unsorted = 0
    for _ in range(30):
        tau = random_table(matrix, rng)
        swapped = TableElement(matrix, tuple((mu, nu) for nu, mu in tau.entries))
        unsorted += list(swapped.entries) != sorted(swapped.entries)
        f = random_function(matrix, rng)
        expected = assert_rho_matches(f, swapped, swapped.entries)
        assert rho(f, swapped) == gauge_weight(tau, f) == expected
        padded = [e for entry in swapped.entries
                  for e in pad_entry(matrix, entry, rng.randint(0, 2))]
        assert assert_rho_matches(f, swapped, padded) == expected
        as_lists = [[list(nu), list(mu)] for nu, mu in swapped.entries]
        assert assert_rho_matches(f, swapped, as_lists) == expected
    assert unsorted > 5


def test_orbit_sums_match_tower_references():
    """``psi``, ``pullback_map`` and the exponent fold on the chain
    corpora and ``random_chain`` draws."""
    rng = random.Random(59)
    for h in chain_maps():
        t = h.transducer
        for _ in range(3):
            g = random_function(h.target, rng)
            expected = (reference_sum_along(g, h.l1, t, False)
                        - reference_sum_along(g, h.k1, t, True))
            assert psi(h, g) == expected
            assert pullback_map(g, h) == reference_pullback(g, t)
        stage_k, stage_l = random_exponent(h.target, rng), random_exponent(h.target, rng)
        expected = (
            reference_sum_along(stage_l, h.k1, t, True) + reference_sum_along(stage_k, h.l1, t, False),
            reference_sum_along(stage_k, h.k1, t, True) + reference_sum_along(stage_l, h.l1, t, False),
        )
        assert orbit._fold_stage_data(h.k1, h.l1, stage_k, stage_l, t) == expected


def reference_psi(h, g):
    """``psi`` as it was before it cancelled the stream that ``h`` and ``h after
    shift`` share: the ``g``-sum along the ``l1`` shifts of ``h(x)`` minus the
    one along the ``k1`` shifts of ``h(shift x)``, the verified exponents."""
    t = h.transducer
    return orbit_sum(g, h.l1, t) - orbit_sum(g, h.k1, precompose_shift(t))


def test_psi_matches_exponent_sum_reference():
    """``psi``, whose sums stop on each part where the two streams meet,
    against the sums along the verified exponents: on both corpora, 30
    seeded ``random_chain`` draws per matrix and the deep swap at k = 25, 50
    and 100, with ``g`` of depth 1 to 3."""
    rng = random.Random(41)
    maps = conjugacy_corpus() + twisted_corpus()
    maps += [random_chain(matrix, rng) for _, matrix in MATRICES for _ in range(30)]
    maps += [coe_from_chain([deep_exchange(k)]) for k in (25, 50, 100)]
    for h in maps:
        for depth in (1, 2, 3):
            g = random_function(h.target, rng, depth)
            assert psi(h, g) == reference_psi(h, g)


# -- shift exponents --------------------------------------------------------------


def exponent_chains():
    """The chain corpora and ``random_chain`` draws of :func:`chain_maps`,
    plus 20 more draws per matrix."""
    rng = random.Random(1)
    return chain_maps() + [random_chain(matrix, rng)
                           for _, matrix in MATRICES for _ in range(20)]


def test_shift_exponents_match_fold_and_minimize_reference():
    """Same ``l1 - k1`` as the folded and minimized pair, and ``k1`` never
    larger; on some chains it is smaller, since the reference drops one
    amount over a whole part of ``on_refinement(k, l)``."""
    smaller = 0
    for h in exponent_chains():
        k, l = reference_shift_exponents(h)
        assert h.l1 - h.k1 == l - k
        assert (k - h.k1).min_value() >= 0
        smaller += (k - h.k1).max_value() > 0
    assert smaller > 0


def test_shift_exponents_are_least_per_part():
    """On each part of the refinement of ``t`` and ``t after shift``, the
    pair one lower fails the whole-map comparison wherever both
    exponents stay nonnegative."""
    lowered = 0
    for h in exponent_chains():
        t = h.transducer
        shifted = precompose_shift(t)
        for part in refine_words(t.source, [t.parts, shifted.parts]):
            [(_, k)], [(_, l)] = restrict(h.k1, part), restrict(h.l1, part)
            assert not difference_parts(post_shift(shifted, fn.constant(t.source, k)),
                                        post_shift(t, fn.constant(t.source, l)), part)
            if min(k, l) > 0:
                lhs = post_shift(shifted, fn.constant(t.source, k - 1))
                rhs = post_shift(t, fn.constant(t.source, l - 1))
                assert difference_parts(lhs, rhs, part)
                lowered += 1
    assert lowered > 100


def test_exponent_check_failure_is_named(monkeypatch):
    """With every agreement check failing, no candidate passes on the first
    part: the first read of ``k1`` after the build raises
    ``VerificationFailed`` naming it, not ``IndexError``."""
    monkeypatch.setattr(transducer, "_entries_agree_on", lambda *args: False)
    h = coe_from_chain([prefix_swap(GOLDEN_MEAN, 1, 2)])
    with pytest.raises(VerificationFailed, match=r"on the part \(1, 1, 1\)$"):
        h.k1


def test_exponent_check_failure_is_named_under_python_O():
    """The check is a ``raise``, not an ``assert``, so ``-O`` keeps it."""
    script = ("from shiftgroups import orbit, transducer\n"
              "from shiftgroups.selftest import GOLDEN_MEAN\n"
              "from shiftgroups.tables import prefix_swap\n"
              "transducer._entries_agree_on = lambda *args: False\n"
              "orbit.coe_from_chain([prefix_swap(GOLDEN_MEAN, 1, 2)]).k1\n")
    result = run_python("-O", "-c", script)
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == (
        "shiftgroups.errors.VerificationFailed: "
        "no shift-matching exponent pair checks on the part (1, 1, 1)")


def test_exponent_check_reads_the_kept_candidate(monkeypatch):
    """A bisection that hands back the candidate one below the least valid
    one is caught by the read of the kept ``k`` on that part, at the first
    read of ``k1``; where it hands back the least, the map and its
    exponents come out unchanged."""
    maps = twisted_corpus()
    pairs = [(h.k1, h.l1) for h in maps]  # found before the bisection is patched
    off = []

    def one_below(candidates, x, key):
        i = bisect_left(candidates, x, key=key)
        off.append(i > 0)
        return max(i - 1, 0)

    monkeypatch.setattr(transducer, "bisect_left", one_below)
    caught = 0
    for h, pair in zip(maps, pairs):
        off.clear()
        try:
            rebuilt = coe_from_chain(h.stages())
            assert (rebuilt, (rebuilt.k1, rebuilt.l1)) == (h, pair)
            assert not any(off)
        except VerificationFailed:
            assert off[-1]
            caught += 1
    assert caught > 5


def test_chain_map_build_checks_its_exponents_once(monkeypatch):
    """Each ``coe_from_chain`` on the twisted corpus, with reads of both
    ``k1`` and ``l1``, builds ``t after shift`` once, in
    ``shift_exponents``, and builds no whole-map comparison: no
    ``post_shift``.  The build alone builds neither."""
    maps = twisted_corpus()
    pairs = [(h.k1, h.l1) for h in maps]  # found before the count starts
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("precompose_shift", "post_shift"):
        wrapper = counted(name, getattr(transducer, name))
        monkeypatch.setattr(transducer, name, wrapper)
        monkeypatch.setattr(orbit, name, wrapper)
    for h, pair in zip(maps, pairs):
        calls.clear()
        rebuilt = coe_from_chain(h.stages())
        assert rebuilt == h
        assert calls == []
        assert (rebuilt.k1, rebuilt.l1) == pair
        assert calls == ["precompose_shift"]



# -- exponents on first read ---------------------------------------------------


def counted_shift_exponents(monkeypatch):
    """The transducers ``orbit.shift_exponents`` runs on from here on."""
    calls = []

    def wrapper(t):
        calls.append(t)
        return shift_exponents(t)

    monkeypatch.setattr(orbit, "shift_exponents", wrapper)
    return calls


def test_loaded_chain_map_pulls_back_without_exponents(tmp_path, monkeypatch):
    """Loading a ``.coe`` file and pulling a function back through it, on
    the two corpora, never searches the exponents."""
    calls = counted_shift_exponents(monkeypatch)
    for h in conjugacy_corpus() + twisted_corpus():
        loaded = load_coe(write_chain(tmp_path, h))
        assert loaded == h
        g = fn.indicator(h.target, (h.target.symbols()[-1],))
        assert pullback_map(g, loaded) == pullback(g, h.transducer)
    assert calls == []


def test_commutant_search_reads_no_exponents(monkeypatch):
    """The commutant search decides on the normal form alone."""
    calls = counted_shift_exponents(monkeypatch)
    found = 0
    for h0 in commutant_corpus():
        found += conjugacy.commutant_witness(h0) is not None
    assert found > 0
    assert calls == []


def test_psi_searches_no_exponents(monkeypatch):
    """``psi`` through a freshly built map, once or twice, searches no
    exponents and leaves the pair unread."""
    maps = conjugacy_corpus() + twisted_corpus()
    calls = counted_shift_exponents(monkeypatch)
    for h in maps:
        fresh = coe_from_chain(h.stages())
        g = fn.indicator(h.target, (h.target.symbols()[0],))
        first = psi(fresh, g)
        assert psi(fresh, g) == first
        assert "_exponents" not in vars(fresh)
    assert calls == []


def test_witness_search_finds_exponents_for_h_only(monkeypatch):
    """A twisted map's witness search, whose ``check_witness`` rebuilds
    the recoded map, searches the exponents of ``h`` once and never those
    of the recoded map."""
    maps = twisted_corpus()
    calls = counted_shift_exponents(monkeypatch)
    for h in maps:
        calls.clear()
        witness = witness_non_conjugacy(h)
        assert witness is not None
        assert calls == [h.transducer]
        assert conjugacy.check_witness(h, witness)
        assert calls == [h.transducer]


def test_exponents_on_read_match_shift_exponents():
    """On the exponent chains, which hold both corpora, and more seeded
    draws, the pair read off a chain map is ``shift_exponents`` of its
    transducer, with the reference relations: the same ``l1 - k1`` as the
    folded and minimized pair, and ``k1`` never larger."""
    rng = random.Random(37)
    maps = exponent_chains() + [random_chain(m, rng) for _, m in MATRICES for _ in range(10)]
    for h in maps:
        assert (h.k1, h.l1) == shift_exponents(h.transducer)
        k, l = reference_shift_exponents(h)
        assert h.l1 - h.k1 == l - k
        assert (k - h.k1).min_value() >= 0


def test_exponent_read_leaves_equality_hash_and_repr_alone():
    """A map whose exponents were read and a rebuilt one whose exponents
    were not compare equal, hash equal and print the same four fields,
    and none of the three reads the rebuilt map's exponents."""
    assert CoeMap._fields == ("pre", "core", "post", "transducer")
    for h in chain_maps():
        h.k1, h.l1
        fresh = coe_from_chain(h.stages())
        assert "_exponents" in vars(h)
        assert fresh == h
        assert hash(fresh) == hash(h)
        assert repr(fresh) == repr(h)
        assert "_exponents" not in vars(fresh)


def test_failed_exponent_check_surfaces_at_conjugacy_not_psi_or_pullback(tmp_path):
    """Under ``-O`` with every agreement check failing, ``conjugacy``, which
    reads the exponents, exits 2 with the check's message and no traceback;
    ``psi`` and ``pullback``, which read none, exit 0."""
    h = coe_from_chain([prefix_swap(GOLDEN_MEAN, 1, 2)])
    path = write_chain(tmp_path, h)
    g = fn.indicator(GOLDEN_MEAN, (2,))
    (tmp_path / "g.fn").write_text(format_function(g), encoding="utf-8")
    script = ("import sys\n"
              "from shiftgroups import cli, transducer\n"
              "transducer._entries_agree_on = lambda *args: False\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    result = run_python("-O", "-c", script, "conjugacy", path, cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: no shift-matching exponent pair checks on the part (1, 1, 1)\n")
    for command, expected in (("psi", psi(h, g)), ("pullback", pullback_map(g, h))):
        result = run_python("-O", "-c", script, command, path, "g.fn", cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == format_function(expected)

def reference_stream(matrix, core, part, upto):
    """The core's symbols at positions 1..upto over the cylinder of
    ``part``, each read off the reference window set there (None where
    the windows write different symbols)."""
    table = core.symbol_map()
    out = []
    for windows in reference_window_sets(matrix, core.window, part, upto):
        written = {table[w] for w in windows}
        out.append(written.pop() if len(written) == 1 else None)
    return out


def stream_ranges(inside, rng):
    """Read ranges ``(start, stop)`` relative to the last position
    ``inside`` whose window lies inside the part: some inside it (one of
    them the whole run), some straddling its end, some past it."""
    spans = []
    if inside:
        stop = rng.randint(max(inside - 2, 0), inside)
        spans += [("inside", (rng.randint(max(stop - 3, 0), stop), stop)),
                  ("inside", (0, inside)),
                  ("straddle", (rng.randint(max(inside - 3, 0), inside - 1),
                                rng.randint(inside + 1, inside + 3)))]
    start = rng.randint(inside, inside + 3)
    spans += [("past", (start, start + rng.randint(0, 4))), ("past", (inside, inside + 1))]
    return spans


def test_cylinder_stream_verdicts_match_window_set_reference():
    """Every candidate ``k`` of the bisection, up to 2 past its top, on
    every part of the refinement of ``t`` and ``t after shift``, on the
    exponent chains and the deep-swap pre-tables up to k = 30; on the
    k = 300 one, three candidates on every fifth part.  Each part's
    verdicts slice one stream, from the smaller shift of the least
    candidate to the larger of the greatest; ``_stream`` also reads ranges
    inside the part, straddling its end and past it (an empty range reads
    nothing), in one shuffled order with the candidates, against the
    symbols of the reference window sets."""
    rng = random.Random(89)
    chains = [(h, False) for h in exponent_chains()]
    chains += [(coe_from_chain([deep_exchange(k)]), k == 300) for k in (3, 10, 30, 300)]
    verdicts = {True: 0, False: 0}
    ranges = {"inside": 0, "straddle": 0, "past": 0}
    for h, sampled in chains:
        t = h.transducer
        for i, (part, (_, a, r), (_, b, q)) in enumerate(_aligned(t, precompose_shift(t))):
            if sampled and i % 5:
                continue
            d = (q - len(b)) - (r - len(a))
            low = max(0, -d)
            candidates = list(range(low, max(len(b), len(a) - d, low) + 3))
            if sampled:
                candidates = rng.sample(candidates, min(3, len(candidates)))
            spans = stream_ranges(max(len(part) - t.core.window + 1, 0), rng)
            reads = [("verdict", k) for k in candidates] + spans
            rng.shuffle(reads)
            sides = {k: (*_shift_entry(b, q, k), *_shift_entry(a, r, k + d)) for k in candidates}
            first, last = sides[min(candidates)], sides[max(candidates)]
            start, stop = min(first[1], first[3]), max(last[1], last[3])
            expected = reference_stream(t.source, t.core, part,
                                        max(stop, *(stop for _, (_, stop) in spans)))
            stream = _stream(t.source, t.core, part, start, stop)
            assert stream == tuple(expected[start:stop])
            for kind, arg in reads:
                if kind != "verdict":
                    assert _stream(t.source, t.core, part, *arg) == tuple(expected[arg[0]: arg[1]])
                    ranges[kind] += 1
                    continue
                verdict = _entries_agree_on(stream, start, *sides[arg])
                assert verdict == reference_entries_agree_on(t.source, t.core, t.core, part,
                                                             *sides[arg])
                verdicts[verdict] += 1
    assert min(verdicts.values()) > 500
    assert min(ranges.values()) > 500


def test_every_exponent_check_reads_inside_its_stream(monkeypatch):
    """Each agreement check of ``shift_exponents``, and of ``difference_parts``
    between ``shift^k1 . h . shift`` and ``shift^l1 . h``, slices its part's one
    stream between the two shifts it compares, so no slice comes back short:
    on the exponent chains and the deep swaps up to k = 300, with the
    exponents unchanged and the two maps equal."""
    chains = [*exponent_chains(), *(coe_from_chain([deep_exchange(k)]) for k in (3, 10, 30, 300))]
    expected = [(h.k1, h.l1) for h in chains]
    agree, reads = transducer._entries_agree_on, 0

    def checked(stream, start, a1, r1, a2, r2):
        nonlocal reads
        assert start <= min(r1, r2) <= max(r1, r2) <= start + len(stream)
        reads += 1
        return agree(stream, start, a1, r1, a2, r2)

    monkeypatch.setattr(transducer, "_entries_agree_on", checked)
    for h, exponents in zip(chains, expected):
        fresh = coe_from_chain(h.stages())
        assert (fresh.k1, fresh.l1) == exponents
        t = fresh.transducer
        assert transducer_equal(post_shift(precompose_shift(t), fresh.k1),
                                post_shift(t, fresh.l1))
    assert reads > 1000


def test_difference_parts_on_equal_cores_with_other_windows():
    """One side's core is composed with the 3-block round trip
    ``compose_codes(decode, encode)``, the identity map read off windows
    of 3, so the two cores are one map built by two routes and so ``==``;
    each side builds the streams in turn, and the pair's exponents are also
    moved off by one so that parts differ, on either side of the shift.  The
    sides are built without canonical forms, so that agreeing entries also
    carry different shifts."""
    cases = {"agree": 0, "differ": 0, "r1 > r2": 0}
    for h in chain_maps():
        t = reference_stage_transducer(h.source, h.stages())
        _, encode, decode = higher_block_codes(t.source, 3)
        widened = Transducer(compose_codes(t.core, compose_codes(decode, encode)), t.entries)
        assert widened.core == t.core
        one = fn.constant(t.source, 1)
        for k, l in ((h.k1, h.l1), (h.k1 + one, h.l1), (h.k1, h.l1 + one)):
            for inner in (t, widened):
                outer = widened if inner is t else t
                lhs = reference_post_shift(reference_precompose_shift(inner), k)
                rhs = reference_post_shift(outer, l)
                for t1, t2 in ((lhs, rhs), (rhs, lhs)):
                    expected = reference_difference_parts(t1, t2)
                    assert difference_parts(t1, t2) == expected
                    cases["differ" if expected else "agree"] += 1
                    cases["r1 > r2"] += sum(
                        r1 > r2 and len(a1) > len(a2)
                        for _, (_, a1, r1), (_, a2, r2) in _aligned(t1, t2))
    assert min(cases.values()) > 100


# -- commutation read off the exponents -------------------------------------------


def commutation_chains():
    """The three chain corpora and 60 seeded ``random_chain`` draws."""
    rng = random.Random(41)
    return (conjugacy_corpus() + twisted_corpus() + commutant_corpus()
            + [random_chain(matrix, rng) for _, matrix in MATRICES for _ in range(20)])


def test_commutation_matches_shift_pair_reference():
    """``is_conjugacy`` and ``difference_locus``, read off ``(k1, l1)``,
    against the equality walk of the two sides of the commutation.  The
    locus lists the parts of the exponents' refinement and the reference
    the parts of the two sides', so they are compared as the points they
    cover: the same parts of the common refinement of all four."""
    verdicts = {True: 0, False: 0}
    fewer = 0
    for h in commutation_chains():
        assert is_conjugacy(h) == reference_is_conjugacy(h)
        locus, expected = difference_locus(h), reference_difference_locus(h)
        sides = reference_shift_pair(h.transducer)
        common = refine_words(h.source, [h.k1.parts, h.l1.parts, *(t.parts for t in sides)])
        assert ([p for p in common if prefix_of(locus, p) is not None]
                == [p for p in common if prefix_of(expected, p) is not None])
        verdicts[is_conjugacy(h)] += 1
        fewer += len(locus) < len(expected)
    assert min(verdicts.values()) > 10
    assert fewer > 0


# -- canonical transducers ---------------------------------------------------------


def deep_swap(matrix):
    """The swap of the last pair of cylinders that ``block_swap_pairs`` lists at level 5."""
    *_, pair = block_swap_pairs(matrix, 5)
    return cylinder_swap(matrix, *pair)


def canonical_pairs():
    """Pairs of same-core transducers built without canonical forms: one map
    split into stages two ways (45 pairs for each seed 0 to 7), and for each
    commutation chain its stage walk against its library transducer, the two
    sides of the commutation at ``(k1, l1)`` and with ``k1`` one higher, and
    the map against itself followed by a swap of two deep cylinders."""
    for seed in range(8):
        for matrix, a, b in stage_split_pairs(seed):
            yield (reference_stage_transducer(matrix, (a, identity_code(matrix), b)),
                   reference_stage_transducer(matrix, (compose(b, a),)))
    for h in commutation_chains():
        raw = reference_stage_transducer(h.source, h.stages())
        shifted = reference_precompose_shift(raw)
        yield raw, h.transducer
        yield reference_post_shift(shifted, h.k1), reference_post_shift(raw, h.l1)
        yield (reference_post_shift(shifted, h.k1 + fn.constant(h.source, 1)),
               reference_post_shift(raw, h.l1))
        yield raw, reference_stage_transducer(h.source, h.stages() + (deep_swap(h.target),))


def test_canonical_transducers_are_equal_exactly_for_equal_maps():
    """``==`` on the canonical forms of each pair against the reference's
    verdict that no part of the pair's common refinement differs.  The
    golden-mean forms include entries whose word ends in ``2``, whose
    follower row holds one letter, and whose shift reaches or passes it."""
    verdicts = {True: 0, False: 0}
    reach = {"at": 0, "past": 0}
    for t1, t2 in canonical_pairs():
        c1, c2 = (canonical_transducer(t.core, t.entries) for t in (t1, t2))
        equal = not reference_difference_parts(t1, t2)
        assert (c1 == c2) == equal
        verdicts[equal] += 1
        if t1.source == GOLDEN_MEAN:
            for mu, _, r in c1.entries + c2.entries:
                if mu[-1:] == (2,) and r >= len(mu):
                    reach["at" if r == len(mu) else "past"] += 1
    assert min(verdicts.values()) > 200
    assert min(reach.values()) > 10


def test_library_transducers_are_canonical():
    """Each transducer the library builds, its entries given in any order,
    comes back unchanged from ``canonical_transducer``."""
    built = 0
    for h in commutation_chains():
        t = h.transducer
        shifted = precompose_shift(t)
        for u in (t, shifted, post_shift(t, h.l1), post_shift(shifted, h.k1),
                  post_shift(shifted, h.k1 + fn.constant(h.source, 1)),
                  apply_table_stage(t, deep_swap(h.target)), from_table(h.pre),
                  identity_transducer(h.source), stage_transducer(h.source, (h.pre, h.core))):
            assert canonical_transducer(u.core, u.entries) == u
            assert canonical_transducer(u.core, reversed(u.entries)) == u
            built += 1
    assert built > 900


def test_is_identity_transducer_matches_walk_reference():
    """Each chain's transducer, the same map with its core composed with
    the 2-block round trip (which gives the core back), and three identity
    maps: the bare one, a 2-block encode and decode, and the chain's
    pre-table followed by its inverse."""
    verdicts = {True: 0, False: 0}
    for h in commutation_chains():
        t = h.transducer
        _, encode, decode = higher_block_codes(t.source, 2)
        widened = Transducer(compose_codes(t.core, compose_codes(decode, encode)), t.entries)
        assert widened.core == t.core
        cases = [t, widened, identity_transducer(t.source),
                 stage_transducer(t.source, (encode, decode)),
                 stage_transducer(t.source, (h.pre, invert(h.pre)))]
        for case in cases:
            verdict = is_identity_transducer(case)
            assert verdict == reference_is_identity_transducer(case)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 10


def test_witness_level_matches_per_level_recoding_reference():
    """The level and the pair of blocks at ``z`` that the witness search
    reads off base words, on every chain that does not commute, against
    the loop that recoded and inverted the map at each level."""
    found = 0
    for h in commutation_chains():
        seeds = difference_locus(h)
        if not seeds:
            continue
        z = _find_difference_point(h, seeds, DEFAULT_MAX_DEPTH)
        expected = reference_witness_level(h, z)
        try:
            level = _isolating_level(h, z, shift_point(coe_apply(h, z)), DEFAULT_MAX_LEVEL)
        except SearchBudgetExceeded:
            assert expected is None
            continue
        _, encode, _ = higher_block_codes(h.source, level)
        assert (level, encode.encode(z).prefix(2)) == expected[:2]
        found += 1
    assert found > 20


def test_witness_pullback_through_decode_matches_recoded_chain():
    """At every depth the witness search tries, ``g . h`` pulled back
    through the level's decode code is ``g`` pulled back through the
    recoded chain map that :func:`check_witness` builds."""
    found = 0
    for h in commutation_chains():
        try:
            witness = witness_non_conjugacy(h)
        except SearchBudgetExceeded:
            continue
        if witness is None:
            continue
        block, _, decode_code = higher_block_codes(h.source, witness.level)
        h_level, _ = recode_source(h, witness.level)
        decode = stage_transducer(block, (decode_code,))
        w0 = shift_point(coe_apply(h, _find_difference_point(
            h, difference_locus(h), DEFAULT_MAX_DEPTH)))
        for depth in range(1, DEFAULT_MAX_DEPTH + 1):
            g = fn.indicator(h.target, w0.prefix(depth))
            assert pullback(pullback_map(g, h), decode) == pullback_map(g, h_level)
            if g == witness.g:
                break
        else:
            raise AssertionError("the witness cylinder is not around the image point")
        found += 1
    assert found > 20


def test_witness_search_builds_one_chain_map_per_witness(monkeypatch):
    """On the twisted corpus the search rebuilds no chain map: the one
    ``coe_from_chain`` call per witness is the re-check's recoding."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return coe_from_chain(*args, **kwargs)

    monkeypatch.setattr(orbit, "coe_from_chain", counted)
    monkeypatch.setattr(conjugacy, "coe_from_chain", counted)
    maps = twisted_corpus()
    for h in maps:
        assert witness_non_conjugacy(h) is not None
    assert len(calls) == len(maps)


def test_commutant_search_compares_each_candidate_once(monkeypatch):
    """Over the commutant corpus each candidate swap the search tries,
    one ``apply_table_stage`` call from the search, is compared by one
    ``difference_parts`` call, the separating one included."""
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(conjugacy, "apply_table_stage",
                        counted("apply_table_stage", transducer.apply_table_stage))
    wrapper = counted("difference_parts", transducer.difference_parts)
    monkeypatch.setattr(transducer, "difference_parts", wrapper)
    monkeypatch.setattr(conjugacy, "difference_parts", wrapper)
    candidates = 0
    for h0 in commutant_corpus():
        calls.clear()
        conjugacy.commutant_witness(h0)
        tried = calls[calls.index("apply_table_stage"):] if "apply_table_stage" in calls else []
        assert tried == ["apply_table_stage", "difference_parts"] * (len(tried) // 2)
        candidates += len(tried) // 2
    assert candidates > 0


def test_table_stage_on_the_normal_form_matches_stage_rebuild():
    """One table stage on ``h0``'s cached transducer is the transducer of
    ``h0``'s stages followed by the table, for every swap the commutant
    search tries at levels 1 and 2."""
    checked = 0
    for h0 in commutant_corpus():
        src = h0.source
        for level in (1, 2):
            block, encode, _ = higher_block_codes(src, level)
            for z1 in block.symbols():
                for z2 in block.successors(z1):
                    if z1 == z2:
                        continue
                    swap = prefix_swap(block, z1, z2)
                    t = (swap if level == 1 else
                         conjugate_by_stages((encode.inverse(),), swap))
                    assert (apply_table_stage(h0.transducer, t)
                            == stage_transducer(src, h0.stages() + (t,)))
                    checked += 1
    assert checked > 50


# -- trusted constructors ---------------------------------------------------------


def assert_canonical(table):
    """``table`` is what ``validate_table`` returns for its entries, and the
    fixpoint merge finds no sibling family left in it."""
    matrix = table.matrix
    assert validate_table(matrix, table.entries) == table
    merged = reference_merge_entries(matrix, dict(table.entries))
    assert sorted(merged.items()) == list(table.entries)


def padded(table, rng):
    """A valid, non-canonical presentation of ``table``."""
    entries = [e for entry in table.entries
               for e in pad_entry(table.matrix, entry, rng.randint(0, 2))]
    return TableElement(table.matrix, tuple(sorted(entries)))


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_group_operations_build_canonical_tables(matrix):
    """``compose`` and ``invert`` on plain and ``pad_entry``-padded tables."""
    rng = random.Random(61)
    identity = identity_table(matrix)
    for seed in range(40):
        tau = random_element(matrix, 3, seed)
        sigma = random_element(matrix, 3, seed + 1000)
        assert_canonical(tau)
        for a in (tau, padded(tau, rng)):
            for b in (sigma, padded(sigma, rng)):
                product = compose(a, b)
                assert_canonical(product)
                assert product == compose(tau, sigma)
            inverse = invert(a)
            assert_canonical(inverse)
            assert inverse == invert(tau)
            assert compose(inverse, a) == identity
            assert compose(a, inverse) == identity


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_swaps_and_exchanges_build_canonical_tables(matrix):
    """``prefix_swap`` and ``_pair_exchange`` on the matrix and its block
    presentations, and ``extract_table`` through ``conjugate_by_stages``
    in both directions."""
    rng = random.Random(67)
    for level in (1, 2, 3):
        block, encode, _ = higher_block_codes(matrix, level)
        for z1 in block.symbols():
            for z2 in block.successors(z1):
                if z1 == z2:
                    continue
                swap = prefix_swap(block, z1, z2)
                assert_canonical(swap)
                back = conjugate_by_stages((encode.inverse(),), swap)
                assert_canonical(back)
                assert conjugate_by_stages((encode,), back) == swap
    _, encode, _ = higher_block_codes(matrix, 2)
    for depth in (2, 3, 4):
        for _ in range(10):
            exchange = tables._pair_exchange(matrix, depth, rng)
            assert_canonical(exchange)
            assert_canonical(conjugate_by_stages((encode,), exchange))


def test_higher_block_codes_pass_make_code():
    """Every matrix on up to three symbols, levels 1 to 4: ``make_code``
    accepts the trusted code and rebuilds an equal one."""
    for matrix in small_matrices():
        for m in range(1, 5):
            block, encode, decode = higher_block_codes(matrix, m)
            assert decode == encode.inverse()
            checked = make_code(matrix, block, m, dict(encode.mapping),
                                1, dict(encode.inverse_mapping))
            assert checked == encode


def test_block_rows_match_overlap_scan():
    for matrix in small_matrices():
        for m in range(1, 5):
            block, _, _ = higher_block_codes(matrix, m)
            assert block.rows == reference_block_rows(matrix, m)
            assert higher_block(matrix, m)[0] == block
            for a in block.symbols():
                assert block.successors(a) == tuple(
                    b for b in block.symbols() if block.entry(a, b))
                assert block.predecessors(a) == tuple(
                    b for b in block.symbols() if block.entry(b, a))


@pytest.mark.parametrize("m", [0, -1])
def test_block_level_below_one_is_rejected(m):
    matrix = MATRICES[0][1]
    with pytest.raises(ValueError, match="block length must be >= 1"):
        higher_block_codes(matrix, m)
    with pytest.raises(ValueError, match="block length must be >= 1"):
        higher_block(matrix, m)


# -- table requests in C-level steps ------------------------------------------------


def reference_compose(outer, inner):
    """The settle walk ``compose`` ran before it read sorted runs: each inner
    entry refined until its image selects one outer entry, then spliced."""
    def splice(word, nu, mu):
        image = mu + word[len(nu):]
        entry = outer.entry_at(image)
        return None if entry is None else entry[1] + image[len(entry[0]):]

    roots = [(nu, (nu, mu)) for nu, mu in inner.entries]
    return tables.canonical_table(inner.matrix, refine_until(inner.matrix, roots, splice))


def cylinder_permutation(matrix, length, rng):
    """A seeded permutation of the length-``length`` cylinders within
    follower rows, left unmerged, as the benchmark builds it."""
    rows = {}
    for word in enumerate_words(matrix, length):
        rows.setdefault(matrix.successors(word[-1]), []).append(word)
    entries = []
    for words in rows.values():
        images = rng.sample(words, len(words))
        entries += zip(words, images)
    return TableElement(matrix, tuple(sorted(entries)))


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_compose_matches_settle_walk_reference(matrix):
    """``compose`` reads the outer entry above each inner target, or the
    sorted run below it; the walk it replaced gives the same table on
    random elements, padded presentations and cylinder permutations at
    lengths up to 6, in both orders."""
    rng = random.Random(71)
    for seed in range(30):
        tau = random_element(matrix, 3, seed)
        sigma = random_element(matrix, 4, seed + 500)
        for a, b in ((tau, sigma), (sigma, tau), (padded(tau, rng), sigma), (tau, tau)):
            assert compose(a, b) == reference_compose(a, b)
    for length in range(1, 7):
        for _ in range(3):
            perm = cylinder_permutation(matrix, length, rng)
            other = cylinder_permutation(matrix, rng.randint(1, length), rng)
            tau = random_element(matrix, 3, rng.randrange(1 << 30))
            for a, b in ((perm, tau), (tau, perm), (perm, other), (other, perm)):
                product = compose(a, b)
                assert product == reference_compose(a, b)
                assert_canonical(product)


def test_compose_matches_settle_walk_reference_on_deep_exchanges():
    """``deep_exchange(k)`` squared is the identity for k up to 50, and
    products of two different depths match the walk."""
    identity = identity_table(FULL_TWO)
    deep = {k: deep_exchange(k) for k in range(1, 51)}
    for k, tau in deep.items():
        assert compose(tau, tau) == reference_compose(tau, tau) == identity
    for k, j in ((1, 50), (50, 1), (7, 3), (3, 7), (20, 49), (49, 20)):
        assert compose(deep[k], deep[j]) == reference_compose(deep[k], deep[j])


def reference_parse_fields(text, matrix, header):
    """The table and function parsers before their inline name reads: each
    word field through ``parse_word``."""
    rows = []
    for number, line in formats._content_lines(text, header):
        fields = line.split()
        if header == "table":
            if len(fields) != 3 or fields[1] != "->":
                raise FormatError(f"expected 'nu -> mu', got {formats._literal_name(line)}",
                                  number)
            rows.append((parse_word(fields[0], number), parse_word(fields[2], number)))
            continue
        if len(fields) != 2:
            raise FormatError(f"expected 'word value', got {formats._literal_name(line)}",
                              number)
        word = parse_word(fields[0], number)
        if word in dict(rows):
            raise FormatError(f"word {formats._literal_name(fields[0], str)} repeats", number)
        try:
            rows.append((word, int(fields[1])))
        except ValueError:
            raise FormatError(f"bad integer {formats._literal_name(fields[1])}", number)
    if header == "table":
        return validate_table(matrix, rows)
    return fn.make(matrix, dict(rows))


def parse_outcome(parse, *args):
    """The parsed object, or the type, message and line of the error."""
    try:
        return parse(*args)
    except (ShiftError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_inline_word_reads_match_parse_word_reference(matrix):
    """Each odd field, put in place of one word of a table or function file
    on each of its lines, reads as ``parse_word`` reads it, or fails with
    the same type, message and line."""
    odd = ["-", "+1", "01", "0", str(matrix.n + 1), "1..2", ".1", "1.", "x", "1" * 20]
    tau = random_element(matrix, 3, 5)
    f = fn.indicator(matrix, matrix.extensions(matrix.extensions(EMPTY)[0])[-1])
    checked = 0
    for text, header, parse in ((format_table(tau), "table", formats.parse_table),
                                (format_function(f), "function", formats.parse_function)):
        lines = text.splitlines()
        for i in range(1, len(lines)):
            for field in odd:
                for side in ((0, 2) if header == "table" else (0,)):
                    fields = lines[i].split()
                    fields[side] = field
                    mangled = "\n".join(lines[:i] + [" ".join(fields)] + lines[i + 1:])
                    expected = parse_outcome(reference_parse_fields, mangled, matrix, header)
                    assert parse_outcome(parse, mangled, matrix) == expected
                    checked += 1
        assert parse(text, matrix) == reference_parse_fields(text, matrix, header)
    assert checked > 50


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_point_prefix_matches_symbol_loop(matrix):
    rng = random.Random(73)
    for _ in range(60):
        z = random_cycle_point(matrix, rng)
        for m in range(-1, 3 * (len(z.transient) + len(z.cycle)) + 1):
            assert z.prefix(m) == tuple(z.symbol(i) for i in range(1, m + 1))


def reference_is_admissible(matrix, word):
    """The row scan ``is_admissible`` ran before the letter table."""
    word = tuple(word)
    if any(a < 1 or a > matrix.n for a in word):
        return False
    return all(b in matrix.successors(a) for a, b in zip(word, word[1:]))


def test_is_admissible_matches_row_scan():
    """Every word up to length 4 over ``0..n+1`` on every small matrix, so
    with symbols out of range on either side."""
    for matrix in small_matrices():
        letters = range(matrix.n + 2)
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                assert matrix.is_admissible(word) == reference_is_admissible(matrix, word)
        assert matrix.is_admissible(iter((1,) * 3)) == reference_is_admissible(matrix, (1,) * 3)


def reference_validate_matrix(grid):
    """The per-symbol reachability search ``validate_matrix`` ran before its
    two passes from symbol 1."""
    rows = tuple(tuple(row) for row in grid)
    n = len(rows)
    for row in rows:
        for v in row:
            if v not in (0, 1):
                raise NotZeroOne(f"entry {v!r} is not 0 or 1")
    successors = [tuple(j for j, bit in enumerate(row, 1) if bit) for row in rows]
    for i in range(1, n + 1):
        seen = set(successors[i - 1])
        frontier = list(seen)
        while frontier:
            for b in successors[frontier.pop() - 1]:
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if len(seen) != n:
            raise Reducible(f"symbol {i} does not reach every symbol")
    if all(sum(row) == 1 for row in rows):
        raise Permutation("all row sums are 1")
    return rows


def matrix_verdict(check, grid):
    try:
        result = check(grid)
    except ShiftError as exc:
        return type(exc), str(exc)
    return getattr(result, "rows", result)


def test_validate_matrix_matches_per_symbol_search():
    """Every 0/1 grid up to 3 x 3, every grid with one entry 2, and seeded
    random grids from 4 x 4 to 8 x 8 of every density: the same verdict,
    naming the same least symbol."""
    grids = [[bits[i * n: (i + 1) * n] for i in range(n)]
             for n in (1, 2, 3) for bits in itertools.product((0, 1), repeat=n * n)]
    grids += [[[2 if (i, j) == (1, 0) else 1 for j in range(2)] for i in range(2)]]
    rng = random.Random(79)
    for _ in range(3000):
        n, density = rng.randint(4, 8), rng.random()
        grids.append([[int(rng.random() < density) for _ in range(n)] for _ in range(n)])
    verdicts = set()
    for grid in grids:
        verdict = matrix_verdict(validate_matrix, grid)
        assert verdict == matrix_verdict(reference_validate_matrix, grid)
        verdicts.add(verdict if isinstance(verdict[0], type) else "valid")
    assert {"valid", (NotZeroOne, "entry 2 is not 0 or 1"),
            (Permutation, "all row sums are 1"),
            (Reducible, "symbol 2 does not reach every symbol")} <= verdicts


def test_zero_one_check_matches_per_cell_loop():
    """Seeded 0/1 grids from 1 x 1 to 6 x 6 with one to three entries
    replaced at seeded cells by ``2``, ``-1``, ``True``, ``1.0``, ``nan``,
    ``None`` or a list: the row-at-a-time check gives the verdict of the
    per-cell loop, naming the same first bad entry in row-major order, and
    an unhashable entry goes to the loop."""
    rng = random.Random(97)
    odd = (2, -1, True, 1.0, math.nan, None, [1])
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 6)
        grid = [[int(rng.random() < 0.6) for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            grid[rng.randrange(n)][rng.randrange(n)] = rng.choice(odd)
        verdict = matrix_verdict(validate_matrix, grid)
        assert verdict == matrix_verdict(reference_validate_matrix, grid)
        seen.add(verdict[1] if verdict[0] is NotZeroOne else "no bad entry")
    assert seen == {"no bad entry", *(f"entry {v!r} is not 0 or 1"
                                      for v in (2, -1, math.nan, None, [1]))}


def test_validate_matrix_is_two_passes_at_n_400():
    """A half-dense n = 400 matrix validates in well under half a second,
    best of three; the per-symbol search, cubic in n, took about 1.4 s."""
    rng = random.Random(89)
    grid = [[int(rng.random() < 0.5) for _ in range(400)] for _ in range(400)]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert validate_matrix(grid).n == 400
        best = min(best, time.perf_counter() - start)
    assert best < 0.5


def reference_refine_until(matrix, roots, decide, step=None):
    """The settle walk before it pushed reversed letter rows directly,
    with each child's state stepped from its parent's."""
    stack = list(reversed(roots))
    while stack:
        word, state = stack.pop()
        answer = decide(word, *state)
        if answer is None:
            stack.extend((child, state if step is None else step(child, *state))
                         for child in reversed(matrix.extensions(word)))
        else:
            yield word, answer


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_refine_until_matches_extension_walk(matrix):
    """Indicator walks from the empty word and entry walks from table roots,
    with the same state for every child or an image word stepped one letter
    per child, yield the same cylinders in the same order."""
    rng = random.Random(83)
    for word in enumerate_words(matrix, 4):
        decide = lambda w, word=word: 1 if w == word else None if w == word[:len(w)] else 0
        roots = [(EMPTY, ())]
        assert (list(refine_until(matrix, roots, decide))
                == list(reference_refine_until(matrix, roots, decide)))
    for seed in range(10):
        tau = random_element(matrix, 4, seed)
        depth = rng.randint(1, 4)
        roots = [(nu, (mu,)) for nu, mu in tau.entries]
        decide = lambda w, mu: (mu, w) if len(w) >= depth else None
        assert (list(refine_until(matrix, roots, decide))
                == list(reference_refine_until(matrix, roots, decide)))

        def image_at(w, nu, mu, image):
            assert image == mu + w[len(nu):]
            return image if len(w) >= depth else None

        step = lambda child, nu, mu, image: (nu, mu, image + child[-1:])
        roots = [(nu, (nu, mu, mu)) for nu, mu in tau.entries]
        assert (list(refine_until(matrix, roots, image_at, step))
                == list(reference_refine_until(matrix, roots, image_at, step)))


# -- sorted-once families and looked-up rows ----------------------------------------


def sorting_merge_siblings(matrix, items, lift):
    """``merge_siblings`` before it took sorted items: its own sort, and each
    family's letters read off ``successors()``."""
    stack = []
    for item in sorted(items):
        stack.append(item)
        while True:
            word, value = stack[-1]
            if not word:
                break
            letters = matrix.successors(word[-2]) if len(word) > 1 else tuple(matrix.symbols())
            size = len(letters)
            if word[-1] != letters[-1] or len(stack) < size:
                break
            up = lift(word, value)
            if up is None:
                break
            parent = word[:-1]
            if not all(w[:-1] == parent and lift(w, v) == up for w, v in stack[-size:-1]):
                break
            del stack[-size:]
            stack.append((parent, up))
    return tuple(stack)


def successor_lift(matrix):
    """The entry rule before row ids: parents' follower rows compared."""
    def lift(nu, mu):
        if len(mu) < 2 or len(nu) < 2 or nu[-1] != mu[-1]:
            return None
        if matrix.successors(nu[-2]) != matrix.successors(mu[-2]):
            return None
        return mu[:-1]
    return lift


def partition_validate_table(matrix, entries):
    """``validate_table`` before its one sort per family: ``partition`` on
    both sides, followers compared through ``successors()``, then the
    sorting merge."""
    ordered = sorted(((tuple(nu), tuple(mu)) for nu, mu in entries), key=itemgetter(0))
    if not all(nu and mu for nu, mu in ordered):
        raise InadmissibleWord("table words must be nonempty")
    for side, error in ((0, DomainNotPartition), (1, ImageNotPartition)):
        try:
            partition(matrix, map(itemgetter(side), ordered))
        except Inadmissible as exc:
            raise InadmissibleWord(str(exc)) from exc
        except BadPartition as exc:
            raise error(str(exc)) from exc
    for nu, mu in ordered:
        if matrix.successors(nu[-1]) != matrix.successors(mu[-1]):
            raise FollowerMismatch(
                f"entry {word_name(nu)} -> {word_name(mu)} pairs different follower rows")
    return TableElement(matrix, sorting_merge_siblings(matrix, ordered, successor_lift(matrix)))


def partition_make(matrix, pieces):
    """``functions.make`` before it sorted its pairs once: ``partition`` on
    the words as given, then the sorting merge of a dict."""
    pairs = [(tuple(w), int(v)) for w, v in (
        pieces.items() if isinstance(pieces, dict) else pieces)]
    partition(matrix, [w for w, _ in pairs])
    return fn.LocFun(matrix, sorting_merge_siblings(matrix, dict(pairs).items(),
                                                    lambda word, value: value))


def defective_tables(matrix, entries, rng):
    """One break of each kind in valid entries: a repeated entry, a source
    that extends a member, a dropped entry, an inadmissible source and
    target, a repeated target, a target that extends a member, and two
    targets that end in letters with different rows exchanged."""
    i = rng.randrange(len(entries))
    nu, mu = entries[i]
    rest = entries[:i] + entries[i + 1:]
    longer = nu + (matrix.successors(nu[-1])[0],)
    yield entries + [(nu, mu)]
    yield entries + [(longer, longer)]
    yield rest
    if rest:
        yield rest + [(nu, rng.choice(rest)[1])]
    (first, _), *split = pad_entry(matrix, (nu, mu), 1)
    yield rest + [(first, mu)] + split
    yield rest + [(nu + (0,), mu)]
    yield rest + [(nu, mu + (matrix.n + 1,))]
    others = [j for j, (_, other) in enumerate(entries)
              if matrix.successors(other[-1]) != matrix.successors(mu[-1])]
    if others:
        j = rng.choice(others)
        crossed = list(entries)
        crossed[i], crossed[j] = (nu, entries[j][1]), (entries[j][0], mu)
        yield crossed


def defect_kind(result):
    """For an outcome that is an exception, its type and the partition
    defect its message names; for a value, "valid"."""
    if not isinstance(result, tuple):
        return {"valid"}
    kinds = {result[0]}
    kinds.update(k for k in ("repeats", "is a prefix of", "no part covers") if k in result[1])
    return kinds


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_validate_table_matches_partition_and_successor_reference(matrix):
    """Random elements, padded presentations, cylinder permutations at
    lengths 1 to 6 and, on the full 2-shift, deep exchanges up to k = 50,
    each as built and shuffled, and each broken once per defect kind: the
    same table, with its lookup order its own entries, or the same
    exception type and message."""
    rng = random.Random(89)
    cases = []
    for seed in range(40):
        tau = random_element(matrix, 3, seed)
        cases += [list(tau.entries), list(padded(tau, rng).entries)]
    for length in range(1, 7):
        cases += [list(cylinder_permutation(matrix, length, rng).entries) for _ in range(2)]
    if matrix == FULL_TWO:
        cases += [list(deep_exchange(k).entries) for k in range(1, 51)]
        cases += [[e for entry in deep_exchange(k).entries for e in pad_entry(matrix, entry, 1)]
                  for k in (2, 17, 50)]
    cases += [broken for entries in cases[:40] for broken in defective_tables(matrix, entries, rng)]
    seen = set()
    for entries in cases:
        expected = outcome(partition_validate_table, matrix, entries)
        mixed = list(entries)
        rng.shuffle(mixed)
        for copy in (entries, mixed):
            got = outcome(validate_table, matrix, copy)
            assert got == expected
            if isinstance(got, TableElement):
                assert got._by_source is got.entries == tuple(sorted(got.entries))
                assert tables.canonical_table(matrix, copy) == got
        seen |= defect_kind(expected)
    assert seen >= {"valid", "repeats", "is a prefix of", "no part covers", InadmissibleWord,
                    DomainNotPartition, ImageNotPartition}
    if len(set(map(matrix.successors, matrix.symbols()))) > 1:
        assert FollowerMismatch in seen


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=MATRIX_IDS)
def test_make_matches_partition_and_sorting_merge_reference(matrix):
    """Random piece tables as mappings and as shuffled pairs, perturbed
    families and pairs with a word repeated, with the same or another
    value: the same function, or the same exception type and message."""
    rng = random.Random(97)
    cases = []
    for _ in range(150):
        table = random_piece_table(matrix, rng)
        pairs = list(table.items())
        rng.shuffle(pairs)
        word, value = rng.choice(pairs)
        cases += [table, pairs, pairs + [(word, value)], pairs + [(word, value + 1)],
                  [(w, rng.randint(-1, 1)) for w in perturbed(matrix, table, rng)]]
    seen = set()
    for pieces in cases:
        expected = outcome(partition_make, matrix, pieces)
        assert outcome(fn.make, matrix, pieces) == expected
        seen |= defect_kind(expected)
    assert seen >= {"valid", "repeats", "is a prefix of", "no part covers", Inadmissible}


def test_rows_match_successors_on_every_small_matrix():
    """On every 0/1 matrix up to 3 x 3, unvalidated ones with an empty row
    included: ``followers[0]`` is every symbol (the start of a word) and
    ``followers[a]`` is the row of ``a`` read off the grid, as
    ``successors(a)`` gives it; two letters' rows are one object exactly when
    they are equal; and ``_after[b]`` steps through ``followers[b]`` from 0
    to 0.  A merge on a matrix with an empty row reads it without failing."""
    empty = 0
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            grid = tuple(bits[i * n: (i + 1) * n] for i in range(n))
            matrix = TransitionMatrix(n, grid)
            rows = [tuple(range(1, n + 1))] + [
                tuple(j for j in range(1, n + 1) if grid[a - 1][j - 1]) for a in range(1, n + 1)]
            assert matrix.followers == tuple(rows)
            assert matrix.followers[0] == tuple(matrix.symbols())
            for a, row in enumerate(rows):
                if a:
                    assert matrix.followers[a] == matrix.successors(a)
                for b, other in enumerate(rows):
                    assert (matrix.followers[a] is matrix.followers[b]) == (row == other)
                letter, stepped = 0, []
                for _ in range(len(row) + 1):
                    letter = matrix._after[a][letter]
                    stepped.append(letter)
                assert stepped == [*row, 0]
                assert len(matrix._after[a]) == len(row) + 1
            if not all(rows):
                empty += 1
                items = [((a,), 0) for a in matrix.symbols()]
                assert merge_siblings(matrix, items, lambda word, value: value) == ((EMPTY, 0),)
                assert merge_siblings(matrix, items[1:], lambda word, value: value) == tuple(
                    items[1:])
                below = [((a, 1), 0) for a in matrix.symbols() if not rows[a]]
                assert merge_siblings(matrix, below, lambda word, value: value) == tuple(below)
    assert empty > 100
