"""Seeded inputs, requests and oracles of the three benchmark workloads.

Every request index ``i`` of a workload has a fixed shape, given by the
``*_plan`` functions, and seeded contents, drawn from a ``random.Random``
stream keyed by workload, seed and index (the random chain maps by index
alone, see ``CORPUS_EVERY``).  Inputs are written as the repository's own
text files (``.mks``, ``.fn``, ``.tbl``, ``.coe``) plus one
``manifest.json`` naming each request's files.

A request is what one command-line call does: load its files through the
public ``formats`` functions, run the operation and format the result.
Library functions are looked up on their modules at call time, so that
the tracing wrappers of ``spans.py`` see every call.

Each answer is checked afterwards by a pointwise oracle outside the timed
region: literal orbit sums (``rho_at``, ``birkhoff_at``), point images
(``coe_apply``), ``check_witness``, and a table lookup on words that
shares no code with ``tables``.
"""

from __future__ import annotations

import functools
import json
import os
import random

from shiftgroups import (
    cocycles,
    conjugacy,
    formats,
    functions,
    orbit,
    selftest,
    sft,
    tables,
    transducer,
)

WORKLOADS = ("cocycle", "chain", "group")
MATRIX_FILES = tuple((name, f"{name}.mks", matrix) for name, matrix in selftest.MATRICES)
MATRIX_BY_NAME = {name: matrix for name, matrix in selftest.MATRICES}

COCYCLE_OPS = ("rho", "member", "weight")
CHAIN_OPS = ("psi", "pullback", "commutant")
GROUP_OPS = ("compose", "invert", "check", "apply")

# One request in five is a deep exchange.  k steps through 3..9: with seven
# evenly used levels the 90th percentile of all requests falls inside the
# k=6 level, not on the boundary between two levels, where it would jump
# from run to run.
DEEP_EVERY = 5
DEEP_KS = tuple(range(3, 10))
# One chain request in five decides a corpus chain, one in three of those a
# twisted one.  Twisted chains take a witness search, the slowest requests;
# with one in ten of them the 90th percentile would sit on the edge of that
# cluster and jump from run to run.  The random chains are drawn per request
# index, the same for every seed: building one costs from 1 ms to 2 s, and a
# witness search on one up to 6 s, so seeded chains would make a run's time
# depend on which rare chains the seed drew.  The seed varies the
# potentials, and witness searches run on the corpora only, where their cost
# is fixed.
CORPUS_EVERY = 5
GROUP_LENGTHS = tuple(range(4, 9))
APPLY_BATCH = 32
ORACLE_RANDOM_POINTS = 8


def _rng(*key) -> random.Random:
    # String seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the process.
    return random.Random(":".join(str(part) for part in key))


# -- request plans --------------------------------------------------------------


def cocycle_plan(i: int) -> dict:
    if i % DEEP_EVERY == DEEP_EVERY - 1:
        j = i // DEEP_EVERY
        return {"op": COCYCLE_OPS[(j // len(DEEP_KS)) % len(COCYCLE_OPS)],
                "matrix": "full-2", "deep_k": DEEP_KS[j % len(DEEP_KS)]}
    return {"op": COCYCLE_OPS[(i // 3) % len(COCYCLE_OPS)],
            "matrix": selftest.MATRICES[i % 3][0], "deep_k": None}


def chain_plan(i: int) -> dict:
    """Every fifth request decides a corpus chain; the others transfer
    potentials through, or search the commutant of, a random chain."""
    if i % CORPUS_EVERY == CORPUS_EVERY - 1:
        j = i // CORPUS_EVERY
        if j % 3 == 0:
            return {"op": "conjugacy", "matrix": None, "corpus": "twisted",
                    "corpus_index": (j // 3) % 20}
        return {"op": "conjugacy", "matrix": None, "corpus": "conjugacy",
                "corpus_index": (j - j // 3 - 1) % 20}
    return {"op": CHAIN_OPS[i % len(CHAIN_OPS)],
            "matrix": selftest.MATRICES[(i // 3) % 3][0], "corpus": None,
            "corpus_index": None}


def group_plan(i: int) -> dict:
    return {"op": GROUP_OPS[i % len(GROUP_OPS)],
            "matrix": selftest.MATRICES[(i // 4) % 3][0],
            "length": GROUP_LENGTHS[(i // 12) % len(GROUP_LENGTHS)]}


PLANS = {"cocycle": cocycle_plan, "chain": chain_plan, "group": group_plan}
# Request count after which each plan's mix of shapes repeats.  Runs cover
# whole cycles, so every run weighs the shapes alike.
CYCLES = {"cocycle": DEEP_EVERY * len(DEEP_KS), "chain": 9 * CORPUS_EVERY,
          "group": len(GROUP_OPS) * 3 * len(GROUP_LENGTHS)}
# Set-up time covers the inputs of this many requests: a second or more of
# generation, so that start-up effects of a fresh process do not dominate.
SETUP_REQUESTS = {"cocycle": 700, "chain": 100, "group": 120}


# -- writers --------------------------------------------------------------------


def _write(directory: str, name: str, text: str) -> str:
    with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return name


def _block_map(mapping) -> str:
    body = " ".join(f"{formats.format_word(word)} -> {symbol}" for word, symbol in mapping)
    return "{ " + body + " }"


def write_coe(directory: str, stem: str, h, matrix_names: dict) -> str:
    """Write a chain map as a ``.coe`` file plus its table files.

    ``formats`` has no chain writer, so this emits the header, the
    ``pre-table`` / ``code .. inverse ..`` / ``post-table`` stages of the
    normalized map, and a matrix file for any shift that is not one of
    the shared base matrices.
    """
    names = []
    for side, matrix in (("A", h.source), ("B", h.target)):
        name = matrix_names.get(matrix)
        if name is None:
            name = _write(directory, f"{stem}.{side}.mks", formats.format_matrix(matrix))
        names.append(name)
    pre = _write(directory, f"{stem}.pre.tbl", formats.format_table(h.pre))
    post = _write(directory, f"{stem}.post.tbl", formats.format_table(h.post))
    core = h.core
    lines = [
        f"coe {names[0]} {names[1]}",
        f"pre-table {pre}",
        f"code {core.window} {_block_map(core.mapping)} "
        f"inverse {core.inverse_window} {_block_map(core.inverse_mapping)}",
        f"post-table {post}",
    ]
    return _write(directory, f"{stem}.coe", "\n".join(lines) + "\n")


# -- generation -----------------------------------------------------------------


def deep_exchange(k: int):
    """The table on the full 2-shift swapping ``2`` with ``1^k 2`` (k+2 entries)."""
    ones = (1,) * k
    entries = [((2,), ones + (2,)), (ones + (2,), (2,)), (ones + (1,), ones + (1,))]
    entries += [((1,) * j + (2,), (1,) * j + (2,)) for j in range(1, k)]
    return tables.validate_table(selftest.FULL_TWO, entries)


def deep_weight(rng: random.Random):
    """Seeded weight on the two 1-cylinders of the full 2-shift.

    The two values differ, so the canonical form keeps depth one and the
    cost of a deep request depends on ``k`` only, not on the draw.
    """
    a, b = rng.sample(range(-3, 4), 2)
    return functions.make(selftest.FULL_TWO, {(1,): a, (2,): b})


def chain_potential(matrix, rng: random.Random):
    """Seeded potential taking distinct values on the 1-cylinders.

    The canonical form keeps depth one, so the cost of a ``psi`` or
    ``pullback`` request depends on the chain, not on the draw.
    """
    symbols = list(matrix.symbols())
    values = rng.sample(range(-3, 4), len(symbols))
    return functions.make(matrix, {(a,): v for a, v in zip(symbols, values)})


def cylinder_permutation(matrix, length: int, rng: random.Random):
    """Seeded permutation of all length-``length`` cylinders, within follower
    rows.  Left unvalidated: it is only ever composed, and ``compose``
    validates its result."""
    groups: dict = {}
    for word in sft.enumerate_words(matrix, length):
        groups.setdefault(matrix.successors(word[-1]), []).append(word)
    entries = []
    for key in sorted(groups):
        words = groups[key]
        images = list(words)
        rng.shuffle(images)
        entries.extend(zip(words, images))
    return tables.TableElement(matrix, tuple(sorted(entries)))


def group_table(matrix, length: int, rng: random.Random):
    return tables.compose(cylinder_permutation(matrix, length, rng),
                          tables.random_element(matrix, 3, rng.randrange(1 << 30)))


def random_walk_point(matrix, length: int, rng: random.Random):
    word = ()
    for _ in range(length):
        options = matrix.extensions(word)
        word = options[rng.randrange(len(options))]
    return sft.representative(matrix, word)


@functools.lru_cache(maxsize=1)
def corpora() -> dict:
    return {"twisted": selftest.twisted_corpus(), "conjugacy": selftest.conjugacy_corpus()}


def write_matrices(directory: str) -> dict:
    """Write the shared base matrices; returns matrix -> file name."""
    return {matrix: _write(directory, name, formats.format_matrix(matrix))
            for _, name, matrix in MATRIX_FILES}


def generate(workload: str, seed: int, index: int, directory: str, matrix_names: dict):
    """Write the inputs of one request; returns its manifest entry and the
    generated chain map (chain workload) or None."""
    plan = PLANS[workload](index)
    rng = _rng(workload, seed, index)
    stem = f"r{index:05d}"
    entry = {"index": index, "oracle_seed": f"oracle:{workload}:{seed}:{index}", **plan}
    generated = None
    if workload == "cocycle":
        if plan["deep_k"] is not None:
            matrix = selftest.FULL_TWO
            table = deep_exchange(plan["deep_k"])
            f = deep_weight(rng)
        else:
            matrix = MATRIX_BY_NAME[plan["matrix"]]
            table = tables.random_element(matrix, 3, rng.randrange(1 << 30))
            f = selftest.random_function(matrix, rng)
        entry["files"] = {
            "matrix": matrix_names[matrix],
            "function": _write(directory, f"{stem}.fn", formats.format_function(f)),
            "table": _write(directory, f"{stem}.tbl", formats.format_table(table)),
        }
    elif workload == "chain":
        if plan["corpus"] is not None:
            h = corpora()[plan["corpus"]][plan["corpus_index"]]
        else:
            h = selftest.random_chain(MATRIX_BY_NAME[plan["matrix"]], _rng("chain-map", index))
        if plan["op"] == "commutant" and h.source != h.target:
            entry["op"] = "pullback"  # commutant searches need a self map
        files = {"coe": write_coe(directory, stem, h, matrix_names)}
        if entry["op"] in ("psi", "pullback"):
            g = chain_potential(h.target, rng)
            files["function"] = _write(directory, f"{stem}.fn", formats.format_function(g))
        entry["files"] = files
        generated = h
    elif workload == "group":
        matrix = MATRIX_BY_NAME[plan["matrix"]]
        length = plan["length"]
        files = {"matrix": matrix_names[matrix]}
        table = group_table(matrix, length, rng)
        files["table"] = _write(directory, f"{stem}.tbl", formats.format_table(table))
        entry["entries"] = len(table.entries)
        if plan["op"] == "compose":
            inner = group_table(matrix, length, rng)
            files["inner"] = _write(directory, f"{stem}.inner.tbl", formats.format_table(inner))
        elif plan["op"] == "apply":
            points = [random_walk_point(matrix, length + 2, rng) for _ in range(APPLY_BATCH)]
            text = "".join(formats.format_point(z) + "\n" for z in points)
            files["points"] = _write(directory, f"{stem}.pts", text)
        entry["files"] = files
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return entry, generated


def verify_chain(directory: str, entry: dict, generated) -> None:
    """Parse a written chain back and compare transducers; raise on mismatch."""
    parsed = formats.load_coe(os.path.join(directory, entry["files"]["coe"]))
    same = (parsed.source == generated.source and parsed.target == generated.target
            and transducer.transducer_equal(parsed.transducer, generated.transducer))
    if not same:
        raise RuntimeError(f"chain file {entry['files']['coe']} does not parse back "
                           "to the generated map")


def write_manifest(directory: str, workload: str, seed: int, entries: list) -> None:
    _write(directory, "manifest.json",
           json.dumps({"workload": workload, "seed": seed, "requests": entries}, indent=0))


def read_manifest(directory: str) -> dict:
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- requests -------------------------------------------------------------------


def run_request(workload: str, entry: dict, directory: str):
    """Run one request; returns ``(text, state)`` where ``state`` holds the
    loaded inputs and the result for the oracle."""
    files = {role: os.path.join(directory, name) for role, name in entry["files"].items()}
    op = entry["op"]
    if workload == "cocycle":
        matrix = formats.load_matrix(files["matrix"])
        f = formats.load_function(files["function"], matrix)
        table = formats.load_table(files["table"], matrix)
        state = {"matrix": matrix, "f": f, "table": table}
        if op == "rho":
            result = cocycles.rho(f, table)
            text = formats.format_function(result)
        elif op == "weight":
            result = cocycles.gauge_weight(table, f)
            text = formats.format_function(result)
        else:
            result = cocycles.rho(f, table)
            if result.is_zero():
                text = "MEMBER Gamma_{A,f}\n"
            else:
                word = next(w for w, v in result.pieces if v != 0)
                kind = "d" if functions.equal(f, functions.constant(matrix, 1)) else "rho"
                text = (f"NOT-MEMBER Gamma_{{A,f}}; {kind} nonzero on "
                        f"{formats.format_word(word)}\n")
        state["result"] = result
        return text, state
    if workload == "chain":
        h = formats.load_coe(files["coe"])
        state = {"h": h}
        if op in ("psi", "pullback"):
            g = formats.load_function(files["function"], h.target)
            state["g"] = g
            result = orbit.psi(h, g) if op == "psi" else orbit.pullback_map(g, h)
            text = formats.format_function(result)
        elif op == "conjugacy":
            result = conjugacy.witness_non_conjugacy(h)
            if result is None:
                text = "CONJUGACY\n"
            else:
                text = ("WITNESS\n" + f"z {formats.format_point(result.z)}\n"
                        + formats.format_function(result.g)
                        + formats.format_table(result.tau0) + f"level {result.level}\n")
        else:
            result = conjugacy.commutant_witness(h)
            text = "IDENTITY\n" if result is None else "WITNESS\n" + formats.format_table(result)
        state["result"] = result
        return text, state
    matrix = formats.load_matrix(files["matrix"])
    table = formats.load_table(files["table"], matrix)
    state = {"matrix": matrix, "table": table}
    if op == "compose":
        inner = formats.load_table(files["inner"], matrix)
        result = tables.compose(table, inner)
        state["inner"] = inner
        text = formats.format_table(result)
    elif op == "invert":
        result = tables.invert(table)
        text = formats.format_table(result)
    elif op == "check":
        result = table
        text = f"OK table with {len(table.entries)} entries\n"
    else:
        with open(files["points"], encoding="utf-8") as handle:
            points = [formats.parse_point(line, matrix) for line in handle if line.strip()]
        result = [tables.apply(table, z) for z in points]
        state["points"] = points
        text = "".join(formats.format_point(p) + "\n" for p in result)
    state["result"] = result
    return text, state


# -- oracles --------------------------------------------------------------------


def _points(matrix, words, rng: random.Random) -> list:
    """The representative of every word, plus seeded random points."""
    points = [sft.representative(matrix, w) for w in words]
    points += [random_walk_point(matrix, rng.randint(0, 6), rng)
               for _ in range(ORACLE_RANDOM_POINTS)]
    return points


def _word_map(entries):
    """Independent prefix exchange on words, from raw ``(nu, mu)`` pairs,
    by prefix lookup in a dict; the oracle shares no code with ``tables``."""
    images = dict(entries)
    depth = max(len(nu) for nu in images)

    def image(word):
        for length in range(1, min(depth, len(word)) + 1):
            mu = images.get(word[:length])
            if mu is not None:
                return mu + word[length:]
        raise AssertionError("word too short to select a table entry")

    return image


def _agree(a, b) -> bool:
    """Whether two finite views of one sequence agree where both are known."""
    common = min(len(a), len(b))
    return common > 0 and a[:common] == b[:common]


def _swapped(table):
    """The inverse map, built from the entries without ``tables.invert``."""
    return tables.TableElement(table.matrix, tuple((mu, nu) for nu, mu in table.entries))


def _separates(h, table, rng: random.Random) -> bool:
    """Whether ``h . table`` and ``table . h`` differ at some probed point."""
    matrix = h.source
    words = set(table.domain_words) | set(h.transducer.parts)
    for extra in range(5):
        for base in sorted(words):
            for word in sft.expand_to_depth(matrix, base, len(base) + extra):
                z = sft.representative(matrix, word)
                if (orbit.coe_apply(h, tables.apply(table, z))
                        != tables.apply(table, orbit.coe_apply(h, z))):
                    return True
    return False


def check(workload: str, entry: dict, state: dict) -> bool:
    """Pointwise oracle for one answer."""
    rng = random.Random(entry["oracle_seed"])
    op = entry["op"]
    result = state["result"]
    if workload == "cocycle":
        f, table = state["f"], state["table"]
        if op == "weight":
            target = _swapped(table)
        else:
            target = table
        if op == "member":
            points = _points(state["matrix"], table.domain_words, rng)
        else:
            points = _points(state["matrix"], result.parts, rng)
        for z in points:
            want = cocycles.rho_at(f, target, z)
            got = functions.eval_at(result, z)
            if want != got:
                return False
        if op == "member" and not result.is_zero():
            word = next(w for w, v in result.pieces if v != 0)
            if cocycles.rho_at(f, table, sft.representative(state["matrix"], word)) == 0:
                return False
        return True
    if workload == "chain":
        h = state["h"]
        matrix = h.source
        if op in ("psi", "pullback"):
            g = state["g"]
            points = _points(matrix, result.parts, rng)
            for x in points:
                hx = orbit.coe_apply(h, x)
                if op == "pullback":
                    want = functions.eval_at(g, hx)
                else:
                    hsx = orbit.coe_apply(h, sft.shift_point(x))
                    want = (functions.birkhoff_at(g, functions.eval_at(h.l1, x), hx)
                            - functions.birkhoff_at(g, functions.eval_at(h.k1, x), hsx))
                if functions.eval_at(result, x) != want:
                    return False
            return True
        points = _points(matrix, h.transducer.parts, rng)
        if op == "conjugacy":
            if (result is None) != (entry["corpus"] == "conjugacy"):
                return False  # each corpus promises its answer
            if result is not None:
                return conjugacy.check_witness(h, result)
            return all(orbit.coe_apply(h, sft.shift_point(x))
                       == sft.shift_point(orbit.coe_apply(h, x)) for x in points)
        if result is None:
            return all(orbit.coe_apply(h, x) == x for x in points)
        return _separates(h, result, rng)
    table = state["table"]
    forward = _word_map(table.entries)
    backward = _word_map((mu, nu) for nu, mu in table.entries)
    involved = [table] + [t for t in (state.get("inner"), result)
                          if isinstance(t, tables.TableElement)]
    # Long enough for two lookups in a row through any of the tables.
    reach = 2 * sum(max(len(w) for e in t.entries for w in e) for t in involved) + 2
    if op == "apply":
        return all(_agree(forward(z.prefix(reach)), p.prefix(reach))
                   and _agree(backward(p.prefix(reach)), z.prefix(reach))
                   for z, p in zip(state["points"], result))
    words = [z.prefix(reach) for z in _points(state["matrix"], result.domain_words, rng)]
    if op == "compose":
        composite = _word_map(result.entries)
        inner = _word_map(state["inner"].entries)
        return all(_agree(composite(w), forward(inner(w))) for w in words)
    if op == "invert":
        inverse = _word_map(result.entries)
        return all(_agree(inverse(forward(w)), w) and _agree(forward(inverse(w)), w)
                   for w in words)
    if len(table.entries) != entry["entries"]:
        return False
    return all(_agree(backward(forward(w)), w) for w in words)
