"""Growth pinned by counts, not by timings.

Each test counts the work one kernel does on a doubling ladder of inputs
and bounds it by a formula in the input size.  Counts are deterministic,
so a bound on them is exact on any machine, where a wall-time bound on a
shared machine is flaky.
"""

import itertools
import random

import pytest
from conftest import deep_exchange

from shiftgroups import codes, formats, tables
from shiftgroups.orbit import coe_apply, coe_from_chain
from shiftgroups.selftest import (MATRICES, commutant_corpus, conjugacy_corpus, random_point,
                                  twisted_corpus)
from shiftgroups.sft import TransitionMatrix, validate_matrix
from shiftgroups.tables import random_element, validate_table


@pytest.mark.parametrize("k", [25, 50, 100, 200])
def test_deep_swap_streams_each_window_once(k, monkeypatch):
    """The windows that pass through ``BlockCode.apply_word`` while the chain
    map of ``deep_exchange(k)`` is built and its ``k1`` read.

    The code stage writes each entry's target word through the code, about
    k * k / 2 windows over the k + 2 entries; each entry of a walk streams
    its part once, and its nodes extend that word without re-reading it.
    Re-streaming each part from its root at every node costs about
    3 * k * k / 2 windows and fails the bound.
    """
    windows = 0
    apply_word = codes.BlockCode.apply_word

    def counted(code, word):
        nonlocal windows
        windows += max(len(word) - code.window + 1, 0)
        return apply_word(code, word)

    monkeypatch.setattr(codes.BlockCode, "apply_word", counted)
    coe_from_chain([deep_exchange(k)]).k1
    assert windows <= k * k // 2 + 4 * k


@pytest.mark.parametrize("k", [25, 50, 100, 200])
def test_deep_swap_reads_each_part_stream_once(k, monkeypatch):
    """The lookups through ``BlockCode.symbol_map()`` while the ``k1`` of the
    chain map of ``deep_exchange(k)`` is read.

    Each part's core stream is read once, between the least and the
    greatest shift its bisection compares, so what is left, about k * k / 2
    lookups, is the width of the output words the parts compare.  Reading
    every part from position 1 (458 lookups at k = 25, 21108 at k = 200)
    fails the bound.
    """
    h = coe_from_chain([deep_exchange(k)])
    lookups = 0
    symbol_map = codes.BlockCode.symbol_map

    class Counted(dict):
        def __getitem__(self, window):
            nonlocal lookups
            lookups += 1
            return dict.__getitem__(self, window)

    monkeypatch.setattr(codes.BlockCode, "symbol_map", lambda code: Counted(symbol_map(code)))
    h.k1
    assert lookups <= k * k // 2 + 4 * k


@pytest.mark.parametrize("window", [4, 5, 6, 7, 8, 9])
def test_round_trips_walk_the_least_windows(window, monkeypatch):
    """The composite windows ``make_code``'s round trips walk for the
    identity on the full 2-shift declared at ``window`` in both maps.

    Both maps read only their first symbol, so the code is kept at
    windows 1 and 1, and each round trip walks the 2 windows of 1 symbol
    whatever the declared window.  Walking the declared composite length
    ``2 * window - 1`` covers 2 ** (2 * window) windows, 4x per step.
    """
    matrix = validate_matrix([[1, 1], [1, 1]])
    table = {w: w[0] for w in itertools.product((1, 2), repeat=window)}
    composite_windows = codes._composite_windows
    walked = 0

    def counted(outer, inner):
        nonlocal walked
        for item in composite_windows(outer, inner):
            walked += 1
            yield item

    monkeypatch.setattr(codes, "_composite_windows", counted)
    codes.make_code(matrix, matrix, window, table, window, table)
    assert walked <= 2 * matrix.n


def stored_entries(value):
    """The entries a row table holds: a tuple's items (a row's items, for a
    table of rows) and a dict's keys."""
    if isinstance(value, dict):
        return len(value)
    if isinstance(value, tuple):
        return sum(stored_entries(item) if isinstance(item, (tuple, dict)) else 1
                   for item in value)
    return 1


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_matrix_rows_are_linear_in_its_edges(n):
    """The row tables a seeded half-dense n x n matrix with E edges keeps
    beside its fields, counted with a shared row once per letter.

    The follower rows (every symbol at the start of a word) hold n + E
    letters, the letter table n + 1 + n + E keys and the predecessor rows E
    letters: 3 * E + 3 * n + 1.  A second copy of the rows, reversed or
    indexed another way, adds about E more and fails the bound.
    """
    rng = random.Random(n)
    matrix = validate_matrix([[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)])
    edges = sum(map(sum, matrix.rows))
    fields = set(matrix._fields)
    assert fields == {"n", "rows"}
    stored = sum(stored_entries(value) for name, value in vars(matrix).items()
                 if name not in fields)
    assert stored <= 3 * edges + 3 * (n + 1)


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_table_text_is_read_into_words_once(length, monkeypatch):
    """The name lookups (``_names`` conversions) while the text of a seeded
    table on the full 2-shift, every word of ``length`` symbols sent to
    another, is read twice with the parse memos emptied before the first.

    The first read converts each distinct field once, at most
    ``length * 2 ** length`` names; the second finds every field in the
    word memo and converts none.  Without the memo the first read converts
    both fields of every entry, twice the bound, and the second as many.
    """
    matrix = validate_matrix([[1, 1], [1, 1]])
    words = list(itertools.product((1, 2), repeat=length))
    images = random.Random(length).sample(words, len(words))
    text = formats.format_table(validate_table(matrix, list(zip(words, images))))
    names = formats._names
    conversions = 0

    class Counted(dict):
        def __getitem__(self, name):
            nonlocal conversions
            conversions += 1
            return dict.__getitem__(self, name)

    monkeypatch.setattr(formats, "_names", lambda n: Counted(names(n)))
    formats._WORDS.clear()
    first = formats.parse_table(text, matrix)
    assert 0 < conversions <= length * 2 ** length
    conversions = 0
    assert formats.parse_table(text, matrix) == first
    assert conversions == 0


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_read_table_is_written_with_no_name_joined(length, monkeypatch):
    """The writer memo's lookups while a table read from its printed text is
    printed again: every word's text comes from the memo the read filled,
    one hit per word and no miss, so none is joined from names, and the
    text is the one read."""
    matrix = validate_matrix([[1, 1], [1, 1]])
    words = list(itertools.product((1, 2), repeat=length))
    images = random.Random(length).sample(words, len(words))
    text = formats.format_table(validate_table(matrix, list(zip(words, images))))
    lookups = {True: 0, False: 0}

    class Counted(dict):
        def get(self, word, default=None):
            text = dict.get(self, word, default)
            lookups[text is not None] += 1
            return text

    formats._WORDS.clear()
    monkeypatch.setattr(formats, "_TEXTS", Counted())
    table = formats.parse_table(text, matrix)
    assert formats.format_table(table) == text
    assert lookups == {True: 2 * len(words), False: 0}


def counted_walks(monkeypatch) -> list:
    """A list that gets one item per ``TransitionMatrix.is_admissible`` call,
    the walk every admissibility check makes."""
    walks = []
    is_admissible = TransitionMatrix.is_admissible

    def counted(matrix, word):
        walks.append(word)
        return is_admissible(matrix, word)

    monkeypatch.setattr(TransitionMatrix, "is_admissible", counted)
    return walks


@pytest.mark.parametrize("name, matrix", MATRICES, ids=[name for name, _ in MATRICES])
def test_batch_points_are_checked_once_where_read(name, matrix, monkeypatch):
    """The admissibility walks of one 32-point ``table apply`` batch on a
    seeded depth-4 table: reading the points walks each once, and the table
    action walks none, as its image of an admissible point is admissible.
    Re-checking every image walks 32 more."""
    rng = random.Random(len(name))
    table = random_element(matrix, 4, len(name))
    lines = [formats.format_point(random_point(matrix, rng, depth=6)) for _ in range(32)]
    walks = counted_walks(monkeypatch)
    points = [formats.parse_point(line, matrix) for line in lines]
    assert len(walks) == 32
    walks.clear()
    images = [tables.apply(table, z) for z in points]
    assert len(images) == 32 and walks == []


def test_chain_maps_apply_with_no_walk(monkeypatch):
    """The admissibility walks of ``coe_apply`` on the chain corpora, five
    seeded points each: none.  Re-checking the image of every stage, two
    table stages and the code, walks 3 per call."""
    rng = random.Random(5)
    maps = conjugacy_corpus() + twisted_corpus() + commutant_corpus()
    cases = [(h, random_point(h.source, rng, depth=6)) for h in maps for _ in range(5)]
    walks = counted_walks(monkeypatch)
    for h, z in cases:
        coe_apply(h, z)
    assert walks == []
