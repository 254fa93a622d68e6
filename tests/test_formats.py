"""Text format round trips and parse failure reporting.

The parsers read each word through a per-matrix name lookup and two
process-wide memos; a copy of the per-field loop they replaced, which
reads every symbol with ``int``, is kept below as the reference they must
match on seeded and mangled texts, read once with the memos emptied and
once through them.  The writers look each word's text up in a third memo,
which the word reads fill with canonical spellings only.  The examples in
README's "File formats" section must parse.
"""

import pathlib
import random
import re
import sys
import threading
import time
from functools import partial

import pytest

from shiftgroups import formats
from shiftgroups.codes import make_code
from shiftgroups.errors import FormatError, NotZeroOne, Reducible, ShiftError
from shiftgroups.formats import (
    _literal_name,
    format_function,
    format_matrix,
    format_point,
    format_table,
    format_word,
    load_coe,
    load_function,
    load_matrix,
    load_table,
    parse_coe,
    parse_function,
    parse_matrix,
    parse_matrix_grid,
    parse_point,
    parse_table,
    parse_word,
    read_text,
)
from shiftgroups.functions import indicator, make
from shiftgroups.orbit import coe_apply, coe_from_chain
from shiftgroups.sft import canonicalize_point, representative, validate_matrix
from shiftgroups.tables import prefix_swap, validate_table

G = validate_matrix([[1, 1], [1, 0]])
FULL2 = validate_matrix([[1, 1], [1, 1]])


def test_word_literals():
    assert format_word(()) == "-"
    assert format_word((1, 2, 1)) == "1.2.1"
    assert parse_word("-") == ()
    assert parse_word("1.2.1") == (1, 2, 1)
    with pytest.raises(FormatError):
        parse_word("1.x")


def test_point_literals():
    p = canonicalize_point(G, (1, 2), (1,))
    assert format_point(p) == "1.2|1"
    assert parse_point("1.2|1", G) == p
    q = canonicalize_point(G, (), (1, 2))
    assert format_point(q) == "|1.2"
    assert parse_point("|1.2", G) == q
    # non-canonical literals parse to the canonical point
    assert parse_point("1|2.1", FULL2) == canonicalize_point(FULL2, (), (1, 2))
    with pytest.raises(FormatError):
        parse_point("1.2", G)


def test_long_literals_are_named_by_their_ends():
    """A bad word literal or a point literal without ``|``, and a malformed
    line, a bad field or a repeated word of a table, function or matrix
    file, is quoted in full up to 64 characters, past that by its first and
    last eight and its length; an inadmissible point names each of its
    words past 64 symbols by its first and last four and its length.  Read
    in-process, as the literals are longer than one command-line argument
    may be."""
    word = ".".join(["1"] * 300000 + ["x"])
    short = ".".join(["1"] * 31 + ["x"])
    for text, message in (
            (short, f"bad word literal {short!r}"),
            (word, f"bad word literal '1.1.1.1.'...'.1.1.1.x' of {len(word)} characters")):
        with pytest.raises(FormatError) as info:
            parse_word(text, 4)
        assert str(info.value) == f"line 4: {message}"
    word = word[:-2]
    for text, message in (
            ("1.2", "point literal '1.2' needs a '|'"),
            (word, f"point literal '1.1.1.1.'...'.1.1.1.1' of {len(word)} characters "
                   "needs a '|'")):
        with pytest.raises(FormatError) as info:
            parse_point(text, G)
        assert str(info.value) == message
    ones = "1, 1, 1, 1"
    for text, message in (
            ("2|2", "point (2,)|(2,) is not admissible"),
            (f"{word}|2.2", f"point ({ones}, ..., {ones}) of 300000 symbols|(2, 2) "
                            "is not admissible"),
            (f"2.2|{word}", f"point (2, 2)|({ones}, ..., {ones}) of 300000 symbols "
                            "is not admissible")):
        with pytest.raises(ShiftError) as info:
            parse_point(text, G)
        assert str(info.value) == message
        assert len(message) < 1024
    ones = ".".join(["1"] * 100000)
    named = f"'1.1.1.1.'...'.1.1.1.1' of {len(ones)} characters"
    table, function = (partial(parse, matrix=FULL2) for parse in (parse_table, parse_function))
    for parse, text, message in (
            (table, "table\n1 -> 1 2\n", "line 2: expected 'nu -> mu', got '1 -> 1 2'"),
            (table, f"table\n{ones} -> 1 2\n",
             "line 2: expected 'nu -> mu', got '1.1.1.1.'...'1 -> 1 2' of 200006 characters"),
            (function, f"function\n{ones} 1 2\n",
             "line 2: expected 'word value', got '1.1.1.1.'...'.1.1 1 2' of 200003 characters"),
            (function, "function\n1 x\n", "line 2: bad integer 'x'"),
            (function, f"function\n1 {ones}\n", f"line 2: bad integer {named}"),
            (function, "function\n1 1\n1 2\n", "line 3: word 1 repeats"),
            (function, f"function\n{ones} 1\n{ones} 2\n", f"line 3: word {named} repeats"),
            (parse_matrix, "matrix 2\n1 1\n1 oops\n", "line 3: bad matrix row '1 oops'"),
            (parse_matrix, f"matrix 2\n1 1\n{ones}\n", f"line 3: bad matrix row {named}"),
            (parse_matrix, f"matrix {ones}\n", f"line 1: bad symbol count {named}")):
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == message
        assert len(message) < 1024


def test_matrix_roundtrip():
    text = format_matrix(G)
    assert text == "matrix 2\n1 1\n1 0\n"
    assert parse_matrix(text) == G


def test_matrix_parse_errors_carry_lines():
    with pytest.raises(FormatError) as info:
        parse_matrix("matrix 2\n1 1\n1 oops\n")
    assert "line 3" in str(info.value)
    with pytest.raises(FormatError) as info:
        parse_matrix("matrix 2\n1 1 1\n1 0\n")
    assert "line 2" in str(info.value)


def test_function_roundtrip():
    f = make(G, {(1, 1): 0, (1, 2): 2, (2,): 3})
    text = format_function(f)
    assert parse_function(text, G) == f
    constant = parse_function("function\n- 7\n", G)
    assert constant.pieces == (((), 7),)
    assert format_function(constant) == "function\n- 7\n"


def test_function_rejects_non_partition():
    with pytest.raises(Exception):
        parse_function("function\n1 1\n", G)  # incomplete
    with pytest.raises(FormatError):
        parse_function("function\n1 1\n1 2\n2 0\n", G)  # repeated word


def test_table_roundtrip():
    tau0 = prefix_swap(G, 1, 2)
    text = format_table(tau0)
    assert text == "table\n1.1 -> 1.1\n1.2 -> 2\n2 -> 1.2\n"
    assert parse_table(text, G) == tau0


def test_empty_file_reads_as_empty_text(tmp_path):
    path = tmp_path / "empty.tbl"
    path.write_bytes(b"")
    assert read_text(str(path)) == ""
    with pytest.raises(FormatError, match="expected a 'table' header"):
        load_table(str(path), G)


def test_file_of_many_reads_loads_as_its_text_parses(tmp_path):
    """A table file of over 300 KB, with a two-byte character at every
    offset of a long comment, so reads end inside characters, reads whole
    and loads as its text parses."""
    tau = validate_table(FULL2, [((2,), (1,) * 400 + (2,)), ((1,) * 400 + (2,), (2,)),
                                 ((1,) * 401, (1,) * 401)]
                         + [((1,) * j + (2,), (1,) * j + (2,)) for j in range(1, 400)])
    text = "# " + "\u00e9" * 30001 + "\n" + format_table(tau)
    path = tmp_path / "deep.tbl"
    path.write_bytes(text.encode("utf-8"))
    assert path.stat().st_size > 300_000
    assert read_text(str(path)) == text
    assert load_table(str(path), FULL2) == parse_table(text, FULL2) == tau


def test_byte_order_mark_is_skipped(tmp_path):
    """A matrix, function, table or chain file that starts with a UTF-8 byte
    order mark loads as the same file without it; a chain file's matrix and
    table files may carry one too."""
    files = {"G.mks": format_matrix(G), "one.fn": format_function(indicator(G, (1,))),
             "tau0.tbl": format_table(prefix_swap(G, 1, 2)),
             "tau0.coe": "coe G.mks G.mks\ncode 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n"
                         "post-table tau0.tbl\n"}
    loaded = {}
    for bom in (b"", b"\xef\xbb\xbf"):
        directory = tmp_path / f"bom{len(bom)}"
        directory.mkdir()
        for name, text in files.items():
            (directory / name).write_bytes(bom + text.encode("utf-8"))
        assert read_text(str(directory / "G.mks")) == files["G.mks"]
        matrix = load_matrix(str(directory / "G.mks"))
        loaded[bom] = (matrix, load_function(str(directory / "one.fn"), matrix),
                       load_table(str(directory / "tau0.tbl"), matrix),
                       load_coe(str(directory / "tau0.coe")))
    assert loaded[b""] == loaded[b"\xef\xbb\xbf"]
    assert loaded[b""][:3] == (G, indicator(G, (1,)), prefix_swap(G, 1, 2))


def test_writers_print_canonical_names_after_odd_spellings():
    """Words read from odd spellings (``+1``, ``01``) are printed by their
    canonical names by every writer, never as they were read."""
    formats._WORDS.clear()
    formats._TEXTS.clear()
    table = parse_table("table\n+1 -> 2\n2 -> 01\n", FULL2)
    points = [parse_point(text, FULL2) for text in ("01|+1", "01|+2", "+2.01|01.+2")]
    f = parse_function("function\n01 0\n+2 1\n", FULL2)
    assert format_table(table) == "table\n1 -> 2\n2 -> 1\n"
    assert [format_point(p) for p in points] == ["|1", "1|2", "2.1|1.2"]
    assert format_function(f) == "function\n1 0\n2 1\n"
    assert [format_word(w) for w in ((1,), (2, 1), ())] == ["1", "2.1", "-"]
    assert all(text == ".".join(map(str, word)) for word, text in formats._TEXTS.items())


def test_comments_and_blank_lines_ignored():
    text = "# swap\ntable\n\n1.1 -> 1.1  # fixed\n1.2 -> 2\n2 -> 1.2\n"
    assert parse_table(text, G) == prefix_swap(G, 1, 2)


def test_coe_file_roundtrip(tmp_path):
    (tmp_path / "G.mks").write_text(format_matrix(G), encoding="utf-8")
    (tmp_path / "tau0.tbl").write_text(format_table(prefix_swap(G, 1, 2)),
                                       encoding="utf-8")
    text = (
        "coe G.mks G.mks\n"
        "pre-table tau0.tbl\n"
        "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n"
    )
    chain = parse_coe(text, str(tmp_path))
    z = representative(G, (1, 2))
    from shiftgroups.tables import apply

    assert coe_apply(chain, z) == apply(prefix_swap(G, 1, 2), z)


def test_coe_block_code_stage(tmp_path):
    from shiftgroups.codes import higher_block_codes
    from shiftgroups.formats import format_matrix

    block, encode, _ = higher_block_codes(G, 2)
    (tmp_path / "A.mks").write_text(format_matrix(G), encoding="utf-8")
    (tmp_path / "B.mks").write_text(format_matrix(block), encoding="utf-8")
    code_body = " ".join(f"{format_word(w)} -> {s}" for w, s in encode.mapping)
    inverse_body = " ".join(f"{format_word(w)} -> {s}" for w, s in encode.inverse_mapping)
    text = (
        "coe A.mks B.mks\n"
        f"code 2 {{ {code_body} }} inverse 1 {{ {inverse_body} }}\n"
    )
    chain = parse_coe(text, str(tmp_path))
    z = representative(G, (2, 1))
    assert coe_apply(chain, z) == encode.encode(z)


def test_coe_reads_a_matrix_named_twice_once(tmp_path, monkeypatch):
    """The header's two names are one file: one parse, and the errors of a
    missing or malformed file carry the same message and line as the
    first read of it did."""
    from shiftgroups import formats

    (tmp_path / "G.mks").write_text(format_matrix(G), encoding="utf-8")
    (tmp_path / "F.mks").write_text(format_matrix(FULL2), encoding="utf-8")
    (tmp_path / "bad.mks").write_text("matrix 2\n1 1\n1 oops\n", encoding="utf-8")
    parsed = []
    monkeypatch.setattr(formats, "parse_matrix",
                        lambda text: parsed.append(text) or parse_matrix(text))
    code = "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n"
    chain = parse_coe("coe G.mks G.mks\n" + code, str(tmp_path))
    assert chain.source == chain.target == G and len(parsed) == 1
    with pytest.raises(FormatError, match="needs exactly one code stage"):
        parse_coe("coe G.mks F.mks\n", str(tmp_path))
    assert len(parsed) == 3
    for name, message in (("gone.mks", "line 3: cannot read 'gone.mks'"),
                          ("bad.mks", "line 3: bad matrix row '1 oops'")):
        with pytest.raises(FormatError) as info:
            parse_coe(f"coe\n{name}\n{name}\n" + code, str(tmp_path))
        assert str(info.value).startswith(message)


def test_coe_stage_order_enforced(tmp_path):
    (tmp_path / "G.mks").write_text(format_matrix(G), encoding="utf-8")
    (tmp_path / "t.tbl").write_text(format_table(prefix_swap(G, 1, 2)),
                                    encoding="utf-8")
    with pytest.raises(FormatError):
        parse_coe("coe G.mks G.mks\npost-table t.tbl\n", str(tmp_path))
    with pytest.raises(FormatError):
        parse_coe("coe G.mks G.mks\n", str(tmp_path))
    with pytest.raises(FormatError):
        parse_coe(
            "coe G.mks G.mks\n"
            "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n"
            "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n",
            str(tmp_path))


def test_printed_forms_reparse_to_equal_objects():
    import random

    rng = random.Random(5)
    from shiftgroups.tables import random_element

    for matrix in (G, FULL2):
        for seed in range(5):
            table = random_element(matrix, 3, seed)
            assert parse_table(format_table(table), matrix) == table
        f = indicator(matrix, (1,))
        assert parse_function(format_function(f), matrix) == f
        for _ in range(5):
            word = ()
            for _ in range(rng.randint(0, 4)):
                exts = matrix.extensions(word)
                word = exts[rng.randrange(len(exts))]
            point = representative(matrix, word)
            assert parse_point(format_point(point), matrix) == point


# -- the per-field reference parser and the README examples ---------------------


def reference_content_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def reference_parse_word(text, line=None):
    """Symbol by symbol, through ``int``: the word parser before the
    per-matrix name lookup.  A bad literal is quoted as the parser quotes
    it, by its ends past 64 characters."""
    text = text.strip()
    if text == "-":
        return ()
    try:
        return tuple(map(int, text.split(".")))
    except ValueError:
        raise FormatError(f"bad word literal {_literal_name(text)}", line)


def reference_body(text, header):
    lines = list(reference_content_lines(text))
    if not lines or lines[0][1] != header:
        raise FormatError(f"expected a {header!r} header", lines[0][0] if lines else None)
    return lines[1:]


def reference_parse_table(text, matrix):
    entries = []
    for number, line in reference_body(text, "table"):
        fields = line.split()
        if len(fields) != 3 or fields[1] != "->":
            raise FormatError(f"expected 'nu -> mu', got {_literal_name(line)}", number)
        entries.append((reference_parse_word(fields[0], number),
                        reference_parse_word(fields[2], number)))
    return validate_table(matrix, entries)


def reference_parse_function(text, matrix):
    pieces = {}
    for number, line in reference_body(text, "function"):
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"expected 'word value', got {_literal_name(line)}", number)
        word = reference_parse_word(fields[0], number)
        if word in pieces:
            raise FormatError(f"word {_literal_name(fields[0], str)} repeats", number)
        try:
            pieces[word] = int(fields[1])
        except ValueError:
            raise FormatError(f"bad integer {_literal_name(fields[1])}", number)
    return make(matrix, pieces)


def reference_parse_point(text, matrix):
    """A point literal, each word through :func:`reference_parse_word`."""
    text = text.strip()
    if "|" not in text:
        raise FormatError(f"point literal {_literal_name(text)} needs a '|'")
    u_text, w_text = text.split("|", 1)
    u = reference_parse_word(u_text) if u_text else ()
    return canonicalize_point(matrix, u, reference_parse_word(w_text))


def reference_parse_matrix(text):
    """A matrix file read past the memo: its grid, then validation."""
    return validate_matrix(parse_matrix_grid(text))


def reference_parse_code(text, source, target):
    """The one code stage of a chain file, token by token, each window
    through :func:`reference_parse_word`; the matrix files are given."""
    tokens = [(number, token) for number, line in reference_content_lines(text)
              for token in line.replace("{", " { ").replace("}", " } ").split()]
    at = 0

    def take(expect=None):
        nonlocal at
        if at == len(tokens):
            raise FormatError("unexpected end of file", tokens[-1][0] if tokens else None)
        number, token = tokens[at]
        at += 1
        if expect is not None and token != expect:
            raise FormatError(f"expected {expect!r}, got {_literal_name(token)}", number)
        return number, token

    def take_int():
        number, token = take()
        try:
            return int(token)
        except ValueError:
            raise FormatError(f"expected an integer, got {_literal_name(token)}", number)

    def block_map():
        take("{")
        mapping = {}
        while True:
            number, token = take()
            if token == "}":
                return mapping
            word = reference_parse_word(token, number)
            if word in mapping:
                raise FormatError(f"window {_literal_name(token, str)} repeats", number)
            take("->")
            mapping[word] = take_int()

    for expect in ("coe", "A.mks", "B.mks", "code"):
        take(expect)
    window, mapping = take_int(), block_map()
    take("inverse")
    inverse_window, inverse_mapping = take_int(), block_map()
    if at != len(tokens):
        raise FormatError(f"unknown stage {_literal_name(tokens[at][1])}", tokens[at][0])
    return coe_from_chain([make_code(source, target, window, mapping,
                                     inverse_window, inverse_mapping)], source=source)


# Symbol names that the name lookup does not hold, or holds as other
# symbols: each must read as ``int`` reads it, or fail on the same line.
ODD_NAMES = ["-", "+1", "01", "١", "1.-", "1..2", "1e3", "0", "7", "-1",
             "1" * 20, "1" * 4400, "", " 2", "x"]


def outcome_of(parse, *args):
    """The parsed object, or the type and message of the error (which
    carries the line)."""
    try:
        return parse(*args)
    except (ShiftError, ValueError) as exc:
        return type(exc), str(exc)


def cold_then_warm(parse, *args):
    """The outcome of ``parse`` with the parse memos emptied, once a second
    read, through the memos the first one filled, is seen to equal it."""
    formats._WORDS.clear()
    formats._MATRICES.clear()
    cold = outcome_of(parse, *args)
    assert outcome_of(parse, *args) == cold
    return cold


def seeded_point_text(matrix, rng):
    """A point literal: a seeded admissible point as printed, or after one
    edit (an odd symbol name, a space at the bar, no bar), or two seeded
    words over ``0 .. n + 1`` that need not be admissible."""
    kind = rng.randrange(4)
    if kind == 3:
        u, w = ([rng.randint(0, matrix.n + 1) for _ in range(rng.randint(low, 4))]
                for low in (0, 1))
        return f"{'.'.join(map(str, u))}|{format_word(tuple(w))}"
    word = ()
    for _ in range(rng.randint(0, 4)):
        options = matrix.extensions(word)
        word = options[rng.randrange(len(options))]
    text = format_point(representative(matrix, word))
    if kind == 0:
        return text
    if kind == 1:
        return text.replace("|", rng.choice(["", " |", "| ", " | "]))
    parts = text.split("|")
    side = rng.randrange(2) if parts[0] else 1
    symbols = parts[side].split(".")
    symbols[rng.randrange(len(symbols))] = rng.choice(ODD_NAMES)
    parts[side] = ".".join(symbols)
    return "|".join(parts)


def seeded_matrix_text(rng):
    """A seeded 0/1 grid of 2 to 4 symbols as a matrix file, one in four with
    an entry of 2: valid, or not 0/1, reducible or a permutation."""
    n = rng.randint(2, 4)
    grid = [[int(rng.random() < 0.6) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:
        grid[rng.randrange(n)][rng.randrange(n)] = 2
    return "\n".join([f"matrix {n}"] + [" ".join(map(str, row)) for row in grid]) + "\n"


def mangled(text, rng, word_field):
    """A text after one to three seeded edits of its lines: an odd symbol
    name in a word, a comment, a blank line, a field too many or too few,
    or a doubled ``->``."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(1, max(2, len(lines) - 1))
        fields = lines[i].split()
        kind = rng.randrange(7)
        if kind < 3 and len(fields) > word_field:
            symbols = fields[word_field].split(".")
            symbols[rng.randrange(len(symbols))] = rng.choice(ODD_NAMES)
            fields[word_field] = ".".join(symbols)
            lines[i] = " ".join(fields)
        elif kind == 3:
            lines.insert(i, rng.choice(["# a comment", "", "   ", "  # indented"]))
        elif kind == 4:
            lines[i] += rng.choice([" # trailing", "\t"])
        elif kind == 5 and fields:
            if rng.random() < 0.5:
                del fields[rng.randrange(len(fields))]
            else:
                fields.insert(rng.randrange(len(fields) + 1), rng.choice(["->", "1", "-"]))
            lines[i] = " ".join(fields)
        elif kind == 6:
            lines[i] = lines[i].replace("->", "-> ->")
    return "\n".join(lines)


def mangled_code(encode, rng):
    """The chain text of one block code stage, the forward map spread one
    window a line, after one or two seeded edits of its windows: an odd
    symbol name, a doubled ``->``, a dropped image, or a comment line."""
    rows = [f"{format_word(w)} -> {s}" for w, s in encode.mapping]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(rows))
        if len(rows[i].split()) != 3:
            continue
        word, _, image = rows[i].split()
        kind = rng.randrange(5)
        if kind < 2:
            symbols = word.split(".")
            symbols[rng.randrange(len(symbols))] = rng.choice(ODD_NAMES)
            rows[i] = f"{'.'.join(symbols)} -> {image}"
        elif kind == 2:
            rows[i] = f"{word} -> -> {image}"
        elif kind == 3:
            rows[i] = f"{word} ->"
        else:
            rows.insert(i, rng.choice(["# a comment", "", "  # indented"]))
    inverse = " ".join(f"{format_word(w)} -> {s}" for w, s in encode.inverse_mapping)
    body = "\n".join(rows)
    return f"coe A.mks B.mks\ncode 2 {{\n{body}\n}} inverse 1 {{ {inverse} }}\n"


@pytest.mark.parametrize("matrix", [G, FULL2], ids=["golden-mean", "full-2"])
def test_parsers_match_the_per_field_reference(matrix, tmp_path):
    """Seeded table, function, point, matrix and chain texts, valid and
    mangled: each parser returns what the per-field reference returns, or
    raises the same error type and message on the same line, both with the
    parse memos emptied and read again through them; and once more, all
    texts in turn through memos that every earlier text filled."""
    from shiftgroups.codes import higher_block_codes
    from shiftgroups.selftest import random_function
    from shiftgroups.tables import random_element

    rng = random.Random(31)
    block, encode, _ = higher_block_codes(matrix, 2)
    (tmp_path / "A.mks").write_text(format_matrix(matrix), encoding="utf-8")
    (tmp_path / "B.mks").write_text(format_matrix(block), encoding="utf-8")
    z = representative(matrix, (1,))
    seen, read = set(), []
    for seed in range(120):
        table_text = format_table(random_element(matrix, 3, seed))
        function_text = format_function(random_function(matrix, rng))
        matrix_text = seeded_matrix_text(rng)
        cases = [(reference_parse_table, parse_table, text, matrix)
                 for text in (table_text, mangled(table_text, rng, 0),
                              mangled(table_text, rng, 2))]
        cases += [(reference_parse_function, parse_function, text, matrix)
                  for text in (function_text, mangled(function_text, rng, 0))]
        cases += [(reference_parse_point, parse_point, seeded_point_text(matrix, rng), matrix)
                  for _ in range(2)]
        cases += [(reference_parse_matrix, parse_matrix, text)
                  for text in (matrix_text, mangled(matrix_text, rng, 0))]
        for reference, parse, *args in cases:
            expected = outcome_of(reference, *args)
            assert cold_then_warm(parse, *args) == expected
            seen.add(expected[0] if isinstance(expected, tuple) else parse.__name__)
            read.append((parse, args, expected))
        code_text = mangled_code(encode, rng) if seed % 4 else format_chain(encode)
        expected = outcome_of(reference_parse_code, code_text, matrix, block)
        got = cold_then_warm(parse_coe, code_text, str(tmp_path))
        if isinstance(expected, tuple):
            assert got == expected
            seen.add(expected[0])
        else:
            assert coe_apply(got, z) == coe_apply(expected, z) and got.target == block
            seen.add("parse_coe")
        read.append((parse_coe, (code_text, str(tmp_path)), got))
    for parse, args, outcome in read:
        assert outcome_of(parse, *args) == outcome
    assert {"parse_table", "parse_function", "parse_point", "parse_matrix", "parse_coe",
            FormatError, NotZeroOne, Reducible} <= seen


def test_parse_memos_are_bounded():
    """The word memo holds at most ``_WORD_MEMO_SIZE`` fields, each of at
    most 64 characters, after more distinct fields than that, and the
    writer memo as many words of those fields; the matrix
    memo holds at most ``_MATRIX_MEMO_SIZE`` texts of at most
    ``_MATRIX_TEXT_LIMIT`` characters, and a larger matrix text reads to
    an equal matrix each time without being kept."""
    symbol = {str(a): a for a in range(1, formats._WORD_MEMO_SIZE + 101)}.__getitem__
    formats._WORDS.clear()
    formats._TEXTS.clear()
    most = [0, 0]
    for i in range(formats._WORD_MEMO_SIZE + 100):
        assert formats._word_field(symbol, str(i + 1), None) == (i + 1,)
        most = [max(most[0], len(formats._WORDS)), max(most[1], len(formats._TEXTS))]
    assert most == [formats._WORD_MEMO_SIZE] * 2
    kept, long = "1." * 31 + "11", "1." * 32 + "1"
    assert (len(kept), len(long)) == (64, 65)
    for text, word in ((kept, (1,) * 31 + (11,)), (long, (1,) * 33)) * 2:
        assert formats._word_field(symbol, text, None) == word
        assert format_word(word) == text
    assert kept in formats._WORDS and long not in formats._WORDS
    assert formats._TEXTS[(1,) * 31 + (11,)] == kept and (1,) * 33 not in formats._TEXTS

    text = format_matrix(G)
    formats._MATRICES.clear()
    for i in range(2 * formats._MATRIX_MEMO_SIZE + 3):
        assert parse_matrix(text + f"# copy {i}\n") == G
        assert len(formats._MATRICES) <= formats._MATRIX_MEMO_SIZE
        assert all(len(key) <= formats._MATRIX_TEXT_LIMIT for key in formats._MATRICES)
    rng = random.Random(400)
    grid = [[int(rng.random() < 0.5) for _ in range(400)] for _ in range(400)]
    text = "\n".join(["matrix 400"] + [" ".join(map(str, row)) for row in grid]) + "\n"
    assert len(text) > formats._MATRIX_TEXT_LIMIT
    first = parse_matrix(text)
    assert parse_matrix(text) == first == validate_matrix(grid)
    assert text not in formats._MATRICES


class YieldingMemo(dict):
    """A memo that lets other threads run before and after it reads its size,
    so stores of several threads interleave with each other's checks."""

    def __len__(self):
        time.sleep(0)
        size = dict.__len__(self)
        time.sleep(0)
        return size


def test_parse_memos_hold_their_bound_under_threads(monkeypatch):
    """Eight threads read overlapping word fields and matrix texts through
    memos bounded at 8 and 2 keys that yield around each size check, while
    the interpreter switches threads every microsecond: every read gives
    its word or matrix, a watching thread never sees a memo more than one
    key per reading thread past its bound, and once they are done each
    memo is within its bound.  A memo that is never emptied breaks both.
    The writer memo, bounded with the word memo, names each word as read."""
    readers = 8
    memos = {"_WORDS": (YieldingMemo(), 8), "_TEXTS": (YieldingMemo(), 8),
             "_MATRICES": (YieldingMemo(), 2)}
    for name, (memo, bound) in memos.items():
        monkeypatch.setattr(formats, name, memo)
    monkeypatch.setattr(formats, "_WORD_MEMO_SIZE", 8)
    monkeypatch.setattr(formats, "_MATRIX_MEMO_SIZE", 2)
    symbol = formats._names(40).__getitem__
    texts = [format_matrix(G) + f"# copy {i}\n" for i in range(5)]
    wrong, most, done = [], {name: 0 for name in memos}, threading.Event()

    def read(seed):
        rng = random.Random(seed)
        for _ in range(150):
            i = rng.randrange(40)
            if formats._word_field(symbol, str(i), None) != (i,):
                wrong.append(str(i))
            if format_word((i,)) != str(i):
                wrong.append((i,))
            if parse_matrix(texts[i % 5]) != G:
                wrong.append(texts[i % 5])

    def watch():
        while not done.is_set():
            for name, (memo, bound) in memos.items():
                most[name] = max(most[name], dict.__len__(memo) - bound)

    threads = [threading.Thread(target=read, args=(seed,)) for seed in range(readers)]
    watcher = threading.Thread(target=watch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        watcher.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads + [watcher])
    assert wrong == []
    assert all(over <= readers for over in most.values())
    assert all(dict.__len__(memo) <= bound for memo, bound in memos.values())


def format_chain(encode):
    body = " ".join(f"{format_word(w)} -> {s}" for w, s in encode.mapping)
    inverse = " ".join(f"{format_word(w)} -> {s}" for w, s in encode.inverse_mapping)
    return f"coe A.mks B.mks\ncode 2 {{ {body} }} inverse 1 {{ {inverse} }}\n"


def readme_examples():
    """The ``text`` blocks of README's "File formats" section, in order."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## File formats", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```text\n(.*?)```", section, flags=re.S)


def test_readme_examples_parse(tmp_path):
    """The matrix, function, table and chain examples of README's "File
    formats" section parse, and the chain applies the example table."""
    matrix_text, function_text, table_text, chain_text = readme_examples()
    matrix = parse_matrix(matrix_text)
    assert matrix == G
    assert parse_function(function_text, matrix) == make(
        G, {(1, 1): 0, (1, 2): 1, (2,): -1})
    table = parse_table(table_text, matrix)
    assert table == prefix_swap(G, 1, 2)
    (tmp_path / "G.mks").write_text(matrix_text, encoding="utf-8")
    (tmp_path / "tau0.tbl").write_text(table_text, encoding="utf-8")
    chain = parse_coe(chain_text, str(tmp_path))
    from shiftgroups.tables import apply

    for word in ((1, 1), (1, 2), (2,)):
        z = representative(G, word)
        assert coe_apply(chain, z) == apply(table, z)
