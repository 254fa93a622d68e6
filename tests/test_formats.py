"""Text format round trips and parse failure reporting."""

import pytest

from shiftgroups.errors import FormatError
from shiftgroups.formats import (
    format_function,
    format_matrix,
    format_point,
    format_table,
    format_word,
    parse_coe,
    parse_function,
    parse_matrix,
    parse_point,
    parse_table,
    parse_word,
)
from shiftgroups.functions import indicator, make
from shiftgroups.orbit import coe_apply
from shiftgroups.sft import canonicalize_point, representative, validate_matrix
from shiftgroups.tables import prefix_swap

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
