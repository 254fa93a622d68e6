"""End-to-end command line checks, including exit codes."""

import errno
import inspect
import os
import sys
import tracemalloc

import pytest

import shiftgroups
from conftest import deep_exchange, run_cli, run_python
from shiftgroups import cli
from shiftgroups.formats import format_function, format_matrix, format_table, format_word
from shiftgroups.functions import constant, indicator, make
from shiftgroups.sft import enumerate_words, validate_matrix
from shiftgroups.tables import identity_table, prefix_swap

G = validate_matrix([[1, 1], [1, 0]])


CAPPED_CLI = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
              "resource.setrlimit(resource.RLIMIT_CPU, ({cpu}, {cpu}))\n"
              "from shiftgroups import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")


def run_capped_cli(*args, cwd, cpu_seconds=10):
    """Run the CLI in a child whose address space is capped at 512 MB and
    whose CPU time is capped at ``cpu_seconds`` (10 s unless given)."""
    return run_python("-c", CAPPED_CLI.format(cpu=cpu_seconds), *args, cwd=cwd)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "G.mks").write_text(format_matrix(G), encoding="utf-8")
    (tmp_path / "tau0.tbl").write_text(
        format_table(prefix_swap(G, 1, 2)), encoding="utf-8")
    (tmp_path / "one.fn").write_text(
        format_function(constant(G, 1)), encoding="utf-8")
    (tmp_path / "chi1.fn").write_text(
        format_function(indicator(G, (1,))), encoding="utf-8")
    (tmp_path / "chi2.fn").write_text(
        format_function(indicator(G, (2,))), encoding="utf-8")
    (tmp_path / "tau0.coe").write_text(
        "coe G.mks G.mks\n"
        "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n"
        "post-table tau0.tbl\n", encoding="utf-8")
    (tmp_path / "id.coe").write_text(
        "coe G.mks G.mks\n"
        "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n",
        encoding="utf-8")
    return tmp_path


def test_child_imports_package_under_test(tmp_path):
    result = run_python(
        "-c", "import shiftgroups, sys; sys.stdout.write(shiftgroups.__file__)",
        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == os.path.abspath(shiftgroups.__file__)


def test_cli_starts_without_introspection_modules():
    """Importing the command line loads none of ``dataclasses``, ``inspect``,
    ``typing``, ``ast`` or ``dis``.  The child runs without ``site``, whose
    ``.pth`` files may import ``typing`` themselves."""
    result = run_python("-S", "-c", "import sys, shiftgroups.cli\n"
                        "print(sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis'}"
                        " & set(sys.modules)))")
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_validate(workdir):
    result = run_cli("validate", "G.mks", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout.strip() == "OK irreducible non-permutation n=2"
    (workdir / "perm.mks").write_text("matrix 2\n0 1\n1 0\n", encoding="utf-8")
    result = run_cli("validate", "perm.mks", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout.startswith("REJECTED Permutation")


def test_validate_parse_error_is_input_error(workdir):
    (workdir / "bad.mks").write_text("matrix 2\n1 1\n", encoding="utf-8")
    result = run_cli("validate", "bad.mks", cwd=workdir)
    assert result.returncode == 2
    assert "line" in result.stderr


def test_validate_symbol_count_below_one_is_input_error(workdir):
    """``matrix 0`` and ``matrix -1`` stop at the header's line with exit 2."""
    for count in ("0", "-1"):
        (workdir / "empty.mks").write_text(f"matrix {count}\n", encoding="utf-8")
        result = run_cli("validate", "empty.mks", cwd=workdir)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: line 1: symbol count '{count}' is below 1\n"


def test_words(workdir):
    result = run_cli("words", "G.mks", "2", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["1.1", "1.2", "2.1"]


class LineChecker:
    """A stdout that compares each line with the next expected one and
    keeps only a count, so it holds no output."""

    def __init__(self, expected):
        self.expected = iter(expected)
        self.pending = ""
        self.lines = 0
        self.mismatches = 0

    def write(self, text):
        *lines, self.pending = (self.pending + text).split("\n")
        for line in lines:
            self.mismatches += line != next(self.expected, None)
            self.lines += 1
        return len(text)

    def flush(self):
        pass


def test_words_streams_its_output(tmp_path, monkeypatch):
    """Full 2-shift at length 16: the same 65536 lines as
    ``enumerate_words``, in order, without building the word list
    (which alone takes several megabytes)."""
    (tmp_path / "F2.mks").write_text("matrix 2\n1 1\n1 1\n", encoding="utf-8")
    full2 = validate_matrix([[1, 1], [1, 1]])
    expected = [format_word(w) for w in enumerate_words(full2, 16)]
    out = LineChecker(expected)
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = cli.main(["words", str(tmp_path / "F2.mks"), "16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert code == 0
    assert (out.lines, out.mismatches, out.pending) == (len(expected), 0, "")
    assert peak < 1_000_000


def test_table_commands(workdir):
    assert run_cli("table", "check", "G.mks", "tau0.tbl", cwd=workdir).returncode == 0
    result = run_cli("table", "compose", "G.mks", "tau0.tbl", "tau0.tbl", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "table\n1 -> 1\n2 -> 2\n"
    result = run_cli("table", "invert", "G.mks", "tau0.tbl", cwd=workdir)
    assert result.stdout == format_table(prefix_swap(G, 1, 2))
    result = run_cli("table", "apply", "G.mks", "tau0.tbl", "|1.2", cwd=workdir)
    assert result.stdout.strip() == "|2.1"


def test_table_check_rejects(workdir):
    (workdir / "bad.tbl").write_text("table\n1 -> 2\n2 -> 1\n", encoding="utf-8")
    result = run_cli("table", "check", "G.mks", "bad.tbl", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout.startswith("REJECTED FollowerMismatch")
    (workdir / "empty.tbl").write_text("table\n1 -> -\n2 -> -\n", encoding="utf-8")
    result = run_cli("table", "check", "G.mks", "empty.tbl", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout.startswith("REJECTED InadmissibleWord")


def test_rho_golden_output(workdir):
    result = run_cli("rho", "G.mks", "chi1.fn", "tau0.tbl", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "function\n1.1 0\n1.2 1\n2 -1\n"


def test_member_outputs(workdir):
    result = run_cli("member", "G.mks", "one.fn", "tau0.tbl", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout.strip() == "NOT-MEMBER Gamma_{A,f}; d nonzero on 1.2"
    result = run_cli("member", "G.mks", "chi2.fn", "tau0.tbl", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout.strip() == "MEMBER Gamma_{A,f}"


def test_weight(workdir):
    result = run_cli("weight", "G.mks", "one.fn", "tau0.tbl", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "function\n1.1 0\n1.2 1\n2 -1\n"


def test_psi_and_pullback(workdir):
    result = run_cli("psi", "tau0.coe", "chi1.fn", cwd=workdir)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "function"
    assert "1.2 -1" in lines
    result = run_cli("pullback", "tau0.coe", "chi1.fn", cwd=workdir)
    assert result.stdout == "function\n1.1 1\n1.2 0\n2 1\n"


def test_conjugacy_command(workdir):
    result = run_cli("conjugacy", "id.coe", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout.strip() == "CONJUGACY"
    result = run_cli("conjugacy", "tau0.coe", cwd=workdir)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert lines[0] == "WITNESS"
    assert lines[1].startswith("z ")
    assert "function" in lines
    assert "table" in lines
    assert lines[-1].startswith("level ")


def test_huge_level_budget_reads_only_the_levels_searched(workdir):
    """The witness for ``tau0.coe`` is found at block level 2, so a level
    budget of 10^8 under the 512 MB / 10 s caps prints the witness the
    default budget prints, without reading 10^8 symbols of each point."""
    result = run_capped_cli("conjugacy", "tau0.coe", "--max-level", "100000000", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout == run_cli("conjugacy", "tau0.coe", cwd=workdir).stdout


def test_conjugacy_budget_exit_code(workdir):
    result = run_cli("conjugacy", "tau0.coe", "--max-level", "1", cwd=workdir)
    assert result.returncode == 3
    assert result.stdout.startswith("SEARCH-BUDGET")


@pytest.mark.parametrize("args", [
    ("selftest", "--cases", "-5"),
    ("selftest", "--cases", "0"),
    ("conjugacy", "tau0.coe", "--max-level", "-1"),
    ("conjugacy", "tau0.coe", "--max-level", "0"),
    ("conjugacy", "tau0.coe", "--max-depth", "-3"),
    ("commutant", "tau0.coe", "--max-level", "0"),
])
def test_non_positive_budget_is_usage_error(workdir, args):
    result = run_cli(*args, cwd=workdir)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "must be at least 1" in result.stderr


README_COE = (
    "coe G.mks G.mks\n"
    "pre-table tau0.tbl\n"
    "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n")


def truncations(text):
    """The text cut after each of its tokens but the last, lines kept."""
    tokens = [(n, token) for n, line in enumerate(text.splitlines()) for token in line.split()]
    for k in range(len(tokens)):
        lines = {}
        for n, token in tokens[:k]:
            lines.setdefault(n, []).append(token)
        text = "".join(" ".join(line) + "\n" for line in lines.values())
        yield pytest.param(text, id=f"cut-after-{k}-tokens")


MALFORMED_COE = [
    *truncations(README_COE),
    pytest.param("coe G.mks G.mks\ncode 0 { - -> 1 } inverse 1 { 1 -> 1 2 -> 2 }\n",
                 id="window-0"),
    pytest.param("coe G.mks G.mks\ncode 1 { 1 -> 1 2 -> 2 } inverse 0 { - -> 1 }\n",
                 id="inverse-window-0"),
    pytest.param("coe G.mks G.mks\ncode 1 { 1 -> 2 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n",
                 id="repeated-window"),
    pytest.param("coe G.mks G.mks\ncode 1 { 1 -> 1 2 -> 2 } inverse 1 { 2 -> 2 1 -> 2 1 -> 1 }\n",
                 id="repeated-inverse-window"),
    pytest.param("coe G.mks G.mks\ncode 2 { 1.1 -> 1 1.2 -> 1 2.1 -> 2 2.2 -> 2 }"
                 " inverse 1 { 1 -> 1 2 -> 2 }\n", id="stray-window"),
]


@pytest.mark.parametrize("text", MALFORMED_COE)
def test_malformed_chain_file_is_input_error(workdir, capsys, text):
    """In process, so an uncaught exception fails the test."""
    (workdir / "bad.coe").write_text(text, encoding="utf-8")
    assert cli.main(["conjugacy", str(workdir / "bad.coe")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_stray_code_window_is_input_error(workdir):
    """A code declaring the inadmissible window 2.2 is refused by name."""
    (workdir / "stray.coe").write_text(
        "coe G.mks G.mks\n"
        "code 2 { 1.1 -> 1 1.2 -> 1 2.1 -> 2 2.2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n",
        encoding="utf-8")
    result = run_cli("conjugacy", "stray.coe", cwd=workdir)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "(2, 2) is not an admissible window" in result.stderr
    assert "Traceback" not in result.stderr


def test_repeated_target_table_is_rejected_everywhere(tmp_path, capsys):
    """Both [1.2] and [2] go into [2]: ``table check`` refuses the table,
    and every command that reads it as input stops with exit 2."""
    (tmp_path / "F2.mks").write_text("matrix 2\n1 1\n1 1\n", encoding="utf-8")
    (tmp_path / "rep.tbl").write_text("table\n1.1 -> 1\n1.2 -> 2\n2 -> 2\n", encoding="utf-8")
    (tmp_path / "chi2.fn").write_text("function\n1 0\n2 1\n", encoding="utf-8")
    (tmp_path / "rep.coe").write_text(
        "coe F2.mks F2.mks\n"
        "pre-table rep.tbl\n"
        "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n", encoding="utf-8")
    mks, tbl, fn, coe = (str(tmp_path / name) for name in ("F2.mks", "rep.tbl", "chi2.fn", "rep.coe"))
    assert cli.main(["table", "check", mks, tbl]) == 1
    assert capsys.readouterr().out == "REJECTED ImageNotPartition: word (2,) repeats\n"
    for argv in (["table", "invert", mks, tbl], ["rho", mks, fn, tbl], ["psi", coe, fn]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: word (2,) repeats\n")


def test_huge_declared_window_is_refused_without_listing_it(tmp_path):
    """A code on a huge window that declares one image is refused by name.
    The child's address space is capped at 512 MB, which a list of all
    2^26 windows would overrun, and so would building the missing window
    of 10^8 symbols; its CPU time is capped at 10 s, which building the
    missing window one tuple copy at a time would overrun, and so would a
    walk that copies the prefix of one 100000-symbol key at every depth.
    A missing window past 64 symbols is named by its first and last four
    symbols and its length."""
    (tmp_path / "F2.mks").write_text("matrix 2\n1 1\n1 1\n", encoding="utf-8")
    (tmp_path / "chi2.fn").write_text("function\n1 0\n2 1\n", encoding="utf-8")
    ones = "1, 1, 1, 1"
    for window, key, missing in (
            (26, (1,), (1,) * 26),
            (100000, (1,), f"({ones}, ..., {ones}) of 100000 symbols"),
            (100000, (1,) * 100000, f"({ones}, ..., 1, 1, 1, 2) of 100000 symbols"),
            (10 ** 8, (1,), f"({ones}, ..., {ones}) of 100000000 symbols")):
        (tmp_path / "big.coe").write_text(
            "coe F2.mks F2.mks\n"
            f"code {window} {{ {'.'.join(map(str, key))} -> 1 }} "
            "inverse 1 { 1 -> 1 2 -> 2 }\n", encoding="utf-8")
        result = run_capped_cli("psi", "big.coe", "chi2.fn", cwd=tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: no image declared for window {missing}\n"


def test_wide_identity_code_runs_at_its_least_windows(tmp_path):
    """The identity on the full 2-shift declared at window 11 in both maps,
    a file of about 111 KB, runs through ``psi`` in a child capped at 3 s
    of CPU time, with the output of the same identity at window 1.  Both
    maps read only their first symbol, so the round trips walk windows of
    1 symbol, not the 2 x 2^21 windows of the declared composite length."""
    (tmp_path / "F2.mks").write_text("matrix 2\n1 1\n1 1\n", encoding="utf-8")
    (tmp_path / "chi2.fn").write_text("function\n1 0\n2 1\n", encoding="utf-8")
    full = validate_matrix([[1, 1], [1, 1]])
    for name, window in (("wide.coe", 11), ("narrow.coe", 1)):
        body = " ".join(f"{format_word(w)} -> {w[0]}" for w in enumerate_words(full, window))
        (tmp_path / name).write_text(
            f"coe F2.mks F2.mks\ncode {window} {{ {body} }} inverse {window} {{ {body} }}\n",
            encoding="utf-8")
    assert (tmp_path / "wide.coe").stat().st_size > 100_000
    result = run_capped_cli("psi", "wide.coe", "chi2.fn", cwd=tmp_path, cpu_seconds=3)
    assert result.returncode == 0
    assert result.stdout == run_cli("psi", "narrow.coe", "chi2.fn", cwd=tmp_path).stdout


def test_long_stray_key_is_named_by_its_ends(tmp_path):
    """A window-1 code with one more key of 100000 symbols is refused with
    the key named by its first and last four symbols and its length, in a
    message under 1 KB, from a child capped at 512 MB; so is a
    window-100000 code whose one key has an image that is no target symbol,
    and a stage file name of 100000 characters is named by its first and
    last eight characters and its length, once."""
    (tmp_path / "F2.mks").write_text("matrix 2\n1 1\n1 1\n", encoding="utf-8")
    (tmp_path / "chi2.fn").write_text("function\n1 0\n2 1\n", encoding="utf-8")
    key = ".".join(["1"] * 99999 + ["2"])
    (tmp_path / "stray.coe").write_text(
        "coe F2.mks F2.mks\n"
        f"code 1 {{ 1 -> 1 2 -> 2 {key} -> 1 }} inverse 1 {{ 1 -> 1 2 -> 2 }}\n",
        encoding="utf-8")
    result = run_capped_cli("psi", "stray.coe", "chi2.fn", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: (1, 1, 1, 1, ..., 1, 1, 1, 2) of 100000 symbols "
                             "is not an admissible window of 1 symbols\n")
    assert len(result.stderr.encode()) < 1024
    ones = ".".join(["1"] * 100000)
    (tmp_path / "image.coe").write_text(
        "coe F2.mks F2.mks\n"
        f"code 100000 {{ {ones} -> 9 }} inverse 1 {{ 1 -> 1 2 -> 2 }}\n", encoding="utf-8")
    result = run_capped_cli("psi", "image.coe", "chi2.fn", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: image of (1, 1, 1, 1, ..., 1, 1, 1, 1) of 100000 symbols "
                             "is not a target symbol\n")
    assert len(result.stderr.encode()) < 1024
    (tmp_path / "name.coe").write_text(
        "coe F2.mks F2.mks\n"
        f"pre-table {'t' * 100000}\n", encoding="utf-8")
    result = run_capped_cli("psi", "name.coe", "chi2.fn", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: line 2: cannot read 'tttttttt'...'tttttttt' of 100000 "
                             f"characters: {os.strerror(errno.ENAMETOOLONG)}\n")
    assert len(result.stderr.encode()) < 1024


def test_long_inadmissible_word_is_named_by_its_ends(workdir):
    """A function file and a table file with one inadmissible word of
    300002 symbols are refused with their usual exit codes, the word named
    by its first and last four symbols and its length, in under 1 KB."""
    word = ".".join(["1"] * 300000 + ["2", "2"])
    name = "word (1, 1, 1, 1, ..., 1, 1, 2, 2) of 300002 symbols is not admissible"
    (workdir / "long.fn").write_text(f"function\n1 0\n2 1\n{word} 1\n", encoding="utf-8")
    result = run_capped_cli("member", "G.mks", "long.fn", "tau0.tbl", cwd=workdir)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {name}\n"
    (workdir / "long.tbl").write_text(f"table\n1 -> 1\n2 -> 2\n{word} -> 1\n",
                                      encoding="utf-8")
    result = run_capped_cli("table", "check", "G.mks", "long.tbl", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout == f"REJECTED InadmissibleWord: {name}\n"
    assert result.stderr == ""


def test_commutant_command(workdir):
    result = run_cli("commutant", "id.coe", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout.strip() == "IDENTITY"
    result = run_cli("commutant", "tau0.coe", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout.splitlines()[0] == "WITNESS"


def test_missing_file_is_input_error(workdir):
    assert run_cli("rho", "G.mks", "nope.fn", "tau0.tbl", cwd=workdir).returncode == 2


def test_unreadable_paths_are_input_errors_naming_them(workdir):
    """A directory and a missing path exit 2 with no traceback: named in a
    chain file, as ``cannot read '<name>': <strerror>``; on the command
    line, by the ``OSError`` text, which names the path."""
    (workdir / "dir.tbl").mkdir()
    for name, code in (("dir.tbl", errno.EISDIR), ("gone.tbl", errno.ENOENT)):
        (workdir / "bad.coe").write_text(
            "coe G.mks G.mks\n"
            "code 1 { 1 -> 1 2 -> 2 } inverse 1 { 1 -> 1 2 -> 2 }\n"
            f"post-table {name}\n", encoding="utf-8")
        result = run_cli("psi", "bad.coe", "chi1.fn", cwd=workdir)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: line 3: cannot read '{name}': {os.strerror(code)}\n"
        for args in (("table", "check", "G.mks", name), ("validate", name)):
            result = run_cli(*args, cwd=workdir)
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == f"error: [Errno {code}] {os.strerror(code)}: '{name}'\n"


def test_byte_order_mark_files_are_read(workdir):
    """A matrix and a table file that start with a UTF-8 byte order mark
    are read as without it: ``validate`` and ``table check`` accept them."""
    bom = b"\xef\xbb\xbf"
    for name in ("G.mks", "tau0.tbl"):
        (workdir / f"bom-{name}").write_bytes(bom + (workdir / name).read_bytes())
    result = run_cli("validate", "bom-G.mks", cwd=workdir)
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "OK irreducible non-permutation n=2\n", "")
    result = run_cli("table", "check", "bom-G.mks", "bom-tau0.tbl", cwd=workdir)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == run_cli("table", "check", "G.mks", "tau0.tbl", cwd=workdir).stdout


def test_invalid_utf8_is_input_error_naming_the_byte(workdir):
    """A file that is not UTF-8 exits 2, and the message names the bad byte
    and its position, for a table and for the matrix ``validate`` reads."""
    (workdir / "bad.tbl").write_bytes(b"table\n1 -> 2\n2 -> \xff1\n")
    (workdir / "bad.mks").write_bytes(b"matrix 2\n1 1\n1 \xfe0\n")
    result = run_cli("table", "check", "G.mks", "bad.tbl", cwd=workdir)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: 'utf-8' codec can't decode byte 0xff in position 18: "
                             "invalid start byte\n")
    result = run_cli("validate", "bad.mks", cwd=workdir)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: 'utf-8' codec can't decode byte 0xfe in position 15: "
                             "invalid start byte\n")


@pytest.mark.parametrize("args", [
    ("validate", "G.mks"),
    ("table", "check", "G.mks", "tau0.tbl"),
    ("table", "invert", "G.mks", "tau0.tbl"),
    ("rho", "G.mks", "chi1.fn", "tau0.tbl"),
    ("member", "G.mks", "one.fn", "tau0.tbl"),
    ("psi", "tau0.coe", "chi1.fn"),
])
def test_crlf_files_read_like_their_lf_copies(workdir, args):
    """Matrix, table, function and chain files with CRLF line ends give the
    output of their LF copies."""
    expected = run_cli(*args, cwd=workdir)
    for path in list(workdir.iterdir()):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    result = run_cli(*args, cwd=workdir)
    assert b"\r\n" in (workdir / "G.mks").read_bytes()
    assert (result.returncode, result.stdout, result.stderr) == (
        expected.returncode, expected.stdout, expected.stderr)


def test_usage_error_exit_code(workdir):
    assert run_cli("frobnicate", cwd=workdir).returncode == 2
    assert run_cli("words", "G.mks", "-1", cwd=workdir).returncode == 2


def test_selftest_deterministic_small(workdir):
    first = run_cli("selftest", "--seed", "3", "--cases", "2", cwd=workdir)
    second = run_cli("selftest", "--seed", "3", "--cases", "2", cwd=workdir)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("ALL PASS\n")
    other = run_cli("selftest", "--seed", "4", "--cases", "2", cwd=workdir)
    assert other.stdout.splitlines()[0] != first.stdout.splitlines()[0]


def test_table_compose_of_words_deeper_than_the_recursion_limit(tmp_path, capsys):
    """The table and transducer walks keep their own stack, so a table
    word longer than the interpreter's recursion limit still composes.
    The limit is lowered for the call so that a short word suffices."""
    deep = deep_exchange(300)
    (tmp_path / "F2.mks").write_text(format_matrix(deep.matrix), encoding="utf-8")
    (tmp_path / "deep.tbl").write_text(format_table(deep), encoding="utf-8")
    (tmp_path / "id.tbl").write_text(
        format_table(identity_table(deep.matrix)), encoding="utf-8")
    argv = ["table", "compose"] + [str(tmp_path / name) for name in ("F2.mks", "deep.tbl", "id.tbl")]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        code = cli.main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out == format_table(deep)


def test_selftest_report_is_the_same_under_python_O():
    """Self-checks raise instead of asserting, so ``-O`` changes nothing."""
    args = ("-m", "shiftgroups", "selftest", "--seed", "7", "--cases", "10")
    plain = run_python(*args)
    optimized = run_python("-O", *args)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
