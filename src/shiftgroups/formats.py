"""Text formats for matrices, words, points, functions, tables, chains.

All files are UTF-8, with or without a leading byte order mark, read
unbuffered and decoded once (:func:`read_text`), with LF or CRLF line
endings; ``#`` starts a comment and blank lines are ignored.  Words are
dot-separated symbols with ``-`` for the empty word; points are ``u|w``
literals.  Writers emit canonical sorted forms only, and everything
printed re-parses to an equal object.  Word fields (:func:`_word_field`)
map one name lookup per matrix (:func:`_names`); a name it lacks goes to
:func:`parse_word`.

Three process-wide memos skip re-reading text already read and re-joining
names already joined.  ``_WORDS`` maps a word field's text, up to
``_WORD_TEXT_LIMIT`` characters, to its word; a word depends only on its
text, as a name the lookup lacks is read by ``int``.  ``_TEXTS`` maps such a
word back to its text, and only when the text is the canonical spelling
(every name a lookup hit), so the writers, which look each word up there
first (:func:`_spelled`), print what they would have joined.
``_MATRICES`` maps a matrix file's text, up to ``_MATRIX_TEXT_LIMIT``
characters, to its validated matrix.  A memo that grows past its bound (``_WORD_MEMO_SIZE`` keys for
the two word memos, ``_MATRIX_MEMO_SIZE`` for matrices) is emptied
(:func:`_remember`).  Only successful reads are stored, so every error is
raised again, with its message and line, and tables, functions and
chains are validated on every read; a point's transitions are checked
once, where its text is read (:func:`sft.canonicalize_point`).  Keys and
values are immutable, so the memos are safe to share across threads.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .codes import make_code
from .errors import FormatError
from .functions import LocFun, make as make_function
from .orbit import CoeMap, coe_from_chain
from .sft import Point, TransitionMatrix, Word, canonicalize_point, validate_matrix
from .tables import TableElement, validate_table


def _content_lines(text: str, header: str | None = None) -> list[tuple[int, str]]:
    """The numbered content lines, or with ``header`` the lines after that first line."""
    lines = [(number, line) for number, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip())]
    if header is not None and (not lines or lines[0][1] != header):
        raise FormatError(f"expected a {header!r} header", lines[0][0] if lines else None)
    return lines if header is None else lines[1:]


# -- parse memos --------------------------------------------------------------


_WORD_TEXT_LIMIT = 64
_WORD_MEMO_SIZE = 1 << 14
_MATRIX_TEXT_LIMIT = 1 << 12
_MATRIX_MEMO_SIZE = 32
_WORDS: dict[str, Word] = {}
_TEXTS: dict[Word, str] = {}
_MATRICES: dict[str, TransitionMatrix] = {}


def _remember(memo: dict, bound: int, key: str, value) -> None:
    """Store ``key -> value``, then empty ``memo`` if it holds more than
    ``bound`` keys.  Each store is followed by its own check, so a memo
    holds at most ``bound`` keys whenever no store is under way, and at
    most one more per thread inside a store.  No lock is taken: one costs
    more than the store it would guard, and a race can only grow a memo
    for that moment, never change a value."""
    memo[key] = value
    if len(memo) > bound:
        memo.clear()


# -- words and points ---------------------------------------------------------


@lru_cache(maxsize=64)
def _names(n: int) -> dict:
    """``a -> str(a)`` and ``str(a) -> a`` for ``1 <= a <= n``; shared, so read only."""
    return {**{a: str(a) for a in range(1, n + 1)}, **{str(a): a for a in range(1, n + 1)}}


def _literal_name(text: str, short=repr) -> str:
    """``text`` for a message: ``short(text)``, quoted by default, up to 64
    characters, past that by its first and last eight and its length, as
    :func:`sft.word_name` names words."""
    if len(text) <= 64:
        return short(text)
    return f"{text[:8]!r}...{text[-8:]!r} of {len(text)} characters"


def _spelled(word: Word) -> str:
    """A word's names joined by dots (``""`` for the empty word): its
    ``_TEXTS`` entry, or else joined here.  Every writer spells words
    through it."""
    return _TEXTS.get(word) or ".".join(map(str, word))


def format_word(word: Word) -> str:
    return _spelled(tuple(word)) or "-"


def parse_word(text: str, line: int | None = None) -> Word:
    text = text.strip()
    if text == "-":
        return ()
    try:
        return tuple(map(int, text.split(".")))
    except ValueError:
        raise FormatError(f"bad word literal {_literal_name(text)}", line)


def _word_field(symbol, text: str, line: int | None) -> Word:
    """A word field: its ``_WORDS`` entry, or else one ``symbol`` lookup (a
    :func:`_names` entry) per name, or :func:`parse_word` when it is not
    plain names (``-``, ``+1`` or a bad literal).  Plain names are the
    canonical spelling, which ``_TEXTS`` keeps for the writers."""
    word = _WORDS.get(text)
    if word is None:
        try:
            word, spelled = tuple(map(symbol, text.split("."))), True
        except KeyError:
            word, spelled = parse_word(text, line), False
        if len(text) <= _WORD_TEXT_LIMIT:
            _remember(_WORDS, _WORD_MEMO_SIZE, text, word)
            if spelled:
                _remember(_TEXTS, _WORD_MEMO_SIZE, word, text)
    return word


def format_point(point: Point) -> str:
    return f"{_spelled(point.transient)}|{_spelled(point.cycle)}"


def parse_point(text: str, matrix: TransitionMatrix, line: int | None = None) -> Point:
    text = text.strip()
    if "|" not in text:
        raise FormatError(f"point literal {_literal_name(text)} needs a '|'", line)
    u_text, w_text = text.split("|", 1)
    symbol = _names(matrix.n).__getitem__
    u = _word_field(symbol, u_text, line) if u_text else ()
    w = _word_field(symbol, w_text, line)
    return canonicalize_point(matrix, u, w)


# -- matrices -----------------------------------------------------------------


def format_matrix(matrix: TransitionMatrix) -> str:
    lines = [f"matrix {matrix.n}"]
    lines += [" ".join(str(v) for v in row) for row in matrix.rows]
    return "\n".join(lines) + "\n"


def parse_matrix_grid(text: str) -> list[list[int]]:
    """The raw grid of a matrix file, before validation."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty matrix file")
    number, header = lines[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "matrix":
        raise FormatError(f"expected 'matrix N', got {_literal_name(header)}", number)
    try:
        n = int(fields[1])
    except ValueError:
        raise FormatError(f"bad symbol count {_literal_name(fields[1])}", number)
    if n < 1:
        raise FormatError(f"symbol count {_literal_name(fields[1])} is below 1", number)
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} rows after the header", number)
    grid = []
    for number, line in lines[1:]:
        try:
            row = list(map(int, line.split()))
        except ValueError:
            raise FormatError(f"bad matrix row {_literal_name(line)}", number)
        if len(row) != n:
            raise FormatError(f"expected {n} entries, got {len(row)}", number)
        grid.append(row)
    return grid


def parse_matrix(text: str) -> TransitionMatrix:
    """The validated matrix of a file's text, through ``_MATRICES`` when the
    text is short enough to keep."""
    keep = len(text) <= _MATRIX_TEXT_LIMIT
    matrix = _MATRICES.get(text) if keep else None
    if matrix is None:
        matrix = validate_matrix(parse_matrix_grid(text))
        if keep:
            _remember(_MATRICES, _MATRIX_MEMO_SIZE, text, matrix)
    return matrix


# -- functions ----------------------------------------------------------------


def format_function(f: LocFun) -> str:
    lines = ["function"]
    lines += [f"{_spelled(w) or '-'} {v}" for w, v in f.pieces]
    return "\n".join(lines) + "\n"


def parse_function(text: str, matrix: TransitionMatrix) -> LocFun:
    symbol = _names(matrix.n).__getitem__
    pieces = {}
    for number, line in _content_lines(text, "function"):
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"expected 'word value', got {_literal_name(line)}", number)
        word = _word_field(symbol, fields[0], number)
        if word in pieces:
            raise FormatError(f"word {_literal_name(fields[0], str)} repeats", number)
        try:
            pieces[word] = int(fields[1])
        except ValueError:
            raise FormatError(f"bad integer {_literal_name(fields[1])}", number)
    return make_function(matrix, pieces)


# -- tables -------------------------------------------------------------------


def format_table(table: TableElement) -> str:
    lines = ["table"]
    lines += [f"{_spelled(nu)} -> {_spelled(mu)}" for nu, mu in table.entries]
    return "\n".join(lines) + "\n"


def parse_table(text: str, matrix: TransitionMatrix) -> TableElement:
    symbol = _names(matrix.n).__getitem__
    entries = []
    for number, line in _content_lines(text, "table"):
        fields = line.split()
        if len(fields) != 3 or fields[1] != "->":
            raise FormatError(f"expected 'nu -> mu', got {_literal_name(line)}", number)
        entries.append((_word_field(symbol, fields[0], number),
                        _word_field(symbol, fields[2], number)))
    return validate_table(matrix, entries)


# -- chain maps ---------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    for number, line in _content_lines(text):
        for token in line.replace("{", " { ").replace("}", " } ").split():
            tokens.append((number, token))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.at = 0

    def done(self) -> bool:
        return self.at >= len(self.tokens)

    def peek(self):
        try:
            return self.tokens[self.at]
        except IndexError:
            raise FormatError("unexpected end of file", self.line()) from None

    def take(self, expect: str | None = None) -> str:
        number, token = self.peek()
        self.at += 1
        if expect is not None and token != expect:
            raise FormatError(f"expected {expect!r}, got {_literal_name(token)}", number)
        return token

    def take_int(self) -> int:
        number, token = self.peek()
        self.at += 1
        try:
            return int(token)
        except ValueError:
            raise FormatError(f"expected an integer, got {_literal_name(token)}", number)

    def line(self):
        return self.tokens[min(self.at, len(self.tokens) - 1)][0] if self.tokens else None


def _parse_block_map(stream: _TokenStream, symbol) -> dict[Word, int]:
    stream.take("{")
    mapping: dict[Word, int] = {}
    while True:
        number, token = stream.peek()
        if token == "}":
            stream.take()
            return mapping
        word = _word_field(symbol, stream.take(), number)
        if word in mapping:
            raise FormatError(f"window {_literal_name(token, str)} repeats", number)
        stream.take("->")
        mapping[word] = stream.take_int()


def parse_coe(text: str, directory: str = ".") -> CoeMap:
    """Parse a chain file: header ``coe A-file B-file`` then stage lines
    ``pre-table file``, one ``code m { .. } inverse m' { .. }``, and
    ``post-table file``, in application order.  A matrix file named for
    both A and B is read once."""
    stream = _TokenStream(_tokenize(text))
    stream.take("coe")
    source_name = stream.take()
    source = _load(parse_matrix, directory, source_name, stream.line())
    target_name = stream.take()
    target = (source if target_name == source_name
              else _load(parse_matrix, directory, target_name, stream.line()))
    stages = []
    saw_code = False
    while not stream.done():
        number, token = stream.peek()
        if token == "pre-table":
            stream.take()
            if saw_code:
                raise FormatError("pre-table stages must precede the code", number)
            stages.append(_load(parse_table, directory, stream.take(), number, source))
        elif token == "post-table":
            stream.take()
            if not saw_code:
                raise FormatError("post-table stages must follow the code", number)
            stages.append(_load(parse_table, directory, stream.take(), number, target))
        elif token == "code":
            stream.take()
            if saw_code:
                raise FormatError("exactly one code stage is allowed", number)
            window = stream.take_int()
            mapping = _parse_block_map(stream, _names(source.n).__getitem__)
            stream.take("inverse")
            inverse_window = stream.take_int()
            inverse_mapping = _parse_block_map(stream, _names(target.n).__getitem__)
            stages.append(make_code(source, target, window, mapping,
                                    inverse_window, inverse_mapping))
            saw_code = True
        else:
            raise FormatError(f"unknown stage {_literal_name(token)}", number)
    if not saw_code:
        raise FormatError("a chain file needs exactly one code stage", stream.line())
    return coe_from_chain(stages, source=source)


def read_text(path: str) -> str:
    """A file's UTF-8 text, read unbuffered to the end and decoded in one step,
    less a leading byte order mark (``splitlines`` reads CRLF), so a bad byte
    is named at its offset in the file; an ``OSError`` names the path, as
    ``open``'s does."""
    fd, chunks = os.open(path, os.O_RDONLY), []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:  # a directory opens, but does not read
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks).decode("utf-8").removeprefix("\ufeff")


def _load(parser, directory, name, line, *args):
    try:
        text = read_text(os.path.join(directory, name))
    except OSError as exc:
        raise FormatError(f"cannot read {_literal_name(name)}: {exc.strerror}", line)
    return parser(text, *args)


def load_matrix(path: str) -> TransitionMatrix:
    return parse_matrix(read_text(path))


def load_function(path: str, matrix: TransitionMatrix) -> LocFun:
    return parse_function(read_text(path), matrix)


def load_table(path: str, matrix: TransitionMatrix) -> TableElement:
    return parse_table(read_text(path), matrix)


def load_coe(path: str) -> CoeMap:
    return parse_coe(read_text(path), os.path.dirname(path) or ".")
