"""Invertible sliding block codes between shift spaces.

A code reads a window of ``window`` consecutive symbols and emits one
target symbol per position (no memory, anticipation ``window - 1``), so
it commutes with the shifts by construction.  Codes here are always
homeomorphisms: each carries the symbol map of its inverse, and
validation checks exactly that the two maps invert each other.

Every code is kept at the least window of each map (a map that reads
only its first ``m`` symbols is the same code at window ``m``), so two
codes are the same map exactly when they are ``==``.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .errors import NotAdmissibleImage, NotInverse
from .sft import (EMPTY, Point, TransitionMatrix, Value, Word, canonical_point,
                  enumerate_words, family_defects, representative, walk, word_name)


class BlockCode(Value):
    """Sliding block conjugacy with an explicit inverse.

    ``mapping`` sends every admissible source window to a target symbol;
    ``inverse_mapping`` does the same in the other direction with its own
    window length.  Build with :func:`make_code`, :func:`compose_codes` or
    :func:`identity_code`, not directly; canonical (each map at its least
    window), so equal codes are ``==``.
    """

    source: TransitionMatrix
    target: TransitionMatrix
    window: int
    mapping: tuple[tuple[Word, int], ...]
    inverse_window: int
    inverse_mapping: tuple[tuple[Word, int], ...]

    def __post_init__(self) -> None:
        # The window-to-symbol dict, built once; it is not a field, so
        # ``==``, ``hash`` and ``repr`` still see only the fields above.
        object.__setattr__(self, "_symbols", dict(self.mapping))

    def symbol_map(self) -> MappingProxyType:
        """Read-only view of the window-to-symbol map."""
        return MappingProxyType(self._symbols)

    def apply_word(self, word: Word) -> Word:
        """Target word read off a source word (one symbol per full window)."""
        windows = zip(*[word[i:] for i in range(self.window)])
        return tuple(map(self._symbols.__getitem__, windows))

    def encode(self, point: Point) -> Point:
        """Image of an eventually periodic point."""
        n_u = len(point.transient)
        image = self.apply_word(point.prefix(n_u + len(point.cycle) + self.window - 1))
        return canonical_point(self.target, image[:n_u], image[n_u:])

    def inverse(self) -> "BlockCode":
        return BlockCode(
            self.target,
            self.source,
            self.inverse_window,
            self.inverse_mapping,
            self.window,
            self.mapping,
        )


def _pairs(mapping):
    """The ``(window, symbol)`` pairs of a dict, or the pairs as given, repeats kept."""
    return mapping.items() if isinstance(mapping, Mapping) else mapping


def _sorted_pairs(mapping) -> tuple[tuple[Word, int], ...]:
    return tuple(sorted((tuple(w), int(s)) for w, s in _pairs(mapping)))


def _least_window(window: int, mapping):
    """Sorted pairs of a map of every admissible window, at its least window:
    while each two windows that differ only in their last symbol write one
    symbol, drop that symbol (sound on an irreducible shift, where every word
    extends).  Sorted windows give sorted prefixes, which a dict keeps."""
    pairs = _sorted_pairs(mapping)
    while window > 1:
        shorter = {}
        if any(shorter.setdefault(w[:-1], s) != s for w, s in pairs):
            break
        window, pairs = window - 1, tuple(shorter.items())
    return window, pairs


def _raw_code(source, target, window, mapping, inverse_window, inverse_mapping) -> BlockCode:
    return BlockCode(source, target, *_least_window(window, mapping),
                     *_least_window(inverse_window, inverse_mapping))


def _composite_windows(outer: BlockCode, inner: BlockCode):
    """Each window of the composite length over ``inner.source``, in
    lexicographic order, with the symbol ``outer after inner`` writes on it.
    The walk looks each inner symbol up once per node (a node shorter than
    the window matches no key), so a leaf's image is the outer window."""
    table, m = inner._symbols, inner.window
    for word, image in walk(inner.source, EMPTY, m + outer.window - 1,
                            lambda path: table.get(tuple(path[-m:]))):
        yield word, outer._symbols[image]


def _window_name(source: TransitionMatrix, word: Word, window: int) -> str:
    """The least window extending ``word`` by least successors, named by
    :func:`word_name`: the first ``window`` symbols of ``representative``'s point."""
    point = representative(source, word)
    return word_name(lambda p: point.symbol(p + 1), window)


def _check_block_map(source: TransitionMatrix, target: TransitionMatrix,
                     window: int, mapping) -> None:
    # The declared admissible windows, sorted, go through partition's scan,
    # which names the first repeated one.  No declared window extends the
    # first cylinder it finds uncovered, so the cylinder's least extension
    # is the first missing window, and sorts before a declared window
    # exactly when the cylinder does.  Any other key strays.
    pairs = _pairs(mapping)
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
    # Each key is one window long by now, so a leaf's image is its two windows' symbols.
    for word, (a, b) in walk(source, EMPTY, window + 1,
                             lambda path: table.get(tuple(path[-window:]))):
        if not target.entry(a, b):
            raise NotAdmissibleImage(
                f"windows of {word_name(word)} map to the forbidden transition {a} -> {b}")


def make_code(source: TransitionMatrix, target: TransitionMatrix, window: int,
              mapping, inverse_window: int, inverse_mapping) -> BlockCode:
    """Validate a block map plus inverse as a conjugacy.

    Each map, a ``{window: symbol}`` mapping or ``(window, symbol)`` pairs,
    must declare every admissible window once and nothing else, produce
    admissible transitions, and compose to the identity in both
    directions.  Each map is kept at its least window, and one depth-first
    walk per direction, in lexicographic order, checks that each composite
    window of those goes round to its first symbol; a failure is named at
    the declared length ``window + inverse_window - 1``.  The windows are
    never listed, so memory stays O(``window + inverse_window``).
    """
    for name, value in (("window", window), ("inverse window", inverse_window)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    mapping, inverse_mapping = _sorted_pairs(mapping), _sorted_pairs(inverse_mapping)
    _check_block_map(source, target, window, mapping)
    _check_block_map(target, source, inverse_window, inverse_mapping)
    code = _raw_code(source, target, window, mapping, inverse_window, inverse_mapping)
    inverse = code.inverse()
    for first, second in ((code, inverse), (inverse, code)):
        for word, symbol in _composite_windows(second, first):
            if symbol != word[0]:
                name = _window_name(first.source, word, window + inverse_window - 1)
                raise NotInverse(f"round trip sends the window {name} to {symbol}, not {word[0]}")
    return code


def identity_code(matrix: TransitionMatrix) -> BlockCode:
    table = {(a,): a for a in matrix.symbols()}
    return _raw_code(matrix, matrix, 1, table, 1, table)


def relabel_code(matrix: TransitionMatrix, target: TransitionMatrix, perm: dict[int, int]) -> BlockCode:
    """One-block relabeling along a graph isomorphism ``perm``."""
    table = {(a,): perm[a] for a in matrix.symbols()}
    inverse = {(perm[a],): a for a in matrix.symbols()}
    return make_code(matrix, target, 1, table, 1, inverse)


def compose_codes(outer: BlockCode, inner: BlockCode) -> BlockCode:
    """The code ``outer after inner``; windows add up (minus one) at most.

    Not validated as a conjugacy.  When one side is the identity code the
    result is the other code, as it is.  Otherwise each table is read off
    the walk that :func:`make_code`'s round trip takes, one entry per
    composite window, and kept at its least window, so a composite that is
    the identity map is :func:`identity_code`.
    """
    if inner.target != outer.source:
        raise ValueError("codes do not chain")
    if outer == identity_code(outer.source):
        return inner
    if inner == identity_code(inner.source):
        return outer
    return _raw_code(inner.source, outer.target,
                     inner.window + outer.window - 1, dict(_composite_windows(outer, inner)),
                     outer.inverse_window + inner.inverse_window - 1,
                     dict(_composite_windows(inner.inverse(), outer.inverse())))


def higher_block_codes(matrix: TransitionMatrix, m: int):
    """The m-block presentation with its encode / decode conjugacies, as codes.

    New symbols are the admissible length-``m`` words in lexicographic
    order; block ``w`` is followed by ``w[1:] + (a,)`` for each successor
    ``a`` of its last symbol.  Returns ``(block_matrix, encode_code,
    decode_code)`` where the encode code reads windows of length ``m`` and
    the decode code projects each block symbol to its first letter.  The
    pair is a conjugacy by construction, so it is not re-validated.
    """
    if m < 1:
        raise ValueError("block length must be >= 1")
    blocks = enumerate_words(matrix, m)
    index = {w: i + 1 for i, w in enumerate(blocks)}
    rows = []
    for w in blocks:
        row = [0] * len(blocks)
        for a in matrix.followers[w[-1]]:
            row[index[w[1:] + (a,)] - 1] = 1
        rows.append(tuple(row))
    block_matrix = TransitionMatrix(len(blocks), tuple(rows))
    decode_table = {(i,): w[0] for w, i in index.items()}
    encode = _raw_code(matrix, block_matrix, m, index, 1, decode_table)
    return block_matrix, encode, encode.inverse()


def higher_block(matrix: TransitionMatrix, m: int):
    """The m-block presentation with its encode / decode conjugacies.

    Returns ``(block_matrix, encode, decode)`` where encode and decode map
    points and are mutually inverse; see :func:`higher_block_codes`,
    which builds the presentation.
    """
    block_matrix, encode, decode = higher_block_codes(matrix, m)
    return block_matrix, encode.encode, decode.encode
