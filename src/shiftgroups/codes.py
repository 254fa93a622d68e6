"""Invertible sliding block codes between shift spaces.

A code reads a window of ``window`` consecutive symbols and emits one
target symbol per position (no memory, anticipation ``window - 1``), so
it commutes with the shifts by construction.  Codes here are always
homeomorphisms: each carries the symbol map of its inverse, and
validation checks exactly that the two maps invert each other.

Every code is kept at the least window of each map (a map that reads
only its first ``m`` symbols is the same code at window ``m``), so two
codes are the same map exactly when they are ``==``.  Each matrix keeps its
identity code beside its follower rows, built on the first
:func:`identity_code` call and not a field.
"""

from __future__ import annotations

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


def _sorted_pairs(mapping) -> tuple[tuple[Word, int], ...]:
    """The ``(window, symbol)`` pairs of a mapping, or the pairs as given
    with repeats kept, sorted: the form the block-map check and the trim read."""
    pairs = mapping.items() if hasattr(mapping, "items") else mapping
    return tuple(sorted([(tuple(w), int(s)) for w, s in pairs]))


def _least_window(window: int, pairs):
    """Sorted pairs of a map of every admissible window, at its least window:
    while each two windows that differ only in their last symbol write one
    symbol, drop that symbol (sound on an irreducible shift, where every word
    extends).  Sorted windows give sorted prefixes, which a dict keeps."""
    while window > 1:
        shorter = {}
        if any(shorter.setdefault(w[:-1], s) != s for w, s in pairs):
            break
        window, pairs = window - 1, tuple(shorter.items())
    return window, pairs


def _raw_code(source, target, window, mapping, inverse_window, inverse_mapping) -> BlockCode:
    """The code of two valid maps, each given as sorted pairs, at its least windows."""
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
                     window: int, pairs) -> None:
    # The declared admissible windows of the sorted pairs go through
    # partition's scan, which names the first repeated one.  No declared
    # window extends the first cylinder it finds uncovered, so the cylinder's
    # least extension is the first missing window, and sorts before a
    # declared window exactly when the cylinder does.  Any other key strays.
    # A key is an admissible window when it is ``window`` letters long and each
    # letter is in the follower row of the one before (the first, in row 0);
    # ``all`` stops at the first miss, so only letters in range index a row.
    follow = source.followers
    fits = [len(w) == window and all(map(tuple.__contains__, map(follow.__getitem__, (0,) + w), w))
            for w, _ in pairs]
    windows = [w for (w, _), fit in zip(pairs, fits) if fit]
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
    if len(windows) < len(pairs):
        stray = pairs[fits.index(False)][0]
        raise NotAdmissibleImage(f"{word_name(stray)} "
                                 f"is not an admissible window of {window} symbols")
    # Each key is an admissible window by now, so the transitions are the
    # images of ``u`` and ``u[1:] + (c,)`` for each follower ``c`` of
    # ``u[-1]`` (the rows of higher_block_codes), met in the order of ``u + (c,)``.
    rows = target.rows
    for u, a in pairs:
        for c in follow[u[-1]]:
            if not rows[a - 1][(b := table[u[1:] + (c,)]) - 1]:
                raise NotAdmissibleImage(f"windows of {word_name(u + (c,))} "
                                         f"map to the forbidden transition {a} -> {b}")


def make_code(source: TransitionMatrix, target: TransitionMatrix, window: int,
              mapping, inverse_window: int, inverse_mapping) -> BlockCode:
    """Validate a block map plus inverse as a conjugacy.

    Each map, a ``{window: symbol}`` mapping or ``(window, symbol)`` pairs,
    must declare every admissible window once and nothing else, produce
    admissible transitions, and compose to the identity in both
    directions.  Each map is sorted once, and its check and trim read the
    sorted pairs; a window ``u`` and each follower ``c`` of its last symbol
    must write an allowed transition on ``u`` and ``u[1:] + (c,)``, the rows
    of :func:`higher_block_codes`.  Each map is kept at its least window, and one depth-first
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
    """The identity code of ``matrix``, built on the first call and then kept
    on the matrix as ``identity_code``, beside its follower rows (not a field)."""
    try:
        return matrix.identity_code
    except AttributeError:
        table = tuple(((a,), a) for a in matrix.symbols())
        code = BlockCode(matrix, matrix, 1, table, 1, table)
        object.__setattr__(matrix, "identity_code", code)
        return code


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
                     inner.window + outer.window - 1, tuple(_composite_windows(outer, inner)),
                     outer.inverse_window + inner.inverse_window - 1,
                     tuple(_composite_windows(inner.inverse(), outer.inverse())))


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
    encode = _raw_code(matrix, block_matrix, m, tuple(index.items()), 1,
                       tuple(decode_table.items()))
    return block_matrix, encode, encode.inverse()


def higher_block(matrix: TransitionMatrix, m: int):
    """The m-block presentation with its encode / decode conjugacies.

    Returns ``(block_matrix, encode, decode)`` where encode and decode map
    points and are mutually inverse; see :func:`higher_block_codes`,
    which builds the presentation.
    """
    block_matrix, encode, decode = higher_block_codes(matrix, m)
    return block_matrix, encode.encode, decode.encode
