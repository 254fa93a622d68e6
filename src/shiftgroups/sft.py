"""One-sided shift spaces of finite type, exactly.

A shift space is the set of right-infinite symbol sequences allowed by a
0/1 transition matrix.  Everything downstream computes over three finite
stand-ins for that space:

* admissible words (finite allowed blocks),
* eventually periodic points ``u|w`` meaning the sequence u www... , and
* complete prefix-free families of words, which partition the space into
  cylinders.

Words are walked depth first, in lexicographic order, in two ways: the
fixed-depth :func:`walk` yields the extensions of one length, and the
settle-walk :func:`refine_until` refines each cylinder, however deep, until
its caller decides it, stepping each child's state from its parent's.

A sorted word family is read in one pass, :func:`family_defects`, which
decides both whether it partitions the space and whether a block map
declares every window once.

Values on the parts of a sorted partition reach canonical form by one sibling
merge, :func:`merge_siblings`, whose caller says when a family may collapse
into its parent.  Each matrix keeps one table of follower rows,
``TransitionMatrix.followers``, by the letter before (0 at the start of a
word), with equal rows one tuple: the walks and the merge read its rows, and
the table checks compare two rows with ``is``.  Families stay sorted, so a
longest-prefix lookup is one bisection, :func:`prefix_of`.

Points, like tables and functions, have a validating and a trusted
constructor.  :func:`canonicalize_point` checks a point's transitions once,
where its text or a caller hands it in; :func:`canonical_point` only brings
a point the library built itself to canonical form.  The shift, the table
action, block codes and :func:`representative` build admissible points by
construction, so they take the trusted one.

Symbols are the integers ``1..n``.  Words are plain tuples of symbols; the
empty tuple is the empty word.  All values here are immutable and all
operations are pure, so everything is safe to share between threads.

Every value class of the package, here and in the layers above, derives
from one small base, :class:`Value`: its fields are its annotations, and
they alone make its ``==``, ``hash`` and ``repr``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from itertools import compress
from math import inf

from .errors import BadPartition, Inadmissible, NotZeroOne, Permutation, Reducible

Word = tuple[int, ...]

EMPTY: Word = ()


class Value:
    """Immutable value whose fields are its class body's annotations, in order.

    A subclass is built from its fields, positionally; then its
    ``__post_init__``, if it has one, runs.  ``==`` compares the fields of
    two instances of one class (another class gets ``NotImplemented``),
    ``hash`` is the hash of the fields' tuple and ``repr`` reads
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    :class:`AttributeError`.  What a subclass derives from its fields, set
    through ``object.__setattr__`` or a ``cached_property``, is not a field:
    ``==``, ``hash`` and ``repr`` never see it.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # ``__init__``, ``__eq__`` and ``__hash__`` are written out for the
        # fields, as ``dataclasses`` writes a frozen class's: loops over the
        # field names cost about twice as much.  ``__init__`` stores through
        # ``object.__setattr__``; filling ``__dict__`` at once would make every
        # field read slower.
        super().__init_subclass__()
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        mine, theirs = ("".join(f"{side}.{name}, " for name in names)
                        for side in ("self", "other"))
        sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        methods = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):{sets}{post}\n"
             "def __eq__(self, other):\n"
             "    if other.__class__ is self.__class__:\n"
             f"        return ({mine}) == ({theirs})\n"
             "    return NotImplemented\n"
             f"def __hash__(self):\n    return hash(({mine}))\n", methods)
        for name in ("__init__", "__eq__", "__hash__"):
            methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, methods[name])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TransitionMatrix(Value):
    """Validated irreducible, non-permutation 0/1 transition matrix.

    An edge ``i -> j`` exists when ``rows[i-1][j-1] == 1``.  Use
    :func:`validate_matrix` to construct one; the constructor itself does
    not re-check the invariants.

    ``followers[b]`` is the tuple of letters allowed after ``b`` and
    ``followers[0]`` every symbol.  Equal rows are one tuple, so letters
    share a row exactly when ``followers[a] is followers[b]``.  It is not a
    field: ``==``, ``hash`` and ``repr`` see only ``n`` and ``rows``.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Equal follower rows are interned into one tuple.  The letter table
        # gives the letter after each allowed one, 0 before the first and after
        # the last; the predecessor rows are the columns, read as rows.
        symbols, interned = self.symbols(), {}
        followers = tuple([interned.setdefault(r, r) for r in [
            tuple(symbols), *[tuple(compress(symbols, row)) for row in self.rows]]])
        object.__setattr__(self, "followers", followers)
        object.__setattr__(self, "_after", tuple([dict(zip((0,) + r, r + (0,))) for r in followers]))
        object.__setattr__(self, "_predecessors", tuple(
            [tuple(compress(symbols, column)) for column in zip(*self.rows)]))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def symbols(self) -> range:
        return range(1, self.n + 1)

    def successors(self, a: int) -> tuple[int, ...]:
        return self.followers[a]

    def predecessors(self, a: int) -> tuple[int, ...]:
        return self._predecessors[a - 1]

    def is_admissible(self, word: Iterable[int]) -> bool:
        word = tuple(word)
        if word and not (min(word) >= 1 and max(word) <= self.n):
            return False
        return all(map(dict.__contains__, map(self._after.__getitem__, word[:-1]), word[1:]))

    def check_admissible(self, word: Word) -> None:
        if not self.is_admissible(word):
            raise Inadmissible(f"word {word_name(word)} is not admissible")

    def extensions(self, word: Word) -> tuple[Word, ...]:
        """All one-symbol extensions ``word + (a,)`` that stay admissible."""
        return tuple(word + (a,) for a in self.followers[word[-1] if word else 0])


def validate_matrix(grid) -> TransitionMatrix:
    """Validate a square integer grid as a transition matrix.

    Raises :class:`NotZeroOne`, :class:`Reducible` (not strongly
    connected) or :class:`Permutation` (all row sums 1) with the first
    failing reason, in that order.
    """
    rows = tuple(tuple(row) for row in grid)
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise ValueError("grid must be square with n >= 1")
    for row in rows:
        try:
            if {0, 1}.issuperset(row):
                continue
        except TypeError:  # an unhashable entry; the loop names the first bad one
            pass
        for v in row:
            if v not in (0, 1):
                raise NotZeroOne(f"entry {v!r} is not 0 or 1")
    matrix = TransitionMatrix(n, rows)
    # Irreducible: every symbol reaches every symbol by a path of length >= 1.
    # Forward, then backward from 1 (seeded with its neighbours): once 1 reaches
    # all, a symbol reaches all exactly when it reaches 1.
    for backward, row in enumerate((matrix.followers.__getitem__, matrix.predecessors)):
        seen = set(row(1))
        frontier = list(seen)
        while frontier:
            for b in row(frontier.pop()):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if len(seen) != n:
            least = min(set(matrix.symbols()) - seen) if backward else 1
            raise Reducible(f"symbol {least} does not reach every symbol")
    if all(sum(row) == 1 for row in rows):
        raise Permutation("all row sums are 1")
    return matrix


def word_name(word, length: int | None = None) -> str:
    """``word`` for a message: in full up to 64 symbols, past that by its first and
    last four and its length.  With ``length``, ``word`` gives the symbol at each index."""
    at, length = (word.__getitem__, len(word)) if length is None else (word, length)
    if length <= 64:
        return str(tuple(map(at, range(length))))
    head, tail = (", ".join(str(at(p)) for p in part)
                  for part in (range(4), range(length - 4, length)))
    return f"({head}, ..., {tail}) of {length} symbols"


def enumerate_words(matrix: TransitionMatrix, m: int) -> list[Word]:
    """All admissible words of length ``m`` in lexicographic order."""
    if m < 0:
        raise ValueError("length must be >= 0")
    return expand_to_depth(matrix, EMPTY, m)


# -- eventually periodic points ------------------------------------------


def primitive_root(word: Word) -> Word:
    """Shortest word whose repetition gives ``word``."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[:p] * (n // p):
            return word[:p]
    return word


class Point(Value):
    """Eventually periodic point ``transient . cycle^infinity``, canonical.

    Canonical means the cycle is primitive and the transient cannot be
    shortened by absorbing its last symbol into the cycle.  Two inputs
    describe the same infinite sequence exactly when their canonical
    forms are equal, so ``==`` is sequence equality.  Build instances with
    :func:`canonicalize_point` (validating) or :func:`canonical_point`
    (trusting points the library built).
    """

    matrix: TransitionMatrix
    transient: Word
    cycle: Word

    def symbol(self, i: int) -> int:
        """The ``i``-th symbol, 1-indexed."""
        if i < 1:
            raise ValueError(f"symbol index {i} is not >= 1")
        u, w = self.transient, self.cycle
        if i <= len(u):
            return u[i - 1]
        return w[(i - 1 - len(u)) % len(w)]

    def prefix(self, m: int) -> Word:
        """The first ``m`` symbols: the transient and enough cycles, sliced."""
        u, w = self.transient, self.cycle
        return (u + w * -((len(u) - m) // len(w)))[:max(m, 0)]

    def starts_with(self, word: Word) -> bool:
        return self.prefix(len(word)) == word

    def is_fixed(self) -> bool:
        return not self.transient and len(self.cycle) == 1


def canonicalize_point(matrix: TransitionMatrix, transient: Word, cycle: Word) -> Point:
    """Canonical point equal to the sequence transient cycle cycle ...

    Raises :class:`Inadmissible` when any transition inside or between
    the two words (including the cycle wrap-around) is forbidden.  The
    validating constructor, for points read or handed in; the library
    builds its own through :func:`canonical_point`.
    """
    u, w = tuple(transient), tuple(cycle)
    if not w:
        raise Inadmissible("cycle word must be nonempty")
    if not matrix.is_admissible(u + w + w[:1]):
        raise Inadmissible(f"point {word_name(u)}|{word_name(w)} is not admissible")
    return canonical_point(matrix, u, w)


def canonical_point(matrix: TransitionMatrix, transient: Word, cycle: Word) -> Point:
    """Canonical point of an admissible transient and nonempty cycle, not
    re-checked: the cycle's primitive root, with every last symbol of the
    transient that the cycle, rotated back, repeats absorbed into it.

    For points the library built itself; input goes through
    :func:`canonicalize_point`.
    """
    w = primitive_root(cycle)
    n, k = len(w), len(transient)
    while k and transient[k - 1] == w[(k - len(transient) - 1) % n]:
        k -= 1
    r = (len(transient) - k) % n
    return Point(matrix, transient[:k], w[n - r:] + w[:n - r])


def shift_point(point: Point) -> Point:
    """Drop the first symbol: the image of the point under the shift map."""
    return shift_point_n(point, 1)


def shift_point_n(point: Point, n: int) -> Point:
    """The shift applied ``n`` times, in one step.

    A canonical point stays canonical: the shift either cuts a prefix off
    its transient, whose last symbol still differs from the cycle's, or
    rotates its primitive cycle.  ``n <= 0`` returns the point.
    """
    if n <= 0:
        return point
    u, w = point.transient, point.cycle
    if n <= len(u):
        return Point(point.matrix, u[n:], w)
    r = (n - len(u)) % len(w)
    return Point(point.matrix, EMPTY, w[r:] + w[:r])


def prepend_point(word: Word, point: Point) -> Point:
    """The point ``word`` followed by the given point; ``word`` must lead into
    it (not re-checked)."""
    return canonical_point(point.matrix, word + point.transient, point.cycle)


def representative(matrix: TransitionMatrix, word: Word) -> Point:
    """Deterministic canonical point whose sequence starts with ``word``.

    Walks past the word by always taking the least admissible successor;
    the cycle closes as soon as the walk would revisit a symbol it chose
    itself.  Symbols inside ``word`` were forced, not chosen, so they
    never close the cycle.
    """
    word = tuple(word)
    matrix.check_admissible(word)
    path = list(word)
    forced = len(path)
    if not path:
        path.append(1)
    while True:
        nxt = matrix.successors(path[-1])[0]
        if nxt in path[forced:]:
            i = forced + path[forced:].index(nxt)
            return canonical_point(matrix, tuple(path[:i]), tuple(path[i:]))
        path.append(nxt)


# -- cylinder partitions ---------------------------------------------------


def prefix_of(items, word: Word, key=None):
    """The item of a sorted prefix-free family whose word (``key(item)``,
    or the item itself) is a prefix of ``word``; None when there is none.

    Every word sorting between a prefix of ``word`` and ``word`` extends
    that prefix, so only the greatest member at most ``word`` can match.
    """
    i = bisect_right(items, word, key=key)
    if i:
        item = items[i - 1]
        member = item if key is None else key(item)
        if word[: len(member)] == member:
            return item
    return None


def part_at(items, point: Point, depth: int, key=None):
    """The item of a complete sorted prefix-free family whose cylinder
    holds the point; ``depth`` is the family's longest word length."""
    item = prefix_of(items, point.prefix(depth), key)
    if item is None:
        raise AssertionError("complete partition failed to cover a point")
    return item


def cylinder_run(items, word: Word, key=None):
    """The items of a sorted family whose words extend ``word``: one run,
    from ``word`` up to ``word + (inf,)``, which sorts after them all."""
    i = bisect_left(items, word, key=key)
    return items[i: bisect_left(items, word + (inf,), i, key=key)]


def refine_until(matrix: TransitionMatrix, roots, decide, step=None):
    """Refine words until ``decide`` settles each cylinder.

    ``roots`` holds ``(word, state)`` pairs, ``state`` a tuple.
    ``decide(word, *state)`` returns None while the cylinder of ``word`` is
    undecided; the walk then tries every admissible one-symbol extension ``child``,
    with the state ``step(child, *state)`` (the same state when there is no
    ``step``).  Yields ``(word, answer)`` for each settled cylinder, depth first,
    from an explicit stack, so word depth is not bounded by the recursion limit.
    """
    followers, stack = matrix.followers, list(reversed(roots))
    while stack:
        word, state = stack.pop()
        answer = decide(word, *state)
        if answer is None:
            for a in reversed(followers[word[-1] if word else 0]):
                child = word + (a,)
                stack.append((child, state if step is None else step(child, *state)))
        else:
            yield word, answer


def walk(matrix: TransitionMatrix, word: Word, depth: int, symbol=None):
    """``(w, image)`` for each admissible extension ``w`` of ``word`` that is
    ``depth`` symbols long (``word`` alone at a depth up to ``len(word)``),
    in lexicographic order.  ``image`` holds what ``symbol(path)`` returned,
    less Nones, at the nodes below ``word`` on the way to ``w``.  Depth
    first on one path and one image list, cut and extended in place, so
    memory is O(``depth``); ``symbol`` runs once per node, and must not keep
    or change ``path``, the walk's own list.
    """
    if depth <= len(word):
        yield word, ()
        return
    followers, path, image = matrix.followers, list(word), []
    # One (children, len(image) above them) pair per level below ``word``.
    pending = [(iter(followers[word[-1] if word else 0]), 0)]
    while pending:
        children, cut = pending[-1]
        for a in children:
            path.append(a)
            if symbol is not None and (s := symbol(path)) is not None:
                image.append(s)
            if len(path) < depth:
                pending.append((iter(followers[a]), len(image)))
                break
            yield tuple(path), tuple(image)
            path.pop()
            del image[cut:]
        else:
            pending.pop()
            if pending:
                path.pop()
                del image[pending[-1][1]:]


class CylinderPartition(Value):
    """Complete prefix-free family of admissible words, sorted.

    Every allowed infinite sequence starts with exactly one member, so
    the member cylinders partition the shift space.  The empty word is
    allowed only as the sole member (the trivial partition).
    """

    matrix: TransitionMatrix
    parts: tuple[Word, ...]

    def locate(self, point: Point) -> Word:
        """The unique part whose cylinder contains the point."""
        return part_at(self.parts, point, max(map(len, self.parts)))


def family_defects(matrix: TransitionMatrix, parts) -> tuple[str | None, Word | None]:
    """The first repeat-or-prefix message and the first uncovered cylinder of
    a sorted word family, each in sorted order and None when there is none;
    raises :class:`Inadmissible` at the first inadmissible member.

    One pass decides.  Sorted, a complete prefix-free family is the leaf
    order of a full prefix tree (equality in Kraft's inequality): the first
    member is a chain of first letters; each later one is the next cylinder
    after its predecessor (its trailing last letters dropped, the letter
    before them stepped to its next successor) followed only by first
    letters; after the last nothing is left to step.  Only a member that
    breaks this rule is checked, and the pass goes on from it.  No member
    extends the uncovered cylinder, so over the sorted admissible windows of
    a block map it leads to the first missing window, its least extension.
    """
    after = matrix._after
    clash = gap = None
    # The next member must read prev[:i], then s, then first letters; s is 0
    # when nothing is left to step.  0 is no symbol: no member extends (0,).
    prev, i, s = (0,), 0, after[0][0]
    for word in parts:
        e = s
        if s and word[:i] == prev[:i]:
            for b in word[i:]:
                if b != e:
                    break
                e = after[b][0]
            else:
                e = None
        if e is not None:
            matrix.check_admissible(word)
            if word[: len(prev)] == prev:
                clash = clash or (f"word {word_name(word)} repeats" if word == prev else
                                  f"{word_name(prev)} is a prefix of {word_name(word)}")
            elif gap is None:  # where word leaves the rule, the expected letter's cylinder
                j, e = i, s
                while word[:i] == prev[:i] and word[j] == e:
                    j, e = j + 1, after[e][0]
                gap = prev[:i] + word[i:j] + (e,)
        prev, i = word, len(word) - 1
        while i > 0 and not after[word[i - 1]][word[i]]:
            i -= 1
        s = after[word[i - 1] if i > 0 else 0][word[i]] if word else 0
    return clash, gap or (prev[:i] + (s,) if s else None)


def family_error(matrix: TransitionMatrix, parts) -> str | None:
    """The first defect of a sorted word family, in sorted order: a repeat or a
    prefix, else an uncovered cylinder (:func:`family_defects`); None when it
    partitions the space.  Raises :class:`Inadmissible` first, at the first
    inadmissible member."""
    if not parts:
        return "a partition needs at least one part"
    clash, gap = family_defects(matrix, parts)
    return clash or gap and f"no part covers sequences through {word_name(gap)}"


def partition(matrix: TransitionMatrix, parts: Iterable[Word]) -> CylinderPartition:
    """Validate a word family as a cylinder partition: sorted once and read in
    one pass (:func:`family_error`), raising :class:`Inadmissible` or
    :class:`BadPartition`."""
    parts = tuple(sorted(map(tuple, parts)))
    if error := family_error(matrix, parts):
        raise BadPartition(error)
    return CylinderPartition(matrix, parts)


def merge_siblings(matrix: TransitionMatrix, items, lift) -> tuple:
    """Canonical form of ``(word, value)`` items, sorted by word, whose words
    partition the space: every full sibling family that lifts to one value
    collapses into its parent, bottom up.

    ``lift(word, value)`` is the value the parent of ``word`` would carry,
    or None when that member cannot merge.  A family merges when every
    member lifts to the same value.  One stack pass decides, with no sort.
    Everything under a word sorts directly after it, so once a family's
    greatest member is on top, after its own subtree merged, the family can
    only be the top items.  Each push checks the family it completes, and
    each merge the family its parent completes: by the last letter of the
    follower row of the letter before, then that row's size (an empty row
    completes none).  Returns the merged items, sorted.
    """
    followers, stack = matrix.followers, []
    for item in items:
        stack.append(item)
        while True:
            word, value = stack[-1]
            if not word:
                break
            row = followers[word[-2] if len(word) > 1 else 0]
            if not row or word[-1] != row[-1] or len(stack) < (size := len(row)):
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


def refine(p: CylinderPartition, q: CylinderPartition) -> CylinderPartition:
    """Coarsest common refinement of two partitions over the same matrix
    (see :func:`refine_words`)."""
    if p.matrix != q.matrix:
        raise ValueError("partitions live over different matrices")
    return CylinderPartition(p.matrix, refine_words(p.matrix, [p.parts, q.parts]))


def refine_words(matrix: TransitionMatrix, families: Iterable[Iterable[Word]]) -> tuple[Word, ...]:
    """Common refinement of several partitions, given as raw word families.

    Each family must be complete and prefix-free, as every
    :class:`CylinderPartition` is.  Then each part of one family meets
    another in its own cylinder or in a finer one, so the refinement is
    the union of all families without the words that are prefixes of
    others.  In sorted order every word's extensions follow it directly,
    so a word is dropped exactly when it is a prefix of the next one.
    For families that do not cover the space the result is not a
    refinement.  The empty word stands for the trivial partition, so no
    families refine to it.
    """
    words = sorted({EMPTY}.union(*families))
    out = [a for a, b in zip(words, words[1:]) if b[: len(a)] != a]
    out.append(words[-1])
    return tuple(out)


def expand_to_depth(matrix: TransitionMatrix, word: Word, depth: int) -> list[Word]:
    """The admissible extensions of ``word`` of length ``depth`` (``word``
    alone when it is that long already), as a list (see :func:`walk`)."""
    return [w for w, _ in walk(matrix, word, depth)]

