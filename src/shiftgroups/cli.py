"""Command line interface.

Exit codes are stable API: 0 success / property true, 1 property false or
witness found, 2 input error, 3 search budget exceeded.  All output is
canonical and deterministic; the only randomness is the ``selftest`` seed
fed to Python's Mersenne Twister.
"""

from __future__ import annotations

import argparse
import sys

from .cocycles import gauge_weight, rho
from .conjugacy import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_LEVEL,
    commutant_witness,
    witness_non_conjugacy,
)
from .errors import (
    FormatError,
    NotZeroOne,
    Permutation,
    Reducible,
    SearchBudgetExceeded,
    ShiftError,
)
from .formats import (
    format_function,
    format_point,
    format_table,
    format_word,
    load_coe,
    load_function,
    load_matrix,
    load_table,
    parse_matrix_grid,
    parse_point,
    read_text,
)
from .orbit import psi, pullback_map
from .selftest import run_selftest
from .sft import EMPTY, validate_matrix, walk
from .tables import apply as table_apply, compose as table_compose, invert as table_invert
from .functions import constant, equal


def _positive_int(text: str) -> int:
    """Argument type for budgets and case counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftgroups",
        description="Exact computations in continuous full groups of "
                    "one-sided shifts of finite type.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a transition matrix file")
    p.add_argument("matrix")

    p = sub.add_parser("words", help="list admissible words of a length")
    p.add_argument("matrix")
    p.add_argument("length", type=int)

    p = sub.add_parser("table", help="table operations")
    table_sub = p.add_subparsers(dest="table_command", required=True)
    q = table_sub.add_parser("check", help="validate a table file")
    q.add_argument("matrix")
    q.add_argument("table")
    q = table_sub.add_parser("compose", help="print outer . inner")
    q.add_argument("matrix")
    q.add_argument("outer")
    q.add_argument("inner")
    q = table_sub.add_parser("invert", help="print the inverse table")
    q.add_argument("matrix")
    q.add_argument("table")
    q = table_sub.add_parser("apply", help="apply a table to a point literal")
    q.add_argument("matrix")
    q.add_argument("table")
    q.add_argument("point")

    for name, help_text in (
            ("rho", "weight transfer of a function across a table"),
            ("member", "membership in the vanishing subgroup of a weight"),
            ("weight", "gauge phase exponent of a table unitary")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("matrix")
        p.add_argument("function")
        p.add_argument("table")

    for name, help_text in (
            ("psi", "transfer a target potential through a chain map"),
            ("pullback", "pull a target function back through a chain map")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("coe")
        p.add_argument("function")

    p = sub.add_parser("conjugacy", help="decide shift commutation of a chain map")
    p.add_argument("coe")
    p.add_argument("--max-level", type=_positive_int, default=DEFAULT_MAX_LEVEL)
    p.add_argument("--max-depth", type=_positive_int, default=DEFAULT_MAX_DEPTH)

    p = sub.add_parser("commutant", help="find a table not commuting with a self map")
    p.add_argument("coe")
    p.add_argument("--max-level", type=_positive_int, default=DEFAULT_MAX_LEVEL)

    p = sub.add_parser("selftest", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=_positive_int, default=100)
    return parser


def _cmd_validate(args) -> int:
    grid = parse_matrix_grid(read_text(args.matrix))
    try:
        matrix = validate_matrix(grid)
    except (NotZeroOne, Reducible, Permutation) as exc:
        print(f"REJECTED {type(exc).__name__}: {exc}")
        return 1
    print(f"OK irreducible non-permutation n={matrix.n}")
    return 0


def _cmd_words(args) -> int:
    matrix = load_matrix(args.matrix)
    if args.length < 0:
        raise ValueError("length must be >= 0")
    for word, _ in walk(matrix, EMPTY, args.length):
        print(format_word(word))
    return 0


def _cmd_table(args) -> int:
    matrix = load_matrix(args.matrix)
    if args.table_command == "check":
        try:
            table = load_table(args.table, matrix)
        except ShiftError as exc:
            print(f"REJECTED {type(exc).__name__}: {exc}")
            return 1
        print(f"OK table with {len(table.entries)} entries")
        return 0
    if args.table_command == "compose":
        outer = load_table(args.outer, matrix)
        inner = load_table(args.inner, matrix)
        print(format_table(table_compose(outer, inner)), end="")
        return 0
    if args.table_command == "invert":
        print(format_table(table_invert(load_table(args.table, matrix))), end="")
        return 0
    table = load_table(args.table, matrix)
    point = parse_point(args.point, matrix)
    print(format_point(table_apply(table, point)))
    return 0


def _cmd_rho(args) -> int:
    matrix = load_matrix(args.matrix)
    f = load_function(args.function, matrix)
    table = load_table(args.table, matrix)
    print(format_function(rho(f, table)), end="")
    return 0


def _cmd_member(args) -> int:
    matrix = load_matrix(args.matrix)
    f = load_function(args.function, matrix)
    table = load_table(args.table, matrix)
    transfer = rho(f, table)
    if transfer.is_zero():
        print("MEMBER Gamma_{A,f}")
        return 0
    word = next(w for w, v in transfer.pieces if v != 0)
    kind = "d" if equal(f, constant(matrix, 1)) else "rho"
    print(f"NOT-MEMBER Gamma_{{A,f}}; {kind} nonzero on {format_word(word)}")
    return 1


def _cmd_weight(args) -> int:
    matrix = load_matrix(args.matrix)
    f = load_function(args.function, matrix)
    table = load_table(args.table, matrix)
    print(format_function(gauge_weight(table, f)), end="")
    return 0


def _cmd_psi(args) -> int:
    chain = load_coe(args.coe)
    g = load_function(args.function, chain.target)
    print(format_function(psi(chain, g)), end="")
    return 0


def _cmd_pullback(args) -> int:
    chain = load_coe(args.coe)
    g = load_function(args.function, chain.target)
    print(format_function(pullback_map(g, chain)), end="")
    return 0


def _cmd_conjugacy(args) -> int:
    chain = load_coe(args.coe)
    witness = witness_non_conjugacy(chain, max_level=args.max_level,
                                    max_depth=args.max_depth)
    if witness is None:
        print("CONJUGACY")
        return 0
    print("WITNESS")
    print(f"z {format_point(witness.z)}")
    print(format_function(witness.g), end="")
    print(format_table(witness.tau0), end="")
    print(f"level {witness.level}")
    return 1


def _cmd_commutant(args) -> int:
    chain = load_coe(args.coe)
    table = commutant_witness(chain, max_level=args.max_level)
    if table is None:
        print("IDENTITY")
        return 0
    print("WITNESS")
    print(format_table(table), end="")
    return 1


def _cmd_selftest(args) -> int:
    report, ok = run_selftest(args.seed, args.cases)
    print(report, end="")
    return 0 if ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "words": _cmd_words,
    "table": _cmd_table,
    "rho": _cmd_rho,
    "member": _cmd_member,
    "weight": _cmd_weight,
    "psi": _cmd_psi,
    "pullback": _cmd_pullback,
    "conjugacy": _cmd_conjugacy,
    "commutant": _cmd_commutant,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SearchBudgetExceeded as exc:
        print(f"SEARCH-BUDGET {exc}")
        return 3
    except (FormatError, ShiftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
