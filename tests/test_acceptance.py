"""Acceptance criteria, one test per criterion, exact tolerances.

Every check is an exact integer or structural equality (tolerance zero).
Each criterion prints one PASS line on success; run with ``pytest -s``
to see them live.  The module took 27 s on a 2-vCPU x86-64 virtual
machine with Python 3.11.7 (``pytest tests/test_acceptance.py
--durations=4``), 18 s of it in criterion 10, which runs ``selftest``
twice in child processes.
"""

from conftest import run_cli
from shiftgroups.selftest import (
    suite_af_agreement,
    suite_cocycle_identity,
    suite_conjugacy_detection,
    suite_commutant,
    suite_gauge_weights,
    suite_golden_values,
    suite_group_laws,
    suite_padding,
    suite_transfer,
)

SEED = 7


def report(number, result):
    line = f"criterion-{number} {result.line()}"
    print(line)
    assert result.ok, line


def test_criterion_1_group_laws():
    """200 seeded tables per matrix: group axioms and swap involutions."""
    report(1, suite_group_laws(SEED, 200))


def test_criterion_2_cocycle_identity():
    """100 seeded triples per matrix: composition and inverse rules."""
    report(2, suite_cocycle_identity(SEED, 100))


def test_criterion_3_padding_invariance():
    """50 refined presentations: exponent difference and transfer agree."""
    report(3, suite_padding(SEED, 50))


def test_criterion_4_af_agreement():
    """100 tables per matrix: weight-1 membership is the no-drift group."""
    report(4, suite_af_agreement(SEED, 100))


def test_criterion_5_gauge_weights():
    """100 pairs: entrywise phase exponents and the fixed-point criterion."""
    report(5, suite_gauge_weights(SEED, 100))


def test_criterion_6_golden_values(tmp_path):
    """Hand-derived transfer values, in the library and over the CLI."""
    report(6, suite_golden_values(SEED, 1))
    from shiftgroups.formats import format_function, format_matrix, format_table
    from shiftgroups.functions import indicator
    from shiftgroups.sft import validate_matrix
    from shiftgroups.tables import prefix_swap

    golden_mean = validate_matrix([[1, 1], [1, 0]])
    (tmp_path / "G.mks").write_text(format_matrix(golden_mean), encoding="utf-8")
    (tmp_path / "chi1.fn").write_text(
        format_function(indicator(golden_mean, (1,))), encoding="utf-8")
    (tmp_path / "tau0.tbl").write_text(
        format_table(prefix_swap(golden_mean, 1, 2)), encoding="utf-8")
    result = run_cli("rho", "G.mks", "chi1.fn", "tau0.tbl", cwd=tmp_path)
    assert result.returncode == 0
    assert result.stdout == "function\n1.1 0\n1.2 1\n2 -1\n"
    print("criterion-6 PASS rho-cli (bit-exact output)")


def test_criterion_7_transfer_identities():
    """50 seeded chain/table/potential draws: every transfer identity."""
    report(7, suite_transfer(SEED, 50))


def test_criterion_8_conjugacy_detection():
    """20 conjugacies recognized; 20 twists certified with obstructions."""
    report(8, suite_conjugacy_detection(SEED, 1))


def test_criterion_9_commutant_witnesses():
    """10 non-identity self maps separated; identity returns nothing."""
    report(9, suite_commutant(SEED, 1))


def test_criterion_10_determinism():
    """Two selftest runs with one seed give byte-identical reports."""
    first = run_cli("selftest", "--seed", "7")
    second = run_cli("selftest", "--seed", "7")
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stderr == second.stderr
    assert first.stdout.endswith("ALL PASS\n")
    print("criterion-10 PASS determinism (byte-identical selftest reports)")
