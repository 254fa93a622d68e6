"""Shared test helpers: start child Python processes on the package under test."""

import os
import random
import subprocess
import sys

import shiftgroups
from shiftgroups.formats import format_matrix, format_table, format_word
from shiftgroups.selftest import FULL_TWO, MATRICES, random_table
from shiftgroups.tables import validate_table

# The directory holding the ``shiftgroups`` package this process imported.
# A child started from another cwd cannot resolve a relative PYTHONPATH
# entry such as ``src``, and might otherwise import an installed copy.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(shiftgroups.__file__)))


def run_python(*args, cwd=None):
    """Run ``python *args`` with ``PACKAGE_ROOT`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (PACKAGE_ROOT, env.get("PYTHONPATH")) if entry)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=env)


def run_cli(*args, cwd=None):
    """Run ``python -m shiftgroups *args`` on the package under test."""
    return run_python("-m", "shiftgroups", *args, cwd=cwd)


def deep_exchange(k):
    """The table on the full 2-shift swapping ``2`` with ``1^k 2``: k+2
    entries, the deepest ``k + 1`` symbols long."""
    ones = (1,) * k
    entries = [((2,), ones + (2,)), (ones + (2,), (2,)), (ones + (1,), ones + (1,))]
    entries += [((1,) * j + (2,), (1,) * j + (2,)) for j in range(1, k)]
    return validate_table(FULL_TWO, entries)


def stage_split_pairs(seed, count=45):
    """``count`` seeded ``(matrix, A, B)`` draws of two random tables, over the
    three selftest matrices in turn: the map ``A``, then ``B``, can be written
    as ``A``, a code, ``B`` or as the one table ``B A``."""
    rng = random.Random(seed)
    for i in range(count):
        matrix = MATRICES[i % len(MATRICES)][1]
        yield matrix, random_table(matrix, rng), random_table(matrix, rng)


def write_chain(directory, h):
    """``h`` as ``h.coe`` with its matrix and table files; returns the path."""
    def block_map(mapping):
        return "{ " + " ".join(f"{format_word(w)} -> {a}" for w, a in mapping) + " }"

    (directory / "A.mks").write_text(format_matrix(h.source), encoding="utf-8")
    (directory / "B.mks").write_text(format_matrix(h.target), encoding="utf-8")
    (directory / "pre.tbl").write_text(format_table(h.pre), encoding="utf-8")
    (directory / "post.tbl").write_text(format_table(h.post), encoding="utf-8")
    core = h.core
    (directory / "h.coe").write_text(
        "coe A.mks B.mks\npre-table pre.tbl\n"
        f"code {core.window} {block_map(core.mapping)} "
        f"inverse {core.inverse_window} {block_map(core.inverse_mapping)}\n"
        "post-table post.tbl\n", encoding="utf-8")
    return str(directory / "h.coe")
