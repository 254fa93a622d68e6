"""Growth pinned by counts, not by timings.

Each test counts the work one kernel does on a doubling ladder of inputs
and bounds it by a formula in the input size.  Counts are deterministic,
so a bound on them is exact on any machine, where a wall-time bound on a
shared machine is flaky.
"""

import pytest
from conftest import deep_exchange

from shiftgroups import codes
from shiftgroups.orbit import coe_from_chain


@pytest.mark.parametrize("k", [25, 50, 100, 200])
def test_deep_swap_streams_each_window_once(k, monkeypatch):
    """The windows that pass through ``BlockCode.apply_word`` while the chain
    map of ``deep_exchange(k)`` is built and its ``k1`` read.

    The code stage writes each entry's target word through the code, about
    k * k / 2 windows over the k + 2 entries; each entry of a walk streams
    its part once, and its nodes extend that word without re-reading it.
    Re-streaming each part from its root at every node costs about
    3 * k * k / 2 windows and fails the bound.
    """
    windows = 0
    apply_word = codes.BlockCode.apply_word

    def counted(code, word):
        nonlocal windows
        windows += max(len(word) - code.window + 1, 0)
        return apply_word(code, word)

    monkeypatch.setattr(codes.BlockCode, "apply_word", counted)
    coe_from_chain([deep_exchange(k)]).k1
    assert windows <= k * k // 2 + 4 * k
