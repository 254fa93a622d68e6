"""Tests of the benchmark's own machinery: seeded inputs, the request mix,
the chain writer, the oracles and the tracing wrappers."""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from shiftgroups import codes, formats, functions, selftest, tables  # noqa: E402


def _generate(workload: str, seed: int, count: int, directory) -> list:
    directory = str(directory)
    names = workloads.write_matrices(directory)
    return [workloads.generate(workload, seed, i, directory, names) for i in range(count)]


def _files(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_input_files(workload, tmp_path):
    first, again, other = tmp_path / "first", tmp_path / "again", tmp_path / "other"
    for directory, seed in ((first, 3), (again, 3), (other, 4)):
        directory.mkdir()
        _generate(workload, seed, 10, directory)
    assert _files(first) == _files(again)
    assert _files(first) != _files(other)


def test_cocycle_mix_has_one_deep_exchange_in_five():
    plans = [workloads.cocycle_plan(i) for i in range(350)]
    deep = [i for i, plan in enumerate(plans) if plan["deep_k"] is not None]
    assert deep == list(range(4, 350, 5))
    assert Counter(plans[i]["deep_k"] for i in deep) == {k: 10 for k in range(3, 10)}
    assert all(plans[i]["matrix"] == "full-2" for i in deep)
    pairs = Counter((plans[i]["deep_k"], plans[i]["op"]) for i in deep[:63])
    assert len(pairs) == 7 * 3
    shallow = Counter((p["matrix"], p["op"]) for p in plans if p["deep_k"] is None)
    assert len(shallow) == 9
    for k in (3, 9):
        assert len(workloads.deep_exchange(k).entries) == k + 2


def test_chain_mix_takes_every_fifth_chain_from_the_corpora():
    plans = [workloads.chain_plan(i) for i in range(400)]
    corpus = [i for i, plan in enumerate(plans) if plan["corpus"] is not None]
    assert corpus == list(range(4, 400, 5))
    drawn = Counter((plans[i]["corpus"], plans[i]["corpus_index"]) for i in corpus[:60])
    assert drawn == {**{("twisted", index): 1 for index in range(20)},
                     **{("conjugacy", index): 2 for index in range(20)}}
    assert all(plans[i]["op"] == "conjugacy" for i in corpus)
    shapes = Counter((p["matrix"], p["op"]) for p in plans if p["corpus"] is None)
    assert len(shapes) == 3 * len(workloads.CHAIN_OPS)


def test_group_ladder_steps_through_every_length():
    plans = [workloads.group_plan(i) for i in range(60)]
    shapes = Counter((p["op"], p["matrix"], p["length"]) for p in plans)
    assert len(shapes) == 60
    assert [plans[i]["length"] for i in range(0, 60, 12)] == [4, 5, 6, 7, 8]
    entries = [workloads.group_table(selftest.TRIANGLE, 8, workloads._rng("t", i)).entries
               for i in range(2)]
    assert all(len(e) > 300 for e in entries)


def test_chain_writer_round_trips_and_rejects_a_changed_file(tmp_path):
    generated = _generate("chain", 5, 10, tmp_path)
    for entry, h in generated:
        workloads.verify_chain(str(tmp_path), entry, h)
    entry, h = next((e, h) for e, h in generated if e["corpus"] == "twisted")
    pre = tmp_path / entry["files"]["coe"].replace(".coe", ".pre.tbl")
    pre.write_text(formats.format_table(tables.identity_table(h.source)))
    with pytest.raises(RuntimeError):
        workloads.verify_chain(str(tmp_path), entry, h)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_accept_answers_and_reject_changed_ones(workload, tmp_path):
    for entry, _ in _generate(workload, 2, 8, tmp_path):
        text, state = workloads.run_request(workload, entry, str(tmp_path))
        assert text and workloads.check(workload, entry, state)
        result = state["result"]
        if isinstance(result, functions.LocFun):
            state["result"] = result + functions.constant(result.matrix, 1)
        elif isinstance(result, tables.TableElement) and entry["op"] != "check":
            swap = tables.prefix_swap(result.matrix, *_first_pair(result.matrix))
            state["result"] = tables.compose(swap, result)
        else:
            continue
        assert not workloads.check(workload, entry, state)


def _first_pair(matrix):
    return next((a, b) for a in matrix.symbols() for b in matrix.successors(a) if a != b)


def test_untraced_requests_run_no_wrapper(tmp_path):
    generated = _generate("chain", 1, 4, tmp_path)
    entry = generated[0][0]
    before = {(name, attr): value for name, module in list(sys.modules.items())
              if name.startswith("shiftgroups") for attr, value in vars(module).items()}
    apply_word = codes.BlockCode.__dict__["apply_word"]

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        tracer.request = entry["index"]
        workloads.run_request("chain", entry, str(tmp_path))
    finally:
        spans.uninstall(patches)
    traced_calls = len(tracer.spans)
    assert traced_calls > 0
    metrics = tracer.metrics()
    assert metrics["formats.load_coe.self_s"][0] > 0
    assert metrics["orbit.coe_from_chain.calls"][0] >= 1

    for entry, _ in generated:
        workloads.run_request("chain", entry, str(tmp_path))
    assert len(tracer.spans) == traced_calls
    after = {(name, attr): value for name, module in list(sys.modules.items())
             if name.startswith("shiftgroups") for attr, value in vars(module).items()}
    assert all(after[key] is value for key, value in before.items())
    assert codes.BlockCode.__dict__["apply_word"] is apply_word


def test_benchmark_file_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = [(m["name"], m["unit"]) for m in json.load(handle)["per_layer"]]
    assert listed == spans.metric_units()
