"""Per-layer spans, recorded from outside the package.

``install`` wraps every public function of each layer module, and the
method ``BlockCode.apply_word``, in a recording wrapper.  Modules import
each other's names with ``from .x import y``, so each wrapper is bound in
every ``shiftgroups`` module namespace that holds the original object.
``uninstall`` puts the originals back.

Each call becomes a span: layer, function, start, end, parent span and
request id.  Spans stay in memory and are written out by ``write_spans``.
Aggregates are kept as the spans close:

* ``busy`` counts outermost spans only (no open span of the same layer,
  or of the same function, above it), so recursion is not counted twice;
* ``self`` is a span's duration minus the durations of its direct child
  spans, summed over the spans of the layer or function;
* ``raised`` counts exceptions leaving the layer: raised by an outermost
  span of that layer;
* ``items`` counts parts, pieces, entries or windows in returned values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

from shiftgroups.codes import BlockCode
from shiftgroups.functions import LocFun
from shiftgroups.orbit import CoeMap
from shiftgroups.sft import CylinderPartition
from shiftgroups.tables import TableElement
from shiftgroups.transducer import Transducer

LAYERS = ("formats", "sft", "functions", "tables", "cocycles", "codes",
          "transducer", "orbit", "conjugacy")

# (metric, unit) for every layer, then for the known hot boundaries.
LAYER_METRICS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                 ("items_out", "count"), ("raised", "count"))
FUNCTION_METRICS = (
    ("sft.refine", "calls", "count"), ("sft.refine", "self_s", "s"),
    ("sft.refine", "parts_out", "count"), ("sft.refine", "pairs_in", "count"),
    ("sft.partition", "calls", "count"), ("sft.partition", "self_s", "s"),
    ("functions.birkhoff", "calls", "count"), ("functions.birkhoff", "busy_s", "s"),
    ("functions.birkhoff", "copies_in", "count"),
    ("functions.compose_shift", "calls", "count"), ("functions.compose_shift", "busy_s", "s"),
    ("tables.validate_table", "calls", "count"), ("tables.validate_table", "self_s", "s"),
    ("tables.validate_table", "entries_out", "count"),
    ("tables.compose", "busy_s", "s"),
    ("tables.apply", "calls", "count"), ("tables.apply", "self_s", "s"),
    ("cocycles.rho", "calls", "count"), ("cocycles.rho", "busy_s", "s"),
    ("codes.compose_codes", "calls", "count"), ("codes.compose_codes", "busy_s", "s"),
    ("codes.compose_codes", "windows_out", "count"),
    ("codes.higher_block_codes", "busy_s", "s"),
    ("codes.apply_word", "calls", "count"),
    ("transducer.transducer_equal", "calls", "count"),
    ("transducer.transducer_equal", "busy_s", "s"),
    ("transducer.pullback", "busy_s", "s"),
    ("orbit.coe_from_chain", "calls", "count"), ("orbit.coe_from_chain", "busy_s", "s"),
    ("orbit.psi", "busy_s", "s"),
    ("formats.load_coe", "self_s", "s"),
    ("conjugacy.witness_non_conjugacy", "busy_s", "s"),
    ("conjugacy.witness_non_conjugacy", "witnesses_out", "count"),
    ("conjugacy.commutant_witness", "busy_s", "s"),
    ("conjugacy.commutant_witness", "tables_out", "count"),
)
# Wasted work: calls made under a search per useful result it returned.
RATIO_METRICS = (
    ("conjugacy.chains_per_witness", "chains/witness",
     "conjugacy.witness_non_conjugacy", "orbit.coe_from_chain", "witnesses_out"),
    ("conjugacy.candidates_per_witness", "candidates/table",
     "conjugacy.commutant_witness", "transducer.transducer_equal", "tables_out"),
)
# The traced pass itself: its size, and its time against the untraced pass
# of the same requests.
TRACE_METRICS = (("trace.requests", "count"), ("trace.spans", "count"),
                 ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
                 ("trace.overhead_ratio", "ratio"))
TIME_METRICS = frozenset({"busy_s", "self_s"})


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{layer}.{name}", unit) for layer in LAYERS for name, unit in LAYER_METRICS]
    out += [(f"{function}.{name}", unit) for function, name, unit in FUNCTION_METRICS]
    out += [(name, unit) for name, unit, *_ in RATIO_METRICS]
    return out + list(TRACE_METRICS)


def count_items(value) -> int:
    """Parts, pieces, entries or windows in a returned value."""
    if isinstance(value, LocFun):
        return len(value.pieces)
    if isinstance(value, TableElement):
        return len(value.entries)
    if isinstance(value, Transducer):
        return len(value.entries)
    if isinstance(value, CoeMap):
        return len(value.transducer.entries)
    if isinstance(value, CylinderPartition):
        return len(value.parts)
    if isinstance(value, BlockCode):
        return len(value.mapping) + len(value.inverse_mapping)
    if isinstance(value, str):
        return value.count("\n")
    if isinstance(value, (list, tuple)):
        if not value:
            return 0
        first = value[0]
        if isinstance(first, int):
            return 0  # a single word
        if isinstance(first, tuple) and (not first or isinstance(first[0], int)):
            return len(value)  # a family of words
        return sum(count_items(v) for v in value)
    if isinstance(value, dict):
        return len(value)
    return 0


def _inputs(function: str, args) -> dict:
    """Input-size counters at the hot boundaries."""
    if function == "sft.refine":
        return {"pairs_in": len(args[0].parts) * len(args[1].parts)}
    if function == "functions.birkhoff":
        return {"copies_in": max(0, args[1].max_value())}
    return {}


def _outputs(function: str, result) -> dict:
    if function == "sft.refine":
        return {"parts_out": len(result.parts)}
    if function == "tables.validate_table":
        return {"entries_out": len(result.entries)}
    if function == "codes.compose_codes":
        return {"windows_out": len(result.mapping) + len(result.inverse_mapping)}
    if function == "conjugacy.witness_non_conjugacy":
        return {"witnesses_out": int(result is not None)}
    if function == "conjugacy.commutant_witness":
        return {"tables_out": int(result is not None)}
    return {}


class Tracer:
    """Span recorder and aggregator for one traced pass."""

    def __init__(self):
        self.request = -1
        self.spans: list = []
        self._stack: list = []  # [span id, time covered by direct children]
        self._layer_open: dict = defaultdict(int)
        self._function_open: dict = defaultdict(int)
        self.layer = {layer: defaultdict(float) for layer in LAYERS}
        self.function: dict = defaultdict(lambda: defaultdict(float))
        self.nested: dict = defaultdict(int)  # (outer function, inner function) -> calls

    def call(self, layer: str, function: str, original, args, kwargs):
        outermost_layer = self._layer_open[layer] == 0
        outermost_function = self._function_open[function] == 0
        for outer in _OUTERS.get(function, ()):
            if self._function_open[outer]:
                self.nested[(outer, function)] += 1
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        self._layer_open[layer] += 1
        self._function_open[function] += 1
        raised = True
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
            raised = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._layer_open[layer] -= 1
            self._function_open[function] -= 1
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            own = duration - frame[1]
            self.spans[span_id] = (span_id, parent, self.request, layer, function,
                                   start, end, int(raised))
            stats = self.layer[layer]
            stats["calls"] += 1
            stats["self_s"] += own
            if outermost_layer:
                stats["busy_s"] += duration
                stats["raised"] += raised
            fstats = self.function[function]
            fstats["calls"] += 1
            fstats["self_s"] += own
            if outermost_function:
                fstats["busy_s"] += duration
            if function in _COUNTED:
                for name, value in _inputs(function, args).items():
                    fstats[name] += value
        self.layer[layer]["items_out"] += count_items(result)
        if function in _COUNTED:
            for name, value in _outputs(function, result).items():
                self.function[function][name] += value
        return result

    def metrics(self, time_factor: float = 1.0) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``; times are
        multiplied by ``time_factor``."""
        out = {}
        for layer in LAYERS:
            for name, unit in LAYER_METRICS:
                value = self.layer[layer][name]
                out[f"{layer}.{name}"] = (value * time_factor if name in TIME_METRICS
                                          else int(value), unit)
        for function, name, unit in FUNCTION_METRICS:
            value = self.function[function][name]
            out[f"{function}.{name}"] = (value * time_factor if name in TIME_METRICS
                                         else int(value), unit)
        for name, unit, outer, inner, base in RATIO_METRICS:
            results = self.function[outer][base]
            calls = self.nested[(outer, inner)]
            out[name] = (calls / results if results else 0.0, unit)
        return out


_OUTERS: dict = defaultdict(tuple)
for _, _, _outer, _inner, _ in RATIO_METRICS:
    _OUTERS[_inner] += (_outer,)
_OUTERS = dict(_OUTERS)
_COUNTED = frozenset(function for function, name, _ in FUNCTION_METRICS
                     if name not in TIME_METRICS and name != "calls")


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


def _wrapper(tracer: Tracer, layer: str, function: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, function, original, args, kwargs)

    return wrapper


def install(tracer: Tracer) -> list:
    """Bind recording wrappers everywhere the originals are bound; returns
    the patches for ``uninstall``."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"shiftgroups.{layer}")
        for name, original in _public_functions(module):
            wrapper = _wrapper(tracer, layer, f"{layer}.{name}", original)
            wrappers[id(original)] = (original, wrapper)
    patches = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "shiftgroups" and not module_name.startswith("shiftgroups."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])
    original = BlockCode.__dict__["apply_word"]
    patches.append((BlockCode, "apply_word", original))
    BlockCode.apply_word = _wrapper(tracer, "codes", "codes.apply_word", original)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("span\tparent\trequest\tlayer\tfunction\tstart\tend\traised\n")
        for span in tracer.spans:
            handle.write("\t".join(str(v) for v in span) + "\n")
