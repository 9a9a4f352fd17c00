"""Spans around calls into the package, recorded from outside it.

``install`` wraps the public functions and methods of each module (the
layers), plus the operator methods of the value types and the CLI's command
handlers, and rebinds every module-level reference to them, so calls made
inside the package are traced too.  A span is (name, parent span, operation,
start, end); spans live in flat arrays until the run writes them out.  The
package itself is not changed on disk and carries no tracing code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import sys
import time
from array import array
from enum import Enum
from fractions import Fraction

LAYERS = ("exactnum", "fib", "quat", "fibquat", "clifford", "cli")

OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__bool__",
    "__lt__", "__le__", "__gt__", "__ge__",
})

# CLI internals traced by name: the command handlers are what the CLI does
# besides parsing, and they are private.
CLI_HANDLERS = ("_cmd_", "_render_report")

THRESHOLDS = ("fibquat.invertibility_threshold", "fibquat.horadam_invertibility_threshold")
PARSE = ("cli.build_parser", "cli.parse_args")
CLIFFORD_MUL = "clifford.CliffordElement.__mul__"
WITNESS = "quat.zero_divisor_witness"

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "exactnum.qsqrt5_ops": "count",
    "exactnum.qsqrt5_ms": "ms",
    "exactnum.wire_ms": "ms",
    "fib.calls": "count",
    "fib.ms": "ms",
    "quat.mul_calls": "count",
    "quat.norm_calls": "count",
    "quat.ms": "ms",
    "quat.witness_candidates": "count",
    "quat.witness_ms": "ms",
    "fibquat.growth_profile_calls": "count",
    "fibquat.indices_checked": "count",
    "fibquat.certify_ms": "ms",
    "fibquat.horizon_sum": "count",
    "fibquat.max_coeff_bits": "bits",
    "clifford.classify_self_ms": "ms",
    "clifford.isomorphism_ms": "ms",
    "clifford.blade_products": "count",
    "clifford.product_ms": "ms",
    "clifford.stored_coeffs": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.render_ms": "ms",
    "trace.span_coverage": "ratio",
    "trace.overhead": "ratio",
}


def _bits(value) -> int:
    """Largest bit length among the integers that make up a result."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    parts = getattr(value, "coeffs", None)
    if parts is None and hasattr(value, "a") and hasattr(value, "b"):
        parts = (value.a, value.b)
    if isinstance(parts, (tuple, list)):
        return max((_bits(p) for p in parts), default=0)
    return 0


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self.horizon_sum = 0
        self.indices_checked = 0
        self.max_coeff_bits = 0
        self.stored_coeffs = 0
        self._stack = [-1]

    def _hook(self, name: str):
        if name in THRESHOLDS:
            def hook(cert):
                # a certificate vouches for the sign at every index 0..horizon
                self.horizon_sum += cert.horizon
                self.indices_checked += cert.horizon + 1
        elif name.startswith("fibquat."):
            def hook(value):
                self.max_coeff_bits = max(self.max_coeff_bits, _bits(value))
        elif name == CLIFFORD_MUL:
            def hook(element):
                self.stored_coeffs += len(element.coeffs)
        else:
            return None
        return hook

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock, hook, tracer = self._stack, time.perf_counter_ns, self._hook(name), self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": (self.name, self.parent, self.op, self.start, self.end),
            "horizon_sum": self.horizon_sum,
            "indices_checked": self.indices_checked,
            "max_coeff_bits": self.max_coeff_bits,
            "stored_coeffs": self.stored_coeffs,
        }


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for name, member in list(vars(cls).items()):
        if name.startswith("_") and name not in OPERATORS:
            continue
        label = f"{layer}.{cls.__name__}.{name}"
        if isinstance(member, (classmethod, staticmethod)):
            setattr(cls, name, type(member)(tracer.wrap(label, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, name, tracer.wrap(label, member))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables and rebind all references to them."""
    modules = {layer: importlib.import_module(f"fibclifford.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                if not attr.startswith("_") or (layer == "cli" and attr.startswith(CLI_HANDLERS)):
                    wrapped[value] = tracer.wrap(f"{layer}.{attr}", value)
            elif (inspect.isclass(value) and not attr.startswith("_")
                  and not issubclass(value, (Enum, BaseException))):
                _wrap_class(tracer, layer, value)
    modules["cli"]._Parser.parse_args = tracer.wrap("cli.parse_args", argparse.ArgumentParser.parse_args)
    for name, module in list(sys.modules.items()):
        if name != "fibclifford" and not name.startswith("fibclifford."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])


class Summary:
    """Per-layer totals over one or more traces."""

    def __init__(self) -> None:
        self.totals = {name: 0 for name in PER_LAYER}
        self.covered_ns = 0
        self.op_wall_ns = 0
        # entry span name -> [time covered by its child spans, its duration]
        self.by_entry: dict[str, list[int]] = {}

    def add(self, trace: dict, op_wall_ns: int) -> None:
        names = trace["names"]
        name, parent, _, start, end = trace["spans"]
        n = len(start)
        dur = [end[i] - start[i] for i in range(n)]
        children = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]] += dur[i]
        count = [0] * len(names)
        inclusive = [0] * len(names)
        self_ns = [0] * len(names)
        for i in range(n):
            k = name[i]
            count[k] += 1
            inclusive[k] += dur[i]
            self_ns[k] += dur[i] - children[i]
        ids = {label: k for k, label in enumerate(names)}

        def ids_where(pred):
            return [k for k, label in enumerate(names) if pred(label)]

        def has_ancestor(i, targets):
            p = parent[i]
            while p >= 0:
                if name[p] in targets:
                    return True
                p = parent[p]
            return False

        def total(values, pred):
            return sum(values[k] for k in ids_where(pred))

        t = self.totals
        ms = 1e-6
        t["exactnum.qsqrt5_ops"] += total(count, lambda s: s.startswith("exactnum.QSqrt5."))
        t["exactnum.qsqrt5_ms"] += total(self_ns, lambda s: s.startswith("exactnum.QSqrt5.")) * ms
        t["exactnum.wire_ms"] += total(inclusive, lambda s: s in ("exactnum.parse_rat", "exactnum.format_rat")) * ms
        t["fib.calls"] += total(count, lambda s: s.startswith("fib."))
        t["fib.ms"] += total(self_ns, lambda s: s.startswith("fib.")) * ms
        t["quat.mul_calls"] += total(count, lambda s: s == "quat.Quaternion.__mul__")
        t["quat.norm_calls"] += total(count, lambda s: s == "quat.Quaternion.norm")
        t["quat.ms"] += total(self_ns, lambda s: s.startswith("quat.")) * ms
        t["quat.witness_ms"] += total(inclusive, lambda s: s == WITNESS) * ms
        t["fibquat.growth_profile_calls"] += total(count, lambda s: s == "fibquat.growth_profile")
        t["fibquat.certify_ms"] += total(inclusive, lambda s: s in THRESHOLDS) * ms
        t["clifford.classify_self_ms"] += total(self_ns, lambda s: s == "clifford.classify") * ms
        t["clifford.isomorphism_ms"] += total(inclusive, lambda s: s == "clifford.quaternion_isomorphism") * ms
        t["clifford.blade_products"] += total(count, lambda s: s == "clifford.blade_product")
        t["cli.parse_ms"] += total(inclusive, lambda s: s in PARSE) * ms
        t["cli.render_ms"] += total(self_ns, lambda s: s.startswith(tuple("cli." + h for h in CLI_HANDLERS))) * ms

        norm_id, witness_id = ids.get("quat.Quaternion.norm"), ids.get(WITNESS)
        mul_id = ids.get(CLIFFORD_MUL)
        for i in range(n):
            k = name[i]
            if k == norm_id and parent[i] >= 0 and name[parent[i]] == witness_id:
                t["quat.witness_candidates"] += 1
            elif k == mul_id and not has_ancestor(i, {mul_id}):
                t["clifford.product_ms"] += dur[i] * ms
            if parent[i] < 0:
                self.covered_ns += children[i]
                entry = self.by_entry.setdefault(names[k], [0, 0])
                entry[0] += children[i]
                entry[1] += dur[i]
        t["fibquat.horizon_sum"] += trace["horizon_sum"]
        t["fibquat.indices_checked"] += trace["indices_checked"]
        t["fibquat.max_coeff_bits"] = max(t["fibquat.max_coeff_bits"], trace["max_coeff_bits"])
        t["clifford.stored_coeffs"] += trace["stored_coeffs"]
        self.op_wall_ns += op_wall_ns

    def coverage_by_entry(self) -> dict[str, float]:
        """Share of each kind of operation that spans below its entry span cover."""
        return {name: covered / total for name, (covered, total) in sorted(self.by_entry.items())
                if total}

    def metrics(self, interpreter_ms: float, import_ms: float, overhead: float) -> dict:
        values = dict(self.totals)
        values["cli.interpreter_ms"] = interpreter_ms
        values["cli.import_ms"] = import_ms
        values["trace.span_coverage"] = self.covered_ns / self.op_wall_ns if self.op_wall_ns else 0.0
        values["trace.overhead"] = overhead
        return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
