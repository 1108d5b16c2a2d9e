"""Boundary tracer for one qtab process.

Each module of the ``qtab`` package is a layer.  ``Tracer.install`` wraps the
names in every module's ``__all__`` (and the public methods and arithmetic
operators of its public classes) in a timing span, then rebinds every alias of
a wrapped object held by any ``qtab`` module, so that ``from .x import y``
bindings go through the wrapper too.  Generator functions are timed per
``next()``.  Spans are aggregated in memory per (caller layer, callee layer,
function), so millions of calls stay bounded, and ``dump`` writes them out as
JSON when the process ends.

Nothing here depends on private names of the package: a public name that a
later version removes is simply not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "polynomial",
    "permutation",
    "tableau",
    "rsk",
    "stats",
    "jsets",
    "containment",
    "limits",
    "cli",
)
# pseudo-layers: time outside every span (interpreter start, imports, launcher)
# and the tracer's own bookkeeping
STARTUP = "startup"
TRACE = "trace"

# Operators do the polynomial kernel's work, so they are spans like public methods.
TRACED_DUNDERS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__str__"}
)
# Layers whose calls are checked against earlier arguments for repeat_ratio.
REPEAT_LAYERS = frozenset({"stats", "tableau"})
SCALED_VALUE_FUNCS = frozenset({"t_scaled_value", "a_scaled_value"})


def partition_count(n: int) -> int:
    """Number of partitions of n (Euler's pentagonal recurrence)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def bits(value) -> int:
    """Largest numerator or denominator bit length of an exact number, else 0."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return value.bit_length()
    return 0


class Tracer:
    """Span aggregation for the calls of one process."""

    def __init__(self, started: float):
        self.started = started
        # frames of open spans: [layer, time covered by child spans]
        self.stack: list[list] = []
        # (caller, callee, function) -> [calls, yields, total_s, self_s]
        self.spans: dict[tuple[str, str, str], list] = {}
        self.root_s = 0.0
        self.trace_s = 0.0
        self.counters = {
            "stats.partitions_summed": 0,
            "stats.result_bits_max": 0,
            "limits.result_bits_max": 0,
            "polynomial.terms_max": 0,
            "jsets.cuts_kept": 0,
            "containment.checked": 0,
            "containment.failures": 0,
        }
        self.seen = {layer: set() for layer in REPEAT_LAYERS}
        self.repeats = {layer: 0 for layer in REPEAT_LAYERS}
        self.keyed = {layer: 0 for layer in REPEAT_LAYERS}
        self._poly_type = None
        self._poly_terms = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public name of every layer and rebind all aliases."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"qtab.{layer}")
            except ImportError:
                continue
        poly_type = getattr(modules.get("polynomial"), "BivarPoly", None)
        if poly_type is not None and hasattr(poly_type, "sorted_terms"):
            # kept unwrapped: bookkeeping must not open spans of its own
            self._poly_type, self._poly_terms = poly_type, poly_type.sorted_terms
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if obj is None or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    replacements[id(obj)] = self._wrap(layer, name, obj)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "qtab":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, label, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, label, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(layer, label, raw))

    def _wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn)
        stack, record = self.stack, self._record

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else STARTUP
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                record(caller, layer, name, start, end, frame[1], 1, 0, args, None, False)
                raise
            end = perf_counter()
            stack.pop()
            record(caller, layer, name, start, end, frame[1], 1, 0, args, result, True)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, layer: str, name: str, fn):
        stack, record = self.stack, self._record

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else STARTUP
            start = perf_counter()
            inner = fn(*args, **kwargs)
            end = perf_counter()
            record(caller, layer, name, start, end, 0.0, 1, 0, args, None, False)
            return _TracedIterator(inner, layer, name, stack, record)

        return functools.update_wrapper(traced, fn)

    # -- bookkeeping ----------------------------------------------------------

    def _record(self, caller, layer, name, start, end, child, calls, yields, args, result, observe):
        elapsed = end - start
        key = (caller, layer, name)
        entry = self.spans.get(key)
        if entry is None:
            entry = self.spans[key] = [0, 0, 0.0, 0.0]
        entry[0] += calls
        entry[1] += yields
        entry[2] += elapsed
        entry[3] += elapsed - child
        if observe or (calls and layer in REPEAT_LAYERS):
            self._observe(caller, layer, name, args, result, observe)
        done = perf_counter()
        self.trace_s += done - end
        if self.stack:
            self.stack[-1][1] += done - start
        else:
            self.root_s += done - start

    def _observe(self, caller, layer, name, args, result, returned) -> None:
        counters = self.counters
        if layer in REPEAT_LAYERS:
            self.keyed[layer] += 1
            seen = self.seen[layer]
            try:
                # the hash, not the arguments: keeping them alive would grow the
                # process and its exit far beyond the untraced run's
                key = hash((name, args))
            except TypeError:
                key = None
            if key is not None:
                if key in seen:
                    self.repeats[layer] += 1
                else:
                    seen.add(key)
        if not returned:
            return
        if layer == "stats":
            counters["stats.result_bits_max"] = max(counters["stats.result_bits_max"], bits(result))
            if name in SCALED_VALUE_FUNCS and args and isinstance(args[0], int):
                counters["stats.partitions_summed"] += partition_count(args[0])
        elif layer == "limits":
            counters["limits.result_bits_max"] = max(counters["limits.result_bits_max"], bits(result))
        elif layer == "jsets" and name in ("j_set", "j2_set") and isinstance(result, frozenset):
            # cuts tested are counted from the calls jsets makes (run.py)
            counters["jsets.cuts_kept"] += len(result)
        elif layer == "containment" and caller != "containment":
            checked = getattr(result, "checked", None)
            failures = getattr(result, "failures", None)
            if isinstance(checked, int) and isinstance(failures, list):
                counters["containment.checked"] += checked
                counters["containment.failures"] += len(failures)
        if (
            self._poly_type is not None
            and caller != layer
            and isinstance(result, self._poly_type)
        ):
            # a polynomial crossing a layer boundary: count its terms
            counters["polynomial.terms_max"] = max(
                counters["polynomial.terms_max"], len(self._poly_terms(result))
            )

    # -- output -----------------------------------------------------------------

    def summary(self, finished: float) -> dict:
        """Aggregated spans and counters; self times cover the whole process."""
        spans = [
            {
                "caller": caller,
                "callee": callee,
                "function": name,
                "calls": calls,
                "yields": yields,
                "total_s": total,
                "self_s": self_s,
            }
            for (caller, callee, name), (calls, yields, total, self_s) in sorted(self.spans.items())
        ]
        return {
            "wall_s": finished - self.started,
            "startup_self_s": (finished - self.started) - self.root_s,
            "trace_self_s": self.trace_s,
            "spans": spans,
            "counters": dict(self.counters),
            "repeats": dict(self.repeats),
            "keyed": dict(self.keyed),
        }

    def dump(self, path: str) -> None:
        summary = self.summary(perf_counter())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)


class _TracedIterator:
    """Times each ``next()`` of a wrapped generator as one span."""

    __slots__ = ("_inner", "_layer", "_name", "_stack", "_record")

    def __init__(self, inner, layer, name, stack, record):
        self._inner = inner
        self._layer = layer
        self._name = name
        self._stack = stack
        self._record = record

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._stack
        caller = stack[-1][0] if stack else STARTUP
        frame = [self._layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            value = next(self._inner)
        except BaseException:  # StopIteration included: the span still counts
            end = perf_counter()
            stack.pop()
            self._record(caller, self._layer, self._name, start, end, frame[1], 0, 0, None, None, False)
            raise
        end = perf_counter()
        stack.pop()
        self._record(caller, self._layer, self._name, start, end, frame[1], 0, 1, None, None, False)
        return value
