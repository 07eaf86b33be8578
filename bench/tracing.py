"""Spans around the library's layers, recorded from outside the library.

Each layer is one ``hilb2`` module.  :func:`install` replaces every public
function of a layer module with a timing wrapper in *every* ``hilb2``
module that binds it (``cli`` and ``monodromy`` import many functions by
name, so patching the defining module alone would miss those calls), plus
a few substantial methods of the layers' classes.  The library's code is
not changed; :func:`install` returns a function that puts everything back.

A span records its name, parent, start and end.  Self time is a span's
duration minus the durations of its child spans, so the self times of all
spans plus the time outside every span add up to the traced wall time.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "serialize", "hilbcover", "permgroup", "fpgroup", "tables",
          "monodromy")

# Methods wrapped besides the module-level functions.  The per-element
# accessors (GroupTable.mul, Permutation.__call__ and the like) are left
# alone: they run millions of times and a span around each would cost
# more than the work it measures.
METHODS = {
    "tables": {"GroupTable": ("__post_init__", "abelian_invariants",
                              "quotient_by", "commutator_subgroup",
                              "abelianized_invariants", "small_generating_set",
                              "subgroup_closure")},
    "permgroup": {"Group": ("is_abelian", "is_subgroup_of")},
}
# Span names that differ from "<layer>.<Class>.<method>".
RENAMED = {"tables.GroupTable.__post_init__": "tables.GroupTable"}


def _generate_counts(args, kwargs, group):
    gens = set(args[0] if args else kwargs["gens"])
    return {"elements": len(group), "compositions": len(group) * len(gens)}


def _construction_counts(args, kwargs, result):
    gset = args[0] if args else kwargs["gset"]
    return {"squared_points": 2 * gset.size ** 2}


# Work counts derived from a call's inputs and output, by span name.
COUNTERS = {
    "serialize.emit": lambda a, k, text: {"bytes": len(text.encode())},
    "hilbcover.build_construction": _construction_counts,
    "permgroup.generate": _generate_counts,
    "fpgroup.parse_presentation": lambda a, k, p: {
        "letters": sum(len(w) for w in p.relators)},
    "fpgroup.coset_enumeration": lambda a, k, t: {"index": t.index},
    "fpgroup.subgroups_of_abelian": lambda a, k, subs: {"subgroups": len(subs)},
    "tables.GroupTable": lambda a, k, _: {"cells": len(a[0].table) ** 3},
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


class Recorder:
    """Collects spans, per-name statistics and escaping errors in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.errors: dict[str, Counter] = {layer: Counter() for layer in LAYERS}
        self._stack: list[list] = []  # [span id, name, layer, child seconds]
        self._depth: Counter = Counter()

    def wrap(self, name: str, layer: str, fn):
        counter = COUNTERS.get(name)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(self.spans) + len(stack), name, layer, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                if parent is None or parent[2] != layer:
                    self.errors[layer][type(error).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                stats = self.stats[name]
                stats.calls += 1
                stats.self_s += duration - frame[3]
                if not depth[name]:
                    stats.total_s += duration
                if parent is not None:
                    parent[3] += duration
                self.spans.append((frame[0], parent and parent[0], name,
                                   start, end))
            if counter is not None:
                stats.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stats in self.stats.items():
            out[name.split(".", 1)[0]] += stats.self_s
        return out


def install(recorder: Recorder):
    """Wrap every layer function wherever ``hilb2`` binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "hilb2" or n.startswith("hilb2.")]
    undo = []
    for layer in LAYERS:
        module = importlib.import_module(f"hilb2.{layer}")
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            wrapper = recorder.wrap(f"{layer}.{attr}", layer, fn)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, bound, wrapper)
                        undo.append((m, bound, fn))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                fn = vars(cls)[method]
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method,
                        recorder.wrap(RENAMED.get(name, name), layer, fn))
                undo.append((cls, method, fn))

    def restore() -> None:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return restore


def count_mul_calls(run) -> int:
    """Run ``run()`` with ``Permutation.__mul__`` counted; return the count."""
    from hilb2.permgroup import Permutation
    original = Permutation.__mul__
    calls = 0

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    Permutation.__mul__ = counted
    try:
        run()
    finally:
        Permutation.__mul__ = original
    return calls
