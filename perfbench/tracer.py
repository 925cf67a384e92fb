"""Spans and work counts around the public functions of fairmatch, installed
from outside the package.

A function is often bound under several names (``max_flow`` is imported into
``mechanism`` and ``cli``, ``expand_nodes`` into ``matching``), and callers
inside the package look it up through their own module.  ``install`` therefore
replaces every ``fairmatch.*`` module attribute that *is* one of the original
function objects, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("instance", "matching", "flows", "mechanism", "oracle", "cli")

# Per-element helpers: a span around each call would cost more than the call
# and would move their time out of the layer that calls them.
UNTRACED = {"canonical_edge", "format_rational", "parse_rational"}


def _copy_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["instance.expand_nodes.copy_nodes"] += sum(len(c) for c in result.copies.values())
    tracer.counts["instance.expand_nodes.copy_edges"] += len(result.edges)


def _arc_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["flows.max_flow.arcs"] += len(args[0].arcs)
    if tracer.depth["mechanism.egalitarian_profile"]:
        tracer.counts["mechanism.egalitarian_profile.max_flow"] += 1


def _member_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["flows.decompose_max_flow.members"] += len(result.entries)


def _matching_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["oracle.enumerate_bmatchings.matchings"] += len(result)


def _denominator(tracer: "Tracer", args, result) -> None:
    top = max((x.denominator for x in result.values.values()), default=1)
    key = "mechanism.profile.max_denominator"
    tracer.counts[key] = max(tracer.counts[key], top)


COUNTERS = {
    "instance.expand_nodes": _copy_counts,
    "flows.max_flow": _arc_counts,
    "flows.decompose_max_flow": _member_counts,
    "oracle.enumerate_bmatchings": _matching_counts,
    "mechanism.egalitarian_profile": _denominator,
}


def traced_functions(package) -> dict[str, object]:
    """Span name -> original function, for the public functions each layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
                and name not in UNTRACED
            ):
                found[f"{layer}.{name}"] = value
    return found


class Tracer:
    """Self time and calls per span name, plus the work counts in ``COUNTERS``.

    Self time is a span's duration minus the durations of its child spans.
    ``root_s`` sums the outermost spans, so ``root_s`` over the op wall time
    is the share of op time that falls inside a span.
    """

    def __init__(self, package):
        self.package = package
        self.originals = traced_functions(package)
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.depth: Counter[str] = Counter()
        self.root_s = 0.0
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self.originals.items()}

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        children = self._children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            self.depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.depth[name] -= 1
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.root_s += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - inner
            if counter is not None:
                counter(self, args, result)
            return result

        return span

    def install(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.package.__name__
                or module_name.startswith(self.package.__name__ + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)
