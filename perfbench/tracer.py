"""Spans and exact counters around barhom's public functions, from outside.

``Tracer.install()`` replaces every public function of the barhom layer
modules, and a few named methods, with a wrapper.  A function is replaced
both where it is defined and under every name another barhom module imported
it as (``barhom.homotopy.ez`` as well as ``barhom.shuffles.ez``), so calls
that go through either name are seen.  Nothing under ``src/`` changes.

Two kinds of wrapper exist:

* a span wrapper records ``(name, start, end, parent)`` for each call and
  adds the call's self time (its duration minus that of its child spans) to
  the function's total;
* a count wrapper only counts calls.  It is used for functions called
  hundreds of thousands of times per operation (``COUNT_ONLY`` and the
  products in ``METHODS``), where a span per call would cost more than the
  work it measures.  Their time stays in the self time of the spanned
  caller: the time of ``TowerAlgebra.mul`` shows up in
  ``shuffles.mult_map``.

Generator functions get count wrappers too, since a span would close when
the generator is created rather than when it is drained; their work is
self time of the function that drains them (``homotopy_P`` drains
``p_cylinder_data``).

Spans are kept in memory and written out by ``write_spans`` at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("homotopy", "shuffles", "cylinder", "moore", "words", "quintuple", "groups", "bounds", "cli")

# Public functions that are counted but get no span: those called more than
# 100k times in one operation of some workload, where a span per call would
# cost more than the work it measures, and the helpers of chain_to_json,
# whose time is meant to stay in its self time.
COUNT_ONLY = {
    "moore.face",
    "moore.is_degenerate",
    "shuffles.shuffle_sign",
    "words.gen",
    "words.stable",
    "words.mitosis_reduce",
    "words.word_to_json",
    "moore.simplex_to_json",
    "moore.term_sort_key",
}

# Methods traced by name; each maps to the metric prefix it reports under.
# Entry-algebra and group products are counted only: they are the innermost
# operations, called once per entry of every term built.
METHODS = {
    ("moore", "Chain", "__sub__"): ("moore.chain_sub", "span"),
    ("homotopy", "MitosisTower", "psi"): ("homotopy.tower.psi", "span"),
    ("words", "TowerAlgebra", "mul"): ("words.TowerAlgebra.mul", "count"),
    ("quintuple", "QuintupleAlgebra", "mul"): ("quintuple.QuintupleAlgebra.mul", "count"),
    ("groups", "FreeGroup", "mul"): ("groups.FreeGroup.mul", "count"),
    ("groups", "CyclicGroup", "mul"): ("groups.CyclicGroup.mul", "count"),
    ("groups", "SymmetricGroup", "mul"): ("groups.SymmetricGroup.mul", "count"),
    ("groups", "DirectProduct", "mul"): ("groups.DirectProduct.mul", "count"),
}


def _size(chain) -> int:
    """Number of distinct terms of any of barhom's chain types."""
    terms = getattr(chain, "terms", None)
    return len(terms) if terms is not None else len(chain)


def _l1(chain) -> int:
    terms = getattr(chain, "terms", None)
    values = terms.values() if terms is not None else (c for _s, c in chain)
    return sum(abs(c) for c in values)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``barhom.cli`` so that the
    CLI's own ``json.dumps`` calls get a span, while the ``json.dumps``
    calls of other modules (the sort keys in ``moore``) do not."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Installs wrappers into the barhom modules and collects what they see."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []

    # -- wrappers ---------------------------------------------------------

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn):
        clock = time.perf_counter
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, name]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans[frame[0]] = (name, start, end, parent[0] if parent else -1)
            if after is not None:
                after(result, parent[2] if parent else None)
            return result

        return spanned

    def _hooks(self, name: str):
        """Exact counts taken at a span boundary, outside the span itself."""
        counts = self.counts

        if name == "moore.chain_sub":
            def before(args):
                counts["moore.chain_sub.terms_copied"] += _size(args[0])
            return before, None

        if name == "homotopy.tower.psi":
            def before(args):
                tower, level, sigma = args[0], args[1], args[2]
                counts["homotopy.tower.lookups"] += 1
                if (level, sigma) in getattr(tower, "_cache", {}):
                    counts["homotopy.tower.cache_hits"] += 1
            return before, None

        if name == "homotopy.induct_Q":
            def after(result, parent):
                counts["homotopy.induct_Q.terms_out"] += _size(result)
                counts["induct_Q.kept"] += _l1(result)
            return None, after

        if name in ("homotopy.homotopy_P", "shuffles.mult_map", "shuffles.ez"):
            def after(result, parent):
                counts[f"{name}.terms_out"] += _size(result)
                if parent == "homotopy.induct_Q" and name != "shuffles.ez":
                    counts["induct_Q.emitted"] += _l1(result)
            return None, after

        return None, None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"barhom.{layer}") for layer in LAYERS}
        package = importlib.import_module("barhom")
        replaced = {}   # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                plain = getattr(obj, "__wrapped__", obj)
                if name in COUNT_ONLY or inspect.isgeneratorfunction(plain):
                    replaced[id(obj)] = self._count(name, obj)
                else:
                    replaced[id(obj)] = self._span(name, obj)
        # rebind every module-level name that refers to a wrapped function
        for module in (*modules.values(), package):
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        for (layer, cls_name, method), (name, kind) in METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if fn is None:
                continue   # renamed or removed: its metrics read zero
            wrap = self._span if kind == "span" else self._count
            setattr(cls, method, wrap(name, fn))
        cli = modules["cli"]
        real_json = getattr(cli, "json", None)
        if real_json is not None:
            cli.json = _JsonProxy(real_json, self._span("cli.json_dumps", real_json.dumps))

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per traced name, exact counts, and the
        per-layer totals of self time."""
        layers: defaultdict = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "layer_self_s": dict(layers),
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
