"""Spans around provmod's public functions, recorded from outside the program.

``install()`` replaces each traced function in every provmod module that
bound it by name, and patches ``TheoryOracle.derives`` and
``GeneratedTheory.decide`` on their classes.  It must run before the
benchmark imports its own workload code and before any model is generated,
so that every later lookup finds the wrapper.

Formula constructors (``atom``, ``imp``, ``box``, ...) and printers are not
traced: they run once per formula node, and a span there would time the
wrapper rather than the layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the benchmark op it ran under (-1 for set-up).
Spans stay in memory until ``dump``; self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

import provmod


def _module(name):
    # ``provmod.decide`` names the function once the package is imported,
    # so modules are taken from the import system, not package attributes
    return importlib.import_module(f"provmod.{name}")


formulas, kripke, theories, decide, provability, glp, interpret, docio = (
    _module(n) for n in ("formulas", "kripke", "theories", "decide",
                         "provability", "glp", "interpret", "docio"))

# (module, function) -> span name; the name's prefix is the layer
TRACED = {
    (formulas, "parse"): "formulas.parse",
    (formulas, "pre_interpolant"): "formulas.pre_interpolant",
    (formulas, "substitute"): "formulas.rewrite",
    (formulas, "skeleton"): "formulas.rewrite",
    (formulas, "outer_modal_subformulas"): "formulas.rewrite",
    (formulas, "subformulas"): "formulas.rewrite",
    (formulas, "classical_entails"): "formulas.classical_entails",
    (kripke, "forces"): "kripke.forces",
    (kripke, "veltman_forces"): "kripke.veltman_forces",
    (kripke, "veltman_forces_alt"): "kripke.veltman_forces_alt",
    (kripke, "unravelled_forces"): "kripke.unravelled_forces",
    (kripke, "unravel"): "kripke.unravel",
    (kripke, "check_frame"): "kripke.check_frame",
    (decide, "decide_k"): "decide.tableau",
    (decide, "decide_k4"): "decide.tableau",
    (decide, "decide_s4"): "decide.tableau",
    (decide, "decide_gl"): "decide.tableau",
    (decide, "decide_ilm"): "decide.decide_ilm",
    (decide, "representatives_gl"): "decide.representatives",
    (decide, "representatives_ilm"): "decide.representatives",
    (provability, "generate_gl"): "provability.generate",
    (provability, "generate_ilm"): "provability.generate",
    (provability, "pm_forces"): "provability.pm_forces",
    (provability, "pm_forces_plus"): "provability.pm_forces_plus",
    (provability, "pm_forces_rhd"): "provability.pm_forces_rhd",
    (provability, "soundness_suite"): "provability.soundness_suite",
    (provability, "countermodel_pipeline_gl"): "provability.pipeline",
    (provability, "countermodel_pipeline_ilm"): "provability.pipeline",
    (provability, "lift_kripke"): "provability.lift_kripke",
    (glp, "check_glp_model"): "glp.check_glp_model",
    (glp, "glp_soundness_suite"): "glp.glp_soundness_suite",
    (interpret, "soundness_gate"): "interpret.soundness_gate",
    (docio, "model_to_doc"): "docio.model_to_doc",
    (docio, "dumps"): "docio.dumps",
    (docio, "loads"): "docio.loads",
}
ENUM_SPAN = "decide.veltman_enum"
DERIVES_SPAN = "theories.derives"
GENERATED_DECIDE_SPAN = "provability.generated_decide"


class Tracer:
    """Holds the spans and counters of one traced process.  Span fields live
    in parallel arrays: a traced run records millions of spans."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list[int] = []
        self.op = -1
        self.enum_models = 0
        self.derives_misses = 0
        self.pre_interpolant_misses: list = []
        self._cache0 = self._cache_counts()

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def wrap_pre_interpolant(self, fn):
        info = fn.cache_info
        name_id = self._name_id("formulas.pre_interpolant")

        def traced(f):
            misses = info().misses
            idx = self._open(name_id)
            try:
                return fn(f)
            finally:
                self._close(idx)
                if info().misses != misses:
                    self.pre_interpolant_misses.append(f)
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """Time each ``next`` of the generator, not its creation."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.enum_models += 1
                yield item
        traced.__wrapped__ = fn
        return traced

    def wrap_derives(self, fn):
        name_id = self._name_id(DERIVES_SPAN)

        def traced(oracle, f):
            before = len(oracle._memo)
            idx = self._open(name_id)
            try:
                return fn(oracle, f)
            finally:
                self._close(idx)
                if len(oracle._memo) != before:
                    self.derives_misses += 1
        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [provmod, formulas, kripke, theories, decide, provability,
                   glp, interpret, docio, _module("cli")]
        for (home, attr), name in TRACED.items():
            original = getattr(home, attr)
            if attr == "pre_interpolant":
                wrapper = self.wrap_pre_interpolant(original)
            else:
                wrapper = self.wrap(name, original)
            _rebind(modules, original, wrapper)
        original = decide.enumerate_veltman_models
        _rebind(modules, original, self.wrap_generator(ENUM_SPAN, original))
        # the dispatch table of ``decide.decide`` holds the deciders directly
        for logic, fn in list(decide._DECIDERS.items()):
            decide._DECIDERS[logic] = getattr(decide, fn.__name__)
        theories.TheoryOracle.derives = self.wrap_derives(
            theories.TheoryOracle.derives)
        provability.GeneratedTheory.decide = self.wrap(
            GENERATED_DECIDE_SPAN, provability.GeneratedTheory.decide)
        return self

    # -- reporting ---------------------------------------------------------

    def _cache_counts(self):
        out = {}
        for name in ("pre_interpolant", "free_atoms"):
            info = _lru(getattr(formulas, name)).cache_info()
            out[name] = (info.hits, info.misses)
        return out

    def layer_totals(self):
        """Per span name: calls and summed self time in seconds."""
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(duration)
        for d, parent in zip(duration, self.span_parent):
            if parent >= 0:
                child[parent] += d
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, d, c in zip(self.span_name, duration, child):
            calls[name_id] += 1
            self_s[name_id] += d - c
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def counters(self):
        now = self._cache_counts()
        tree = dag = 0
        sizes: dict = {}
        for f in self.pre_interpolant_misses:
            tree += _tree_size(f, sizes)
            dag += _dag_size(f)
        cache = {name: (now[name][0] - self._cache0[name][0],
                        now[name][1] - self._cache0[name][1])
                 for name in now}
        return {
            "enum_models": self.enum_models,
            "derives_misses": self.derives_misses,
            "tree_nodes": tree,
            "dag_nodes": dag,
            "cache_delta": cache,
        }

    def summary(self):
        """Layer totals, counters and the size of the intern table."""
        return {"totals": self.layer_totals(), "counters": self.counters(),
                "intern_nodes": len(formulas._intern)}

    def dump(self, path):
        """Write one line per span, ``name start end parent op``, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, start in enumerate(self.span_start):
                fh.write(f"{self.names[self.span_name[i]]} {start:.9f} "
                         f"{self.span_end[i]:.9f} {self.span_parent[i]} "
                         f"{self.span_op[i]}\n")


def _rebind(modules, original, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _lru(fn):
    """The ``lru_cache`` object under any number of tracing wrappers."""
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn


def _children(f):
    return [getattr(f, a) for a in ("left", "right", "sub") if hasattr(f, a)]


def _tree_size(f, sizes):
    """Node count of the formula read as a tree (shared subterms repeated)."""
    stack = [f]
    while stack:
        g = stack[-1]
        if g in sizes:
            stack.pop()
            continue
        kids = _children(g)
        todo = [k for k in kids if k not in sizes]
        if todo:
            stack.extend(todo)
        else:
            sizes[g] = 1 + sum(sizes[k] for k in kids)
            stack.pop()
    return sizes[f]


def _dag_size(f):
    """Distinct nodes of the formula, each shared subterm counted once."""
    seen = {f}
    stack = [f]
    while stack:
        for k in _children(stack.pop()):
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen)


def cache_report():
    """Sizes of the process-wide formula caches, at the time of the call."""
    out = {"intern_nodes": len(formulas._intern)}
    for name in ("pre_interpolant", "free_atoms"):
        info = _lru(getattr(formulas, name)).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "currsize": info.currsize}
    return out


def install():
    return Tracer().install()
