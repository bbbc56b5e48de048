"""Per-layer spans over cutlab's public entry points, patched in at runtime.

``Tracer.install`` wraps each entry point listed in ``ENTRY_POINTS`` and
rebinds every reference to it: the defining module or class, every other
``cutlab`` module that imported the name, and every class attribute that
holds it.  ``Tracer.remove`` puts the originals back, so untraced passes run
the unmodified program.  Nothing under ``src/`` is edited.

A span records its name, start, end, parent span (the wrapper stack) and
the id of the workload item that was running.  Spans stay in memory until
``Tracer.write`` dumps them once, at the end of the run.  ``mul``,
``mul_vec`` and ``power`` are deliberately not wrapped: they run once per
element and the wrapper would dominate their cost.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute) -- an attribute "Cls.meth" wraps the method
# on Cls and on every subclass that overrides it.
ENTRY_POINTS = (
    ("cli.parse_group_spec", "cutlab.cli", "parse_group_spec"),
    ("cli.render_report", "cutlab.cli", "render_report"),
    ("constructors.construct", "cutlab.constructors", "construct"),
    ("group_core.build_from_table", "cutlab.group_core", "build_from_table"),
    ("group_core.build_from_permutations", "cutlab.group_core", "build_from_permutations"),
    ("group_core.direct_product", "cutlab.group_core", "direct_product"),
    ("group_core.quotient", "cutlab.group_core", "quotient"),
    ("group_core.as_group", "cutlab.group_core", "SubgroupHandle.as_group"),
    ("group_core.subgroup_generated", "cutlab.group_core", "subgroup_generated"),
    ("group_core.center", "cutlab.group_core", "center"),
    # the body of the cached ``FiniteGroup.profile`` property: cache hits
    # never reach it, so calls count real computations
    ("group_core.profile", "cutlab.group_core", "_compute_profile"),
    ("group_core.dense_table", "cutlab.group_core", "FiniteGroup.dense_table"),
    ("cut_engine.decide_cut", "cutlab.cut_engine", "decide_cut"),
    ("cut_engine.decide_cut_bruteforce", "cutlab.cut_engine", "decide_cut_bruteforce"),
    ("cut_engine.classify", "cutlab.cut_engine", "classify"),
    ("characterizations.thm_odd", "cutlab.characterizations", "thm_odd"),
    ("characterizations.thm_solvable_eppo", "cutlab.characterizations", "thm_solvable_eppo"),
    ("characterizations.thm_nilpotent", "cutlab.characterizations", "thm_nilpotent"),
    ("characterizations.cor_class2", "cutlab.characterizations", "cor_class2"),
    ("characterizations.prop_class2_factor", "cutlab.characterizations", "prop_class2_factor"),
    ("characterizations.remark_two_group_sum", "cutlab.characterizations", "remark_two_group_sum"),
    ("characterizations.verify_equivalences", "cutlab.characterizations", "verify_equivalences"),
    ("kernels.orbit_labels", "cutlab._kernels", "orbit_labels"),
    ("kernels.first_bad_triple", "cutlab._kernels", "first_bad_triple"),
    ("kernels.cut_witness_scan", "cutlab._kernels", "cut_witness_scan"),
    ("corpus.run_corpus", "cutlab.corpus", "run_corpus"),
)

PROP_MODES = ("per_element", "central_subgroups")

SPAN_NAMES = tuple(
    f"{name}.{mode}" if name == "characterizations.prop_class2_factor" else name
    for name, _, _ in ENTRY_POINTS
    for mode in (PROP_MODES if name == "characterizations.prop_class2_factor" else (None,))
)

GROUP_BUILDERS = (
    "constructors.construct",
    "group_core.quotient",
    "group_core.as_group",
    "group_core.direct_product",
    "group_core.build_from_table",
    "group_core.build_from_permutations",
)

COUNT_NAMES = (
    "groups_built",
    "oracle.elements",
    "dense_table.bytes_computed",
    "central_subgroups.checked",
    "decide_cut.classes",
)


def _prop_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "per_element")
    return f"characterizations.prop_class2_factor.{mode}"


def _count_oracle(counts, args, kwargs, result):
    counts["oracle.elements"] += args[0].order


def _count_dense_table(counts, args, kwargs, result):
    counts["dense_table.bytes_computed"] += 4 * args[0].order ** 2


def _count_central(counts, args, kwargs, result):
    if _prop_span(args, kwargs).endswith("central_subgroups"):
        counts["central_subgroups.checked"] += len(result.trace)


def _count_classes(counts, args, kwargs, result):
    counts["decide_cut.classes"] += args[0].conjugacy.num_classes


COUNTERS = {
    "cut_engine.decide_cut_bruteforce": _count_oracle,
    "group_core.dense_table": _count_dense_table,
    "characterizations.prop_class2_factor": _count_central,
    "cut_engine.decide_cut": _count_classes,
}


class Tracer:
    """Span recorder plus the runtime patch that feeds it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cutlab" or n.startswith("cutlab.")]
        for name, module_name, attr in ENTRY_POINTS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                for cls in _with_subclasses(getattr(owner, cls_name)):
                    if meth in vars(cls):
                        self._rebind(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
                    elif inspect.isclass(value) and value.__module__.startswith("cutlab"):
                        for ckey, cvalue in list(vars(value).items()):
                            if cvalue is original:
                                self._rebind(value, ckey, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _rebind(self, holder, key, wrapper) -> None:
        self._patched.append((holder, key, vars(holder)[key]))
        setattr(holder, key, wrapper)

    def _wrap(self, name: str, fn):
        span_name = _prop_span if name == "characterizations.prop_class2_factor" else (lambda a, k: name)
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [span_name(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Start of a pass, for ``summary``."""
        return len(self.spans), Counter(self.counts)

    def summary(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """calls / self_s / total_s per span and the counts since ``mark``.

        Self time is a span's duration minus that of its direct children.
        Total time adds up only spans with no ancestor of the same name, so
        recursion (a product built from constructed parts) is not counted twice.
        """
        first_span, counts_before = mark
        spans = self.spans[first_span:]
        calls = Counter()
        self_s = Counter()
        total_s = Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            nested = False
            while parent >= first_span:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                total_s[name] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        out["groups_built"] = sum(calls[n] for n in GROUP_BUILDERS)
        for name in COUNT_NAMES[1:]:
            out[name] = self.counts[name] - counts_before[name]
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON document: names plus compact rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p, item] for n, a, b, p, item in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"], "names": names, "spans": rows}, fh)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, by its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_computed"):
        return "bytes"
    return "count"


def _with_subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_with_subclasses(sub))
    return out
