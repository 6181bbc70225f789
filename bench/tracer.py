"""Outside-in tracer: spans around the public functions of each downup layer.

The tracer is installed only for a traced pass.  It replaces every binding of
a traced function in every loaded ``downup`` module (``rank`` is bound in
``linalg``, ``homology`` and ``quotients``; ``reduce`` in ``rewrite``,
``algebra``, ``quotients`` and ``verify``; ...), and wraps the traced methods
on their classes, so calls made inside the package are seen as well as calls
made by the benchmark.  Nothing under ``src/`` is edited.

Spans are kept in memory as parallel arrays (name, start, end, parent) and
written out when the pass ends.  A layer's self time is its span durations
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

MODULES = (
    "downup", "downup.expr", "downup.rewrite", "downup.algebra", "downup.quotients",
    "downup.linalg", "downup.homology", "downup.classify", "downup.quiver",
    "downup.verify", "downup.cli",
)


def _mul_size(counters, args, result):
    left, right = args[0], args[1]
    if hasattr(right, "terms"):
        counters["expr.NcPoly.mul.term_products"] += len(left.terms) * len(right.terms)


def _reduce_size(counters, args, result):
    counters["rewrite.reduce.terms_in"] += len(args[0].terms)
    counters["rewrite.reduce.terms_out"] += len(result.terms)


def _redex_size(counters, args, result):
    if result is not None:
        counters["rewrite.find_redex.hits"] += 1


def _rank_size(counters, args, result):
    rows = args[0]
    cells = len(rows) * len(rows[0]) if len(rows) else 0
    counters["linalg.rank.cells"] += cells
    if cells > counters["linalg.rank.max_cells"]:
        counters["linalg.rank.max_cells"] = cells


# (span name, home module, owner class or None, attribute, size counter)
TARGETS = (
    ("expr.NcPoly.init", "downup.expr", "NcPoly", "__init__", None),
    ("expr.NcPoly.mul", "downup.expr", "NcPoly", "__mul__", _mul_size),
    ("expr.NcPoly.str", "downup.expr", "NcPoly", "__str__", None),
    ("expr.parse", "downup.expr", None, "parse", None),
    ("rewrite.reduce", "downup.rewrite", None, "reduce", _reduce_size),
    ("rewrite.find_redex", "downup.rewrite", "RuleSet", "find_redex", _redex_size),
    ("algebra.pbw_normal_form", "downup.algebra", None, "pbw_normal_form", None),
    ("algebra.omega_coords", "downup.algebra", None, "omega_coords", None),
    ("algebra.omega_to_pbw", "downup.algebra", None, "omega_to_pbw", None),
    ("quotients.q_normal_form", "downup.quotients", None, "q_normal_form", None),
    ("quotients.span_filtered_dim", "downup.quotients", None, "span_filtered_dim", None),
    ("quotients.reduce_commutative", "downup.quotients", None, "reduce_commutative", None),
    ("linalg.rank", "downup.linalg", None, "rank", _rank_size),
    ("homology.apply_d", "downup.homology", None, "apply_d1", None),
    ("homology.apply_d", "downup.homology", None, "apply_d2", None),
    ("homology.apply_d", "downup.homology", None, "apply_d3", None),
    ("homology.tor_matrices", "downup.homology", None, "tor_matrices", None),
    ("homology.tor_profile", "downup.homology", None, "tor_profile", None),
    ("homology.tor1_bound", "downup.homology", None, "tor1_bound", None),
    ("classify.invariant_report", "downup.classify", None, "invariant_report", None),
    ("classify.iso_verdict", "downup.classify", None, "iso_verdict", None),
    ("quiver.load_monomial_algebra", "downup.quiver", None, "load_monomial_algebra", None),
    ("quiver.monomial_abelianization", "downup.quiver", None, "monomial_abelianization", None),
    ("cli.main", "downup.cli", None, "main", None),
)

SIZE_COUNTERS = (
    "expr.NcPoly.mul.term_products",
    "rewrite.reduce.terms_in",
    "rewrite.reduce.terms_out",
    "rewrite.find_redex.hits",
    "linalg.rank.cells",
    "linalg.rank.max_cells",
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


def downup_modules():
    """Every traced downup module, imported if it was not loaded yet."""
    return [importlib.import_module(name) for name in MODULES]


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self.counters = dict.fromkeys(SIZE_COUNTERS, 0)
        self.bindings: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, size):
        name_id = self._name_id(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if size is not None:
                size(counters, args, result)
            return result

        traced.__traced__ = fn
        return traced

    def span(self, name: str, fn):
        """Run fn() inside a root span of the given name: one span per op."""
        return self._wrap(name, fn, None)()

    def install(self) -> None:
        modules = downup_modules()
        by_name = {module.__name__: module for module in modules}
        for name, home, owner, attr, size in TARGETS:
            if owner is not None:
                cls = getattr(by_name[home], owner)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original, size)
                setattr(cls, attr, wrapper)
                self.bindings.append((cls, attr, original, wrapper))
                continue
            original = getattr(by_name[home], attr)
            wrapper = self._wrap(name, original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.bindings.append((module, key, original, wrapper))

    def uninstall(self) -> None:
        for holder, key, original, _ in reversed(self.bindings):
            setattr(holder, key, original)
        self.bindings.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """calls and self_s per span name, plus the size counters."""
        count = len(self.starts)
        child = [0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for index in range(count):
            name_id = self.name_ids[index]
            calls[name_id] += 1
            self_ns[name_id] += ends[index] - starts[index] - child[index]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            name_id = self._ids.get(name)
            out[f"{name}.calls"] = calls[name_id] if name_id is not None else 0
            out[f"{name}.self_s"] = self_ns[name_id] / 1e9 if name_id is not None else 0.0
        out.update(self.counters)
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for index in range(len(self.starts)):
                handle.write(
                    f"{index}\t{self.parents[index]}\t{names[self.name_ids[index]]}\t"
                    f"{self.starts[index]}\t{self.ends[index]}\n"
                )
