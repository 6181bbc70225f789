"""The outside-in tracer catches every binding and counts exactly.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import contextlib
import io
import json
import os

from downup import algebra, homology, quiver, quotients, rewrite
from downup.algebra import OmegaElem, Params
from downup.expr import DU, YX, NcPoly

import harness
import nf_stream
import run
from tracer import SPAN_NAMES, TARGETS, Tracer, downup_modules

P = Params(2, 0, 1)
T = homology.OneDimModule(0, 0)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# One tiny call per traced function, by the function's own name.
CALLS = {
    "parse": lambda f: f("d*u", DU),
    "reduce": lambda f: f(NcPoly(DU, {("d", "d", "u"): 1}), algebra.downup_rules(P)),
    "pbw_normal_form": lambda f: f(NcPoly(DU, {("d", "u", "u"): 1}), P),
    "omega_coords": lambda f: f(NcPoly(DU, {("d", "u"): 1}), P),
    "omega_to_pbw": lambda f: f(OmegaElem({(0, 1, 0): 1}), P),
    "q_normal_form": lambda f: f(NcPoly(YX, {("y", "x"): 1}), quotients.quantum_plane(2)),
    "span_filtered_dim": lambda f: f([{(1, 1): 1}], 2, 1, 1),
    "reduce_commutative": lambda f: f({(2, 1): 1}, [((1, 1), {})]),
    "rank": lambda f: f([[1, 2], [3, 4]]),
    "apply_d1": lambda f: f(homology.BimoduleElement.generator(1, "d"), P),
    "apply_d2": lambda f: f(homology.BimoduleElement.generator(2, "d2u"), P),
    "apply_d3": lambda f: f(homology.BimoduleElement.generator(3, "d2u2"), P),
    "tor_matrices": lambda f: f(T, T, P),
    "tor_profile": lambda f: f(T, T, P),
    "tor1_bound": lambda f: f(P, 2),
    "invariant_report": lambda f: f(P, Params(3, 0, 0), 2),
    "iso_verdict": lambda f: f(P, Params(3, 0, 0)),
    "load_monomial_algebra": lambda f: f("vertex e\narrow a e e\n"),
    "monomial_abelianization": lambda f: f(
        quiver.load_monomial_algebra("vertex e\narrow a e e\nrelation a a\n")),
    "main": lambda f: _quiet(f, ["classify", "type", "--params", "1,0,0"]),
}


def _active_wrappers() -> list[str]:
    """Bindings in downup modules or their classes that still hold a wrapper."""
    leftover = []
    for module in downup_modules():
        for key, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else ()
            if hasattr(value, "__traced__"):
                leftover.append(f"{module.__name__}.{key}")
            leftover += [f"{module.__name__}.{key}.{attr}" for attr, member in members
                         if hasattr(member, "__traced__")]
    return leftover


def test_every_binding_is_rebound_and_restored():
    tracer = Tracer()
    with tracer:
        bindings = list(tracer.bindings)
        originals = [original for _, _, original, _ in bindings]
        leftover = [
            (module.__name__, key)
            for module in downup_modules()
            for key, value in vars(module).items()
            if any(value is original for original in originals)
        ]
        assert leftover == []
        assert _active_wrappers()
    rebound = {(holder.__name__, key) for holder, key, _, _ in bindings}
    for binding in [
        ("downup.homology", "rank"), ("downup.quotients", "rank"),
        ("downup.algebra", "reduce"), ("downup.quotients", "reduce"), ("downup.verify", "reduce"),
        ("downup.classify", "tor1_bound"), ("downup.cli", "tor1_bound"),
        ("downup.cli", "parse"), ("downup.homology", "pbw_normal_form"),
        ("NcPoly", "__init__"), ("NcPoly", "__mul__"), ("NcPoly", "__str__"),
        ("RuleSet", "find_redex"),
    ]:
        assert binding in rebound
    assert _active_wrappers() == []
    assert all(getattr(holder, key) is original for holder, key, original, _ in bindings
               if not isinstance(holder, type))
    assert all(holder.__dict__[key] is original for holder, key, original, _ in bindings
               if isinstance(holder, type))


def test_a_call_through_each_binding_counts_once():
    algebra.downup_rules(P)
    with Tracer() as installed:
        bindings = [(holder, key, original) for holder, key, original, _ in installed.bindings
                    if isinstance(holder, type(algebra))]
    span_of = {attr: name for name, _, owner, attr, _ in TARGETS if owner is None}
    assert len(bindings) > len(span_of)
    for holder, key, original in bindings:
        tracer = Tracer()
        with tracer:
            CALLS[original.__name__](getattr(holder, key))
        calls = tracer.summary()[f"{span_of[original.__name__]}.calls"]
        assert calls == 1, (holder.__name__, key, calls)


def test_methods_and_size_counters_on_a_tiny_input():
    rules = algebra.downup_rules(P)
    d, u = NcPoly.letter(DU, "d"), NcPoly.letter(DU, "u")
    left, right = d + u, d * d + u + NcPoly.one(DU)
    ddu = NcPoly(DU, {("d", "d", "u"): 1})
    checks = [
        (lambda: NcPoly(DU, {("d",): 1}), {"expr.NcPoly.init.calls": 1}),
        (lambda: left * right, {"expr.NcPoly.mul.calls": 1, "expr.NcPoly.mul.term_products": 6}),
        (lambda: str(left), {"expr.NcPoly.str.calls": 1}),
        (lambda: rules.find_redex(("d", "d", "u")),
         {"rewrite.find_redex.calls": 1, "rewrite.find_redex.hits": 1}),
        (lambda: rules.find_redex(("u", "d")),
         {"rewrite.find_redex.calls": 1, "rewrite.find_redex.hits": 0}),
        # d^2 u -> 2*d*u*d + d at (2, 0, 1)
        (lambda: rewrite.reduce(ddu, rules),
         {"rewrite.reduce.calls": 1, "rewrite.reduce.terms_in": 1, "rewrite.reduce.terms_out": 2}),
        (lambda: homology.rank([[1, 2, 3], [2, 4, 6]]),
         {"linalg.rank.calls": 1, "linalg.rank.cells": 6, "linalg.rank.max_cells": 6}),
    ]
    for call, expected in checks:
        tracer = Tracer()
        with tracer:
            call()
        summary = tracer.summary()
        assert {key: summary[key] for key in expected} == expected


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer:
        tracer.span("op.tiny", lambda: homology.tor_profile(T, T, P))
    summary = tracer.summary()
    assert summary["homology.tor_profile.calls"] == 1
    assert summary["linalg.rank.calls"] >= 1
    total = sum(e - s for e, s, p in zip(tracer.ends, tracer.starts, tracer.parents) if p == -1)
    assert sum(summary[f"{name}.self_s"] for name in SPAN_NAMES) <= total / 1e9


def test_traced_counts_repeat_for_the_same_seed():
    ops = nf_stream.block_maker(3, "unused")(1)[:8] + run._probe()
    for op in ops:
        harness.run_op(op)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            for op in ops:
                tracer.span(f"op.{op.kind}", lambda op=op: harness.run_op(op))
        counts.append({k: v for k, v in tracer.summary().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert all(counts[0][f"{name}.calls"] > 0 for name in SPAN_NAMES)


def test_benchmark_json_names_only_measured_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    measured = set(Tracer().summary()) | set(run._cache_counts()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= measured
    window = harness.Window(latencies_ns=[1, 2], block_ends=[(2, 3)])
    window.outcomes.attempted = 2
    end_to_end = harness.end_to_end(window, [0.1], 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert {m["name"] for m in spec["workloads"]} == set(run.WORKLOADS)
    with open(os.path.join(run.HERE, "interaction_map.json"), encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    mapped = [metric for row in layers.values() for metric in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    assert all(set(row["workloads"]) <= set(run.WORKLOADS) for row in layers.values())
