"""Benchmark of the downup toolkit: four seeded closed-loop workloads.

Run one workload, as the metrics are collected:

    python3 bench/run.py --workload nf-stream --seed 1 --seconds 10 --trace 0

or all four, each in its own process, with ``--workload all`` (the default).
``--trace 0`` times the workload with no tracing and prints the end-to-end
metrics; ``--trace 1`` runs a fixed op list once traced and once untraced and
prints the per-layer metrics (``--seconds`` does not apply to it).  The last line of the output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it starts
with ``# info`` and records the environment, seed, op mix and input sizes.
The metric names and units are those listed in BENCHMARK.json at the root.

The program is imported from ``src/`` next to this directory; nothing is
installed.  Span files of traced runs go to ``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import harness
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# workload name -> (module, blocks in the traced pass); each traced pass takes
# a few seconds untraced.
WORKLOADS = {
    "nf-stream": ("nf_stream", 10),
    "tor-classify": ("tor_classify", 2),
    "span-oracle": ("span_oracle", 6),
    "cli-session": ("cli_session", 20),
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_downup():
    """Import downup from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "downup", "__init__.py")):
        _fail(f"no downup sources under {SRC}")
    sys.path.insert(0, SRC)
    import downup

    if os.path.dirname(os.path.dirname(os.path.abspath(downup.__file__))) != SRC:
        _fail(f"imported downup from {downup.__file__}, not from {SRC}")
    return downup


def _benchmark_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail(f"missing {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _git_sha():
    """HEAD of the checkout if it is a git work tree (read from .git, no git process)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref_line = handle.read().strip()
        if not ref_line.startswith("ref: "):
            return ref_line
        ref_name = ref_line[5:]
        loose = os.path.join(ROOT, ".git", ref_name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit:<6} (n={samples})")


def _emit(info: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print("# info " + json.dumps(info, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def timed_run(name: str, block, seed: int, seconds: int, sizes: dict, spec: dict) -> None:
    """Block 0 warms caches; blocks 1, 2, ... are timed until ``seconds`` of ops."""
    setup_times = harness.measure_setup(ROOT)
    for op in block(0):
        harness.run_op(op)
    window = harness.timed_window(block, seconds)
    rss = harness.peak_rss_mb()
    # set-up is sampled on both sides of the window, so one slow spell moves few samples
    setup_times += harness.measure_setup(ROOT, warm=False)
    outcomes = window.outcomes
    outcomes.run_late()
    metrics = harness.end_to_end(window, setup_times, rss)
    wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(wanted) != sorted(metrics):
        _fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    attempted, failed = outcomes.attempted, outcomes.failed
    print(f"{name}: seed {seed}, {attempted} ops in {window.measured_s:.2f} s of measured time "
          f"({len(window.block_ends)} blocks), {failed} failed")
    _print_metrics(metrics)
    print(f"  {'error_ratio':<38} {failed / attempted:>14.6g} ratio  (n={attempted})")
    for message in outcomes.messages:
        print(f"  FAILED {message}")
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 0,
        "environment": environment(),
        "loop": "closed, one client, single thread",
        "op_mix": dict(sorted(outcomes.mix.items())),
        "input_sizes": sizes,
        "samples": {metric: samples for metric, (_, _, samples) in metrics.items()},
        "setup_spawns_s": setup_times,
        "window": {"measured_s": window.measured_s, "blocks": len(window.block_ends),
                   "segments": harness.segment_stats(window)},
        "error_ratio": failed / attempted,
        "failures": outcomes.messages,
    }
    _emit(info, failed == 0, attempted, failed, {k: metrics[k] for k in wanted})


def _probe() -> list:
    """Tiny fixed calls that reach every traced function once or a few times.

    The traced pass ends with them so that every layer records spans in every
    workload's trace, also the layers the workload itself leaves alone; their
    counts are the same in every run.
    """
    from downup import classify, cli, homology, quiver, quotients
    from downup.algebra import Params

    p, q = Params(2, 0, 1), Params(3, 0, 0)
    t = homology.OneDimModule(0, 0)

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    calls = [
        lambda: quiet(["nf", "--params", "2,0,1", "d*u*u"]),
        lambda: quiet(["omega", "--params", "2,0,1", "--invert", "ω*d"]),
        lambda: quiet(["qnf", "--alpha", "2", "y*x"]),
        lambda: quotients.span_filtered_dim([{(1, 1): 1}], 2, 1, 1),
        lambda: quotients.presentation_kills(quotients.abelianization(q), {(2, 1): 1}),
        lambda: homology.tor_matrices(t, t, Params(1, 1, 2)),
        lambda: classify.invariant_report(p, q, 2),
        lambda: classify.iso_verdict(p, q),
        lambda: quiver.monomial_abelianization(
            quiver.load_monomial_algebra("vertex e\narrow a e e\nrelation a a\n")),
    ]
    return [harness.Op("probe", call, lambda out: None) for call in calls]


def _cache_counts() -> dict:
    from downup import algebra, quotients

    rules = [algebra.downup_rules.cache_info(), algebra.omega_rules.cache_info()]
    return {
        "algebra.rules_cache.hits": sum(info.hits for info in rules),
        "algebra.rules_cache.misses": sum(info.misses for info in rules),
        "quotients.q_rules_cache.misses": quotients.q_rules.cache_info().misses,
    }


def _layers_of(name: str) -> dict:
    """Rows of bench/interaction_map.json that name this workload."""
    with open(os.path.join(HERE, "interaction_map.json"), encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    return {layer: row["moves"] for layer, row in layers.items() if name in row["workloads"]}


def traced_run(name: str, block, seed: int, sizes: dict, spec: dict) -> None:
    """A fixed op list for the seed: one traced pass, then the overhead ratio.

    The traced pass meets the caches in the state the timed window does, so
    its counts (cache misses for fresh parameters included) are the ones the
    window would show.  The overhead ratio comes from a second pass that runs
    every op untraced and traced.
    """
    for op in block(0):
        harness.run_op(op)
    ops = [op for index in range(1, 1 + WORKLOADS[name][1]) for op in block(index)] + _probe()

    before = _cache_counts()
    tracer = Tracer()
    with tracer:
        outputs = [tracer.span(f"op.{op.kind}", lambda op=op: harness.run_op(op)) for op in ops]
    after = _cache_counts()
    # Overhead: each op once untraced and once traced, back to back, so both
    # runs of an op meet the same machine state.
    traced_s = untraced_s = 0.0
    for op in ops:
        t0 = time.perf_counter()
        harness.run_op(op)
        untraced_s += time.perf_counter() - t0
        with Tracer() as overhead:
            t0 = time.perf_counter()
            overhead.span("op", lambda op=op: harness.run_op(op))
            traced_s += time.perf_counter() - t0

    values = tracer.summary()
    values.update({key: after[key] - before[key] for key in after})
    values["trace.overhead_ratio"] = traced_s / untraced_s
    outcomes = harness.Outcomes()
    for op, out in zip(ops, outputs):
        outcomes.record(op, out)
    outcomes.run_late()
    failed, messages = outcomes.failed, outcomes.messages

    os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
    span_file = os.path.join(ROOT, ".bench_traces", f"{name}-seed{seed}.tsv")
    tracer.write(span_file)

    metrics = {}
    for entry in spec["per_layer"]:
        if entry["name"] not in values:
            _fail(f"per-layer metric {entry['name']} is not measured")
        metrics[entry["name"]] = (values[entry["name"]], entry["unit"], 1)
    print(f"{name}: seed {seed}, traced pass of {len(ops)} ops, {len(tracer.starts)} spans, "
          f"{failed} failed; overhead pass {traced_s:.2f} s traced, {untraced_s:.2f} s untraced")
    _print_metrics(metrics)
    for message in messages:
        print(f"  FAILED {message}")
    info = {
        "workload": name, "seed": seed, "trace": 1,
        "environment": environment(),
        "op_mix": dict(sorted(outcomes.mix.items())),
        "input_sizes": sizes,
        "traced_s": traced_s, "untraced_s": untraced_s,
        "spans": len(tracer.starts), "span_file": os.path.relpath(span_file, ROOT),
        "interaction_map": _layers_of(name),
        "failures": messages,
    }
    _emit(info, failed == 0, len(ops), failed, metrics)


def run_one(name: str, seed: int, seconds: int, trace: int) -> None:
    spec = _benchmark_spec()
    _import_downup()
    module = importlib.import_module(WORKLOADS[name][0])
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        block = module.block_maker(seed, workdir)
        if trace:
            traced_run(name, block, seed, module.SIZES, spec)
        else:
            timed_run(name, block, seed, seconds, module.SIZES, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: int, trace: int) -> None:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            _fail(f"workload {name} exited with {done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _benchmark_spec()["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
