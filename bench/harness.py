"""Closed-loop timing, set-up timing and output checks shared by the workloads.

A workload is a function from a block index to a block of ops.  Each block
holds a fixed mix of op kinds and input sizes in a seeded order, so every run
sees the same mix whatever its seed, and block i's inputs depend only on the
seed and i.  One client issues the next op only after the previous one
returns.  Only the ops themselves are timed: building a block and checking its
outputs happen between blocks, outside the measured time, and a block is
dropped once it is checked, so the benchmark's own memory stays flat.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

SETUP_SPAWNS = 5  # measured spawns before the window, and as many after it
SEGMENT_S = 1.0


@dataclass
class Op:
    """One call into downup and the reference checks of what it returned.

    ``check`` returns None when the output is right and a message otherwise.
    ``late`` is an optional costly check (sympy) that runs after the window
    and after peak memory is read.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    late: Optional[Callable[[object], Optional[str]]] = None


def cap(value: int, limit: int, what: str) -> None:
    """Hard cap on a generated input size: products and powers have no budget."""
    if value > limit:
        raise ValueError(f"generated {what} {value} exceeds the cap {limit}")


class Raised:
    """Output of an op that raised; always fails its check."""

    def __init__(self, error: BaseException):
        self.error = error

    def __repr__(self) -> str:
        return f"raised {type(self.error).__name__}: {self.error}"


def run_op(op: Op):
    try:
        return op.call()
    except Exception as error:  # an unexpected raise is a failed op, not a crash
        return Raised(error)


@dataclass
class Outcomes:
    """Attempted and failed ops, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    mix: Counter = field(default_factory=Counter)
    pending: list = field(default_factory=list)  # (op, output) awaiting a late check

    def record(self, op: Op, out) -> None:
        self.attempted += 1
        self.mix[op.kind] += 1
        if isinstance(out, Raised):
            self._fail(op, repr(out))
        elif self._fail(op, _checked(op.check, out)) is None and op.late is not None:
            self.pending.append((op, out))

    def run_late(self) -> None:
        for op, out in self.pending:
            self._fail(op, _checked(op.late, out))
        self.pending.clear()

    def _fail(self, op: Op, message):
        if message is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{op.kind}: {message}")
        return message


def _checked(check, out) -> Optional[str]:
    try:
        return check(out)
    except Exception as error:  # a check that cannot run is a failed op
        return f"check raised {type(error).__name__}: {error}"


@dataclass
class Window:
    """What the timed window did."""

    latencies_ns: list = field(default_factory=list)
    block_ends: list = field(default_factory=list)  # (ops so far, measured ns so far)
    outcomes: Outcomes = field(default_factory=Outcomes)

    @property
    def measured_s(self) -> float:
        return self.block_ends[-1][1] / 1e9


def timed_window(block: Callable[[int], list], seconds: float, first: int = 1) -> Window:
    """Run blocks first, first + 1, ... until the ops have taken ``seconds``."""
    window = Window()
    clock = time.perf_counter_ns
    measured = 0
    index = first
    while measured < seconds * 1e9:
        ops = block(index)
        index += 1
        outputs = []
        for op in ops:
            t0 = clock()
            out = run_op(op)
            took = clock() - t0
            window.latencies_ns.append(took)
            measured += took
            outputs.append(out)
        window.block_ends.append((len(window.latencies_ns), measured))
        for op, out in zip(ops, outputs):
            window.outcomes.record(op, out)
    return window


def deciles(values) -> list[float]:
    """The nine cut points p10..p90 by linear interpolation."""
    return statistics.quantiles(values, n=10, method="inclusive")


def segment_stats(window: Window, seconds: float = SEGMENT_S) -> list[dict]:
    """Throughput and latency quantiles of consecutive stretches of whole blocks.

    Each stretch holds at least ``seconds`` of measured time; a shorter tail
    joins the last one.
    """
    bounds = []
    first, t_first = 0, 0
    for end, t_end in window.block_ends:
        if (t_end - t_first) / 1e9 >= seconds or end == len(window.latencies_ns):
            if bounds and (t_end - t_first) / 1e9 < seconds:
                first, t_first = bounds.pop()[:2]
            bounds.append((first, t_first, end, t_end))
            first, t_first = end, t_end
    stats = []
    for first, t_first, end, t_end in bounds:
        cuts = deciles([ns / 1e6 for ns in window.latencies_ns[first:end]])
        stats.append({
            "ops_per_s": (end - first) / ((t_end - t_first) / 1e9),
            "latency_p50_ms": cuts[4],
            "latency_p90_ms": cuts[8],
        })
    return stats


def end_to_end(window: Window, setup_times: list[float], rss_mb: float):
    """The end-to-end metrics as (value, unit, samples).

    Throughput and latency quantiles are taken per segment of the window and
    the median over segments is reported, so a slow spell of the machine that
    covers less than half of the window does not move them.
    """
    attempted = window.outcomes.attempted
    failed = window.outcomes.failed
    parts = segment_stats(window)

    def over_segments(key):
        return statistics.median(part[key] for part in parts)

    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (over_segments("ops_per_s"), "1/s", attempted),
        "latency_p50_ms": (over_segments("latency_p50_ms"), "ms", attempted),
        "latency_p90_ms": (over_segments("latency_p90_ms"), "ms", attempted),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_ratio": ((attempted - failed) / attempted, "ratio", attempted),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(root: str, spawns: int = SETUP_SPAWNS, warm: bool = True) -> list[float]:
    """Wall seconds for ``python -m downup.cli --help`` in fresh interpreters.

    With ``warm``, one unmeasured spawn first, so bytecode caches exist as
    they do for a user's second call; then ``spawns`` measured ones.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "downup.cli", "--help"]
    times = []
    for attempt in range(spawns + int(warm)):
        t0 = time.perf_counter()
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or not done.stdout.startswith(b"usage: downup"):
            raise RuntimeError(f"set-up spawn failed: {done.stderr.decode()[-300:]}")
        if attempt or not warm:
            times.append(elapsed)
    return times
