"""Helpers shared by the benchmark runner, its worker and its service load.

Nothing here imports ``repro``: the runner must be able to start (and
fail cleanly) in a directory that holds no program at all.
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import sys
from typing import Dict, Iterable, List, Sequence

#: The benchmark directory and the checkout root it sits in.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Where generated inputs, span dumps and per-run results go (listed in
#: the root ``.gitignore``).
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("replay", "service-mix", "predict-nearmiss")

#: Launches per run whose time to ready gives ``setup_s`` (the median):
#: this many probes plus the launch that does the work.  Half the probes
#: run before the work and half after, so that the launches span the run
#: rather than one moment of the machine's load.
SETUP_PROBES = 8

#: End-to-end metrics, in report order: name -> unit.
END_TO_END = {
    "records_per_s": "records/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of the traced run (``--trace 1``): name -> unit.
#: Times are self times summed over the traced work; counts are calls
#: at the layer boundary or the program's own counters.
PER_LAYER = {
    "trace.codec.decode_s": "s",
    "trace.codec.records_decoded": "count",
    "trace.codec.bytes_read": "bytes",
    "trace.replay.self_s": "s",
    "trace.replay.checks": "count",
    "core.incremental.apply_s": "s",
    "core.incremental.delta_ops": "count",
    "core.incremental.check_s": "s",
    "core.incremental.checks": "count",
    "core.incremental.fallbacks": "count",
    "core.scc.work": "count",
    "core.scc.maintain_s": "s",
    "core.scc.extract_s": "s",
    "core.checker.check_s": "s",
    "core.checker.checks": "count",
    "core.checker.edges": "count",
    "core.checker.sg_aborts": "count",
    "distributed.delta.apply_s": "s",
    "distributed.delta.deltas": "count",
    "distributed.delta.blobs_decoded": "count",
    "distributed.detector.sync_s": "s",
    "distributed.detector.syncs": "count",
    "distributed.store.append_s": "s",
    "distributed.store.appends": "count",
    "distributed.store.gaps": "count",
    "distributed.net.read_s": "s",
    "distributed.net.handle_s.append_delta": "s",
    "distributed.net.handle_s.check": "s",
    "distributed.net.encode_s": "s",
    "distributed.net.queue_ms": "ms",
    "distributed.net.busy_share": "fraction",
    "distributed.net.errors": "count",
    "obs.tracing.observe_s": "s",
    "obs.tracing.attach_s": "s",
    "obs.tracing.reports": "count",
    "obs.registry.ops": "count",
    "obs.registry.busy_s": "s",
    "predict.hb.build_s": "s",
    "predict.candidates.extract_s": "s",
    "predict.candidates.enumerate_s": "s",
    "predict.witness.build_s": "s",
    "predict.engine.confirm_s": "s",
    "predict.candidates.scanned": "count",
    "predict.candidates.confirmed": "count",
    "predict.confirm_ratio": "fraction",
    "loadgen.late_ms": "ms",
    "loadgen.inflight_max": "count",
    "traced.wall_s": "s",
    "traced.residual_s": "s",
    "traced.overhead": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a wrong result)."""


def digest(tasks) -> str:
    """Order-free fingerprint of a report's task set."""
    joined = "\n".join(sorted(str(t) for t in tasks))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def program_env() -> Dict[str, str]:
    """Environment of every process under test.

    ``PYTHONHASHSEED`` is pinned so that hash-order-dependent work
    counters (``repro_scc_work_total``) repeat exactly; ``REPRO_NATIVE=0``
    pins the pure-Python SCC structure, which is what a source checkout
    without a build step runs, so a locally built extension cannot move
    the numbers.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_NATIVE"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def use_program_path() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def peak_rss_mb(pid="self") -> float:
    """Peak resident set of a process (``VmHWM``), in MiB.

    Not ``ru_maxrss``: a spawned child's ``ru_maxrss`` keeps the
    resident set it had before ``exec``, which is its parent's."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM line in /proc status")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def flatten_counters(snapshot: dict, extra_volatile: Iterable[str] = ()) -> Dict[str, float]:
    """Deterministic counters from a ``MetricsRegistry.snapshot()``.

    Keeps every non-volatile counter and gauge value and the count and
    sum of every non-volatile histogram, plus the volatile series named
    in ``extra_volatile`` (work counters that are deterministic once the
    hash seed is fixed).  Keys read ``name{label=value,...}``.
    """
    keep = set(extra_volatile)
    out: Dict[str, float] = {}
    for metric in snapshot["metrics"]:
        if metric["volatile"] and metric["name"] not in keep:
            continue
        for child in metric["values"]:
            labels = ",".join(
                f"{k}={v}" for k, v in zip(metric["labels"], child["labels"])
            )
            key = f"{metric['name']}{{{labels}}}"
            if metric["kind"] == "histogram":
                out[key + ".count"] = child["count"]
                out[key + ".sum"] = child["sum"]
            else:
                out[key] = child["value"]
    return out


def add_counters(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


def latency_summary(samples_ns: Sequence[int]) -> Dict[str, float]:
    return {
        "p50_ms": quantile(samples_ns, 0.50) / 1e6,
        "p90_ms": quantile(samples_ns, 0.90) / 1e6,
        "p99_ms": quantile(samples_ns, 0.99) / 1e6,
        "samples": len(samples_ns),
    }


def fmt_table(rows: List[Sequence], header: Sequence[str]) -> str:
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for n, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) if i else c.ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
