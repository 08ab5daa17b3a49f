"""The repository's benchmark: one command, three seeded workloads.

Run one workload from the checkout root::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 33 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` is the traced run, which wraps every layer's
entry points with span timers (``spans.py``) and reports the per-layer
metrics, a self-time table and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` for the workloads, the
metric definitions and the layer map.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    END_TO_END,
    BenchError,
    PER_LAYER,
    SETUP_PROBES,
    SRC,
    add_counters,
    latency_summary,
    WORK_ROOT,
    WORKLOADS,
    BENCH_DIR,
    fmt_table,
    median,
    program_env,
)

#: Per-child wall-clock ceiling, far above any healthy run.
CHILD_TIMEOUT_S = 150


def launch_until_ready(argv: List[str]):
    """Start a process under test; return it and its setup time.

    Setup runs from launch until the process prints ``READY``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=program_env(), cwd=str(BENCH_DIR),
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"process under test did not start: {err.strip()[-2000:]}")
    return proc, ready


def probe_setup(workload: str, count: int) -> List[float]:
    times = []
    for _ in range(count):
        proc, ready = launch_until_ready(
            [sys.executable, "worker.py", "--probe", workload])
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        times.append(ready)
    return times


# ---------------------------------------------------------------------------
# replay and predict: the worker process
# ---------------------------------------------------------------------------
def make_inputs(workload: str, workdir, seed: int, size: dict) -> dict:
    import inputs

    if workload == "replay":
        return inputs.replay(workdir, seed, size)
    if workload == "predict-nearmiss":
        return inputs.predict_nearmiss(workdir, seed, size)
    raise ValueError(workload)


def check_passes(workload: str, job: dict, passes: List[dict], errors: List[str]) -> int:
    """Compare every pass with the ground truth; return the failures.

    A pass fails on a wrong verdict, a wrong cycle task set or a wrong
    report count, and also when its deterministic counters differ from
    an earlier pass over the same input."""
    failed = 0
    first_counters: Dict[str, dict] = {}
    expected_files = {f["path"]: f for f in job["files"]}
    for n, out in enumerate(passes):
        bad = []
        if workload == "predict-nearmiss":
            if sorted(out["entries"]) != sorted(expected_files):
                bad.append("predicted over a different file set")
            for path, entry in out["entries"].items():
                want = expected_files.get(path, {}).get("expect")
                if entry["reports"] != want:
                    bad.append(f"{path}: predicted {entry['reports']}, expected {want}")
                if entry["outcome"] != ("predicted" if want else "clean"):
                    bad.append(f"{path}: outcome {entry['outcome']}")
        else:
            want = expected_files[out["input"]]
            if out["reports"] != want["expect"]:
                bad.append(f"{out['input']}: reports {out['reports']}, expected {want['expect']}")
            if out["records"] != want["records"]:
                bad.append(f"{out['input']}: {out['records']} records of {want['records']}")
        seen = first_counters.setdefault(out["input"], out["counters"])
        if out["counters"] != seen:
            diff = sorted(k for k in set(seen) | set(out["counters"])
                          if seen.get(k) != out["counters"].get(k))
            bad.append(f"{out['input']}: counters differ between passes: {diff[:5]}")
        if bad:
            failed += 1
            errors.extend(f"pass {n}: {b}" for b in bad)
    return failed


def undisturbed(fastest: Dict[str, dict]) -> dict:
    """The run's rate and latencies from the fastest part times.

    A cycle through the inputs costs, on an undisturbed machine, the sum
    over its inputs and parts of each part's fastest time (see
    ``worker.Fastest``); ``records_per_s`` is the records of one cycle
    over that sum.  Replay latencies are taken over every sampled
    record's fastest time, predict latencies over every trace's."""
    seconds = sum(sum(f["parts_ns"].values()) for f in fastest.values()) / 1e9
    if "corpus" in fastest:
        samples = sorted(fastest["corpus"]["parts_ns"].values())
    else:
        samples = sorted(ns for f in fastest.values() for ns in f["sampled_ns"])
    return {"seconds": seconds, "latency": latency_summary(samples),
            "passes": min(f["passes"] for f in fastest.values())}


def run_worker_workload(args, workdir, size: dict, break_expectation: bool) -> dict:
    job = make_inputs(args.workload, workdir, args.seed, size)
    if break_expectation:
        # Self-test hook: a ground truth the program cannot meet.
        job["files"][0]["expect"] = job["files"][0]["expect"] + ["0" * 16]
    job.update(
        workload=args.workload, seconds=args.seconds, trace=bool(args.trace),
        run_id=f"{args.workload}/seed{args.seed}",
        result_path=str(workdir / "result.json"),
        spans_path=str(workdir / "spans.json"),
    )
    (workdir / "job.json").write_text(json.dumps(job))
    setups = probe_setup(args.workload, SETUP_PROBES // 2)
    proc, ready = launch_until_ready([sys.executable, "worker.py", str(workdir / "job.json")])
    setups.append(ready)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {err.strip()[-2000:]}")
    setups += probe_setup(args.workload, SETUP_PROBES - SETUP_PROBES // 2)
    out = json.loads((workdir / "result.json").read_text())
    errors: List[str] = []
    all_passes = out.get("untraced", []) + out["passes"]
    failed = check_passes(args.workload, job, all_passes, errors)
    result = {
        "attempted": len(all_passes), "failed": failed, "errors": errors,
        "setup_s": median(setups), "peak_rss_mb": out["peak_rss_mb"],
        "passes": out["passes"],
    }
    if args.trace:
        untraced_wall = sum(p["wall_s"] for p in out["untraced"])
        result.update(spans=out["spans"], traced_wall_s=out["traced_wall_s"],
                      overhead=out["traced_wall_s"] / untraced_wall - 1)
    else:
        fast = undisturbed(out["fastest"])
        records = sum(f["records"] for f in job["files"])
        result["records_per_s"] = records / fast["seconds"]
        result["latency"] = fast["latency"]
        result["notes"] = [
            f"undisturbed cycle: {records} records in {fast['seconds']:.4f} s, "
            f"fastest part times over {fast['passes']} passes per input; "
            f"{len(out['passes'])} passes in {sum(p['wall_s'] for p in out['passes']):.1f} s"]
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(res: dict) -> Dict[str, float]:
    return {
        "records_per_s": res["records_per_s"],
        "latency_p50_ms": res["latency"]["p50_ms"],
        "setup_s": res["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _flat(counters: dict, prefix: str = "") -> Dict[str, float]:
    out = {}
    for key, value in counters.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}:"))
        else:
            out[prefix + key] = value
    return out


def _sum_prefix(counters: dict, prefix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix))


def per_layer(workload: str, res: dict) -> Dict[str, float]:
    import spans

    export = res["spans"]
    values = dict.fromkeys(PER_LAYER, 0)
    values.update(spans.layer_metrics(export))
    values.update(export["counts"])
    if workload == "service-mix":
        counters = res["program_counters"]
        values.update(res["layer_extra"])
        values["distributed.net.errors"] = _sum_prefix(counters, "repro_net_errors_total{")
    else:
        counters = {}
        for p in res["passes"]:
            add_counters(counters, p["counters"])
        values["trace.replay.checks"] = counters.get("replay.checks_run", 0)
    values["core.incremental.delta_ops"] = _sum_prefix(
        counters, "repro_incremental_delta_ops_total{")
    values["core.incremental.fallbacks"] = _sum_prefix(
        counters, "repro_incremental_fallback_checks_total{")
    values["core.scc.work"] = _sum_prefix(counters, "repro_scc_work_total{")
    if workload == "predict-nearmiss":
        entries = [e for p in res["passes"] for e in p["entries"].values()]
        scanned = sum(e["scanned"] for e in entries)
        confirmed = sum(len(e["reports"]) for e in entries)
        values["predict.candidates.scanned"] = scanned
        values["predict.candidates.confirmed"] = confirmed
        values["predict.confirm_ratio"] = confirmed / scanned if scanned else 0.0
    layer_self = sum(row["self_s"] for row in export["layers"].values())
    values["traced.wall_s"] = res["traced_wall_s"]
    values["traced.residual_s"] = res["traced_wall_s"] - layer_self
    values["traced.overhead"] = res["overhead"]
    return values


def self_time_table(res: dict) -> str:
    wall = res["traced_wall_s"]
    rows = []
    for layer, row in res["spans"]["layers"].items():
        rows.append((layer, f"{row['self_s']:.4f}", f"{100 * row['self_s'] / wall:.1f}%",
                     row["count"]))
    residual = wall - sum(r["self_s"] for r in res["spans"]["layers"].values())
    rows.append(("residual (outside every span)", f"{residual:.4f}",
                 f"{100 * residual / wall:.1f}%", "-"))
    rows.append(("traced wall", f"{wall:.4f}", "100.0%", "-"))
    table = fmt_table(rows, ("layer", "self_s", "share", "count"))
    return table + f"\ntracing overhead: {100 * res['overhead']:+.1f}% wall vs the untraced run"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-test's)")
    parser.add_argument("--break-expectation", action="store_true",
                        help="self-test: check against a wrong ground truth")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    import inputs

    size = inputs.SIZES[args.size]
    try:
        if args.workload == "service-mix":
            import service_load

            res = service_load.run(args, workdir, size, args.break_expectation)
        else:
            res = run_worker_workload(args, workdir, size, args.break_expectation)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in workdir.glob("**/*.trace"):
            leftover.unlink()

    for line in res["errors"][:20]:
        print(f"WRONG: {line}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed  "
          f"error_rate={res['failed'] / res['attempted']:.6f} fraction")
    for line in res.get("notes", ()):
        print(line)
    if "latency" in res:
        lat = res["latency"]
        print(f"latency: p50 {lat['p50_ms']:.6g} ms, p90 {lat['p90_ms']:.6g} ms, "
              f"p99 {lat['p99_ms']:.6g} ms over {lat['samples']} samples")
    if args.trace:
        print(self_time_table(res))
        values = per_layer(args.workload, res)
        units = PER_LAYER
    else:
        values = end_to_end(res)
        units = END_TO_END
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.workload != "service-mix":
        # One pass per input: every later pass was checked equal to it.
        res["counters"] = {}
        for p in res["passes"]:
            res["counters"].setdefault(pathlib.Path(p["input"]).name, p["counters"])
    (workdir / "counters.json").write_text(json.dumps(res["counters"], indent=1, sort_keys=True))
    for name, value in sorted(_flat(res["counters"]).items()):
        print(f"counter {name} = {value:g}")
    (workdir / "metrics.json").write_text(json.dumps(values, indent=1))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
