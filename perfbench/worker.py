"""The process under test for the replay and predict workloads.

Run by ``run.py``, never by hand::

    python worker.py --probe WORKLOAD   # import the stack, say READY, exit
    python worker.py JOB.json           # import, say READY, run the job

``READY`` is printed once the modules the workload calls are imported:
the runner's ``setup_s`` is the time from launch to that line.  The
job's inputs already exist on disk; the worker repeats passes over
them, keeps the fastest time of each part of each input over the passes
(:class:`Fastest`), and reports what the program returned (report
fingerprints, counters) for the runner to check against the ground
truth.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from common import add_counters, digest, flatten_counters, peak_rss_mb, use_program_path

use_program_path()

#: Volatile series that are deterministic once the hash seed is fixed.
WORK_COUNTERS = ("repro_scc_work_total",)


def import_stack(workload: str) -> None:
    if workload.startswith("replay"):
        import repro.trace.codec  # noqa: F401
        import repro.trace.replay  # noqa: F401
        import repro.trace.stream  # noqa: F401
    elif workload.startswith("predict"):
        import repro.predict  # noqa: F401
    else:
        raise ValueError(f"worker runs no {workload!r} workload")


#: Records per stretch: the unit of input whose fastest time over the
#: run's passes counts towards ``records_per_s``.
STRETCH = 256

#: Cycles through the input set that a timed run makes at the least,
#: however short ``--seconds``.
MIN_CYCLES = 3


def _timed_records(records, times: array, kinds: list, first: list):
    """Yield ``records``, timing each from its pull to the next pull: the
    read (and, streamed, the decode), the engine's dispatch and the check
    that follows it (``check_every=1``).  ``kinds`` receives each
    record's kind and ``first`` the clock at the first pull."""
    clock = time.perf_counter_ns
    append = times.append
    start = clock()
    first.append(start)
    for rec in records:
        kinds.append(rec.kind)
        yield rec
        end = clock()
        append(end - start)
        start = end


class Fastest:
    """Per input, the fastest time of each part over the run's passes.

    A replay pass splits into a head (open or load, up to the first
    record), stretches of :data:`STRETCH` records and a tail (the
    engine's work after the last record); sampled records also keep
    their own fastest time, for the latency.  A predict pass splits into
    one part per trace.  Interference from the
    rest of the machine only ever adds time, so the fastest time of each
    part over many passes estimates what the part costs on an undisturbed
    machine, while every part of the input still counts.
    """

    def __init__(self) -> None:
        self.parts: dict = {}
        self.sampled: dict = {}
        self.passes = 0

    def add(self, name, ns: int) -> None:
        old = self.parts.get(name)
        if old is None or ns < old:
            self.parts[name] = ns

    def add_records(self, times: array, kinds: list) -> None:
        for lo in range(0, len(times), STRETCH):
            self.add(f"stretch{lo}", sum(times[lo:lo + STRETCH]))
        from repro.trace.events import RecordKind

        # Blocks and publishes are latency samples; unblocks and context
        # records are not.  A churn trace is exactly half blocks and
        # half unblocks, which put a median over both on the boundary
        # between two populations of different cost.
        sampled = (RecordKind.BLOCK, RecordKind.PUBLISH, RecordKind.PUBLISH_DELTA)
        best = self.sampled
        for i, kind in enumerate(kinds):
            if kind in sampled:
                t = times[i]
                if t < best.get(i, t + 1):
                    best[i] = t

    def export(self) -> dict:
        return {"passes": self.passes, "parts_ns": self.parts,
                "sampled_ns": sorted(self.sampled.values())}


def replay_pass(entry: dict, fastest: Fastest) -> dict:
    from repro.trace import codec, stream as streaming
    from repro.trace.replay import ReplayEngine

    clock = time.perf_counter_ns
    times = array("q")
    kinds: list = []
    started = clock()
    if entry["stream"]:
        records = streaming.iter_load(entry["path"]).lazy_records()
    else:
        records = codec.load_trace(entry["path"]).records
    engine = ReplayEngine(incremental=True, check_every=1)
    first: list = []
    result = engine.run(_timed_records(records, times, kinds, first))
    ended = clock()
    # The records' times are contiguous from the first pull on.
    fastest.add("head", first[0] - started)
    fastest.add("tail", ended - first[0] - sum(times))
    fastest.add_records(times, kinds)
    fastest.passes += 1
    counters = flatten_counters(result.metrics.snapshot(), WORK_COUNTERS)
    counters["replay.checks_run"] = result.checks_run
    return {
        "records": result.records_processed,
        "wall_s": (ended - started) / 1e9,
        "reports": [digest(r.tasks) for r in result.reports],
        "counters": counters,
    }


def predict_pass(job: dict, fastest: Fastest) -> dict:
    """One pass over the grid: ``predict_corpus`` once per trace, which
    is the serial path of ``predict_corpus(corpus)`` with each trace's
    time from file to confirmed predictions taken as its own part."""
    from repro.predict import predict_corpus

    clock = time.perf_counter_ns
    by_path = {}
    records = 0
    counters: dict = {}
    started = clock()
    for path in sorted(f["path"] for f in job["files"]):
        begun = clock()
        result = predict_corpus(path, processes=1)
        fastest.add(path, clock() - begun)
        for entry in result.entries:
            records += entry.result.records
            by_path[str(entry.path)] = {
                "outcome": entry.result.outcome,
                "reports": [digest(p.report.tasks) for p in entry.result.confirmed],
                "scanned": entry.result.candidates_scanned,
                "refuted": entry.result.refuted,
            }
        add_counters(counters, flatten_counters(result.metrics.snapshot()))
    fastest.passes += 1
    return {"records": records, "wall_s": (clock() - started) / 1e9,
            "entries": by_path, "counters": counters}


def run_passes(job: dict, deadline: float, min_cycles: int, fastest: dict) -> list:
    """Passes over the inputs until ``deadline``, and at least
    ``min_cycles`` cycles through the input set.  ``fastest`` maps each
    input to its :class:`Fastest`."""
    passes = []
    files = job.get("files", ())
    cycle = 1 if job["workload"].startswith("predict") else len(files)
    index = 0
    while index < min_cycles * cycle or index % cycle or time.perf_counter() < deadline:
        if job["workload"].startswith("predict"):
            out = predict_pass(job, fastest.setdefault("corpus", Fastest()))
            out["input"] = "corpus"
        else:
            entry = files[index % len(files)]
            out = replay_pass(entry, fastest.setdefault(entry["path"], Fastest()))
            out["input"] = entry["path"]
        passes.append(out)
        index += 1
    return passes


def main(argv) -> int:
    if argv[0] == "--probe":
        import_stack(argv[1])
        print("READY", flush=True)
        return 0
    with open(argv[0]) as fp:
        job = json.load(fp)
    import_stack(job["workload"])
    print("READY", flush=True)

    out = {"workload": job["workload"]}
    if not job["trace"]:
        fastest: dict = {}
        deadline = time.perf_counter() + job["seconds"]
        out["passes"] = run_passes(job, deadline, MIN_CYCLES, fastest)
        out["fastest"] = {path: f.export() for path, f in fastest.items()}
    else:
        import spans

        # The same inputs once untraced, then once traced: the ratio of
        # the two walls is the tracing overhead.
        out["untraced"] = run_passes(job, 0, 1, {})
        recorder = spans.SpanRecorder(job["run_id"])
        spans.install(recorder)
        started = time.perf_counter()
        out["passes"] = run_passes(job, 0, 1, {})
        out["traced_wall_s"] = time.perf_counter() - started
        out["spans"] = recorder.export()
        recorder.dump(job["spans_path"])
    out["peak_rss_mb"] = peak_rss_mb()
    with open(job["result_path"], "w") as fp:
        json.dump(out, fp)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
