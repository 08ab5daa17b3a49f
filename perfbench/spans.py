"""Span recording for the traced run, installed from outside the program.

:func:`install` wraps the public entry points of every layer with a
``perf_counter_ns`` timer, the same way a test patches a method: the
class attribute or module function is replaced, and every module that
imported the function by name gets the wrapper too.  Nothing in the
program changes.

Each call is one span: name, start, end, parent span and workload-run
id.  Spans nest through a per-thread stack, so a span's *self time* is
its duration minus the time its child spans cover.  Every span is
folded into per-name totals (count, total, self, errors); the first
:data:`KEEP_SPANS` spans are also kept whole in memory and written out
by :meth:`SpanRecorder.dump` when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Whole spans kept for the dump; every span is counted regardless.
KEEP_SPANS = 200_000

#: The program's layers, in report order.  A span belongs to the layer
#: its name starts with.
LAYERS = (
    "trace.codec",
    "trace.replay",
    "core.incremental",
    "core.scc",
    "core.checker",
    "distributed.delta",
    "distributed.detector",
    "distributed.store",
    "distributed.net",
    "obs.tracing",
    "obs.registry",
    "predict",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    raise KeyError(f"span {name!r} belongs to no layer")


class SpanRecorder:
    """In-memory span sink with per-name aggregation."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: name -> [count, total_ns, self_ns, errors]
        self.totals: Dict[str, List[int]] = {}
        #: Kept spans: (id, parent id or -1, name, start_ns, end_ns).
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.bytes_read = 0
        #: Work counted at layer boundaries: name -> total.
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn: Callable, name: str,
              name_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records one span.

        ``name_of(args, kwargs)`` may refine the span name per call
        (the service's request handler is named by request op).
        """
        clock = time.perf_counter_ns
        totals = self.totals
        stack_of = self._stack
        ids = self._ids

        def wrapper(*args, **kwargs):
            span_name = name if name_of is None else name_of(args, kwargs)
            stack = stack_of()
            span_id = next(ids)
            frame = [span_id, 0]  # id, child time
            stack.append(frame)
            failed = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = totals.get(span_name)
                if entry is None:
                    entry = totals[span_name] = [0, 0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                entry[3] += failed
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((span_id, parent, span_name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, fn: Callable, name: str) -> Callable:
        """Generator function ``fn`` wrapped so each item pulled is a span."""
        timed_next = self.timed(next, name)

        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = timed_next(items)
                except StopIteration:
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds and span count."""
        table = {layer: {"self_s": 0.0, "count": 0} for layer in LAYERS}
        for name, (count, _total, self_ns, _err) in self.totals.items():
            row = table[layer_of(name)]
            row["self_s"] += self_ns / 1e9
            row["count"] += count
        return table

    def export(self) -> dict:
        return {
            "run_id": self.run_id,
            "bytes_read": self.bytes_read,
            "counts": dict(sorted(self.counts.items())),
            "totals": {k: list(v) for k, v in sorted(self.totals.items())},
            "layers": self.layer_table(),
        }

    def dump(self, path: str, **extra) -> None:
        """Write the kept spans as Chrome trace events plus the totals
        (and any ``extra`` entries beside them)."""
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": start / 1e3, "dur": (end - start) / 1e3,
             "args": {"id": sid, "parent": parent, "run": self.run_id}}
            for sid, parent, name, start, end in self.spans
        ]
        with open(path, "w") as fp:
            json.dump({"traceEvents": events,
                       "perfbench": dict(self.export(), **extra)}, fp)


def _patch_function(module, attr: str, wrapper: Callable) -> None:
    """Replace ``module.attr`` and every by-name import of it in ``repro``."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        if getattr(mod, "__dict__", {}).get(attr) is original:
            setattr(mod, attr, wrapper)


def _patch_method(cls, attr: str, rec: SpanRecorder, name: str, name_of=None) -> None:
    setattr(cls, attr, rec.timed(cls.__dict__[attr], name, name_of))


def _request_op(args, kwargs) -> str:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    op = request.get("op") if isinstance(request, dict) else None
    return f"distributed.net.handle.{op if isinstance(op, str) else 'invalid'}"


def install(rec: SpanRecorder) -> None:
    """Wrap every layer's entry points (imports the whole stack)."""
    # By module path: some packages re-export a function under its
    # module's name (``repro.trace.replay``).
    mod = importlib.import_module
    checker, incremental, scc = (mod(f"repro.core.{m}") for m in
                                 ("checker", "incremental", "scc"))
    delta, detector, store = (mod(f"repro.distributed.{m}") for m in
                              ("delta", "detector", "store"))
    framing, service = (mod(f"repro.distributed.net.{m}") for m in
                        ("framing", "service"))
    registry, tracing = mod("repro.obs.registry"), mod("repro.obs.tracing")
    candidates, engine, hb, witness = (mod(f"repro.predict.{m}") for m in
                                       ("candidates", "engine", "hb", "witness"))
    codec, replay, stream = (mod(f"repro.trace.{m}") for m in
                             ("codec", "replay", "stream"))
    mod("repro.predict")  # binds the package re-exports before patching

    def timed_open(fn, name):
        def opener(path, *args, **kwargs):
            try:
                rec.bytes_read += os.path.getsize(path)
            except OSError:
                pass
            return fn(path, *args, **kwargs)
        return rec.timed(opener, name)

    # trace.codec / trace.stream
    _patch_function(codec, "load_trace", timed_open(codec.load_trace, "trace.codec.load"))
    _patch_function(stream, "iter_load", timed_open(stream.iter_load, "trace.codec.iter_load"))
    _patch_method(codec.BinaryCodec, "decode_record_frame", rec, "trace.codec.decode")
    _patch_method(codec.BinaryCodec, "lazy_record", rec, "trace.codec.lazy")
    stream.StreamedTrace._scan_binary_frames = rec.timed_iter(
        stream.StreamedTrace._scan_binary_frames, "trace.codec.scan")
    # trace.replay
    _patch_method(replay.ReplayEngine, "run", rec, "trace.replay.run")
    # core.incremental / core.scc / core.checker
    _patch_method(incremental.IncrementalChecker, "apply_batch", rec, "core.incremental.apply")
    _patch_method(incremental.IncrementalChecker, "check", rec, "core.incremental.check")
    for attr in ("add_vertex", "add_edge", "remove_edge", "remove_vertex", "end_batch"):
        _patch_method(scc.DynamicSCC, attr, rec, "core.scc.maintain")
    _patch_method(scc._ExtractionBase, "extract_cycle", rec, "core.scc.extract")
    _patch_method(scc._ExtractionBase, "extract_cycle_within", rec, "core.scc.extract_within")
    _patch_method(checker.DeadlockChecker, "check", rec, "core.checker.check")
    record = checker.CheckStats.record

    def counted_record(stats, model_used, edge_count, dt_s, found_cycle,
                       sg_aborted=False):
        counts = rec.counts
        counts["core.checker.edges"] = counts.get("core.checker.edges", 0) + edge_count
        counts["core.checker.sg_aborts"] = (
            counts.get("core.checker.sg_aborts", 0) + bool(sg_aborted))
        return record(stats, model_used, edge_count, dt_s, found_cycle, sg_aborted)

    checker.CheckStats.record = counted_record
    # distributed.delta / detector / store
    _patch_method(delta.DeltaMergeState, "apply_obj", rec, "distributed.delta.apply_obj")
    _patch_method(delta.DeltaMergeState, "apply_bucket", rec, "distributed.delta.apply_bucket")
    _patch_function(delta, "decode_blob", rec.timed(delta.decode_blob, "distributed.delta.decode_blob"))
    _patch_method(detector.DistributedChecker, "sync", rec, "distributed.detector.sync")
    _patch_method(detector.DistributedChecker, "check_global", rec, "distributed.detector.check_global")
    _patch_method(store.InMemoryStore, "append_delta", rec, "distributed.store.append")
    # distributed.net
    _patch_method(service.CheckerServiceCore, "handle", rec, "distributed.net.handle", _request_op)
    _patch_function(framing, "decode_payload", rec.timed(framing.decode_payload, "distributed.net.decode"))
    _patch_function(framing, "encode_frame", rec.timed(framing.encode_frame, "distributed.net.encode"))
    # obs.tracing / obs.registry
    _patch_method(tracing.OriginTracker, "observe", rec, "obs.tracing.observe")
    _patch_function(tracing, "attach_provenance",
                    rec.timed(tracing.attach_provenance, "obs.tracing.attach"))
    for cls, attrs in (
        (registry.Counter, ("inc", "set_total")),
        (registry.BoundCounter, ("inc", "set_total")),
        (registry.Gauge, ("set", "inc", "dec")),
        (registry.Histogram, ("observe",)),
        (registry.BoundHistogram, ("observe",)),
    ):
        for attr in attrs:
            _patch_method(cls, attr, rec, "obs.registry.op")
    # predict
    _patch_function(hb, "build_hb_model", rec.timed(hb.build_hb_model, "predict.hb.build"))
    _patch_method(hb._Builder, "observe", rec, "predict.hb.observe")
    _patch_function(candidates, "extract_intervals",
                    rec.timed(candidates.extract_intervals, "predict.candidates.extract"))
    _patch_function(candidates, "enumerate_candidates",
                    rec.timed(candidates.enumerate_candidates, "predict.candidates.enumerate"))
    _patch_function(witness, "build_witness", rec.timed(witness.build_witness, "predict.witness.build"))
    _patch_method(engine.Predictor, "_confirm", rec, "predict.engine.confirm")
    _patch_method(engine.Predictor, "predict", rec, "predict.engine.predict")


def layer_metrics(export: dict) -> Dict[str, float]:
    """Per-layer metric values from one recorder export (seconds, counts)."""
    totals = export["totals"]

    def self_s(*names: str) -> float:
        return sum(totals.get(n, (0, 0, 0, 0))[2] for n in names) / 1e9

    def count(*names: str) -> int:
        return sum(totals.get(n, (0, 0, 0, 0))[0] for n in names)

    def total_s(*names: str) -> float:
        return sum(totals.get(n, (0, 0, 0, 0))[1] for n in names) / 1e9

    def errors(*names: str) -> int:
        return sum(totals.get(n, (0, 0, 0, 0))[3] for n in names)

    decode = ("trace.codec.load", "trace.codec.iter_load", "trace.codec.scan",
              "trace.codec.decode", "trace.codec.lazy")
    return {
        "trace.codec.decode_s": self_s(*decode),
        "trace.codec.records_decoded": count("trace.codec.decode"),
        "trace.codec.bytes_read": export["bytes_read"],
        "trace.replay.self_s": self_s("trace.replay.run"),
        "core.incremental.apply_s": self_s("core.incremental.apply"),
        "core.incremental.check_s": self_s("core.incremental.check"),
        "core.incremental.checks": count("core.incremental.check"),
        "core.scc.maintain_s": self_s("core.scc.maintain"),
        "core.scc.extract_s": self_s("core.scc.extract", "core.scc.extract_within"),
        "core.checker.check_s": self_s("core.checker.check"),
        "core.checker.checks": count("core.checker.check"),
        "distributed.delta.apply_s": self_s("distributed.delta.apply_obj",
                                            "distributed.delta.apply_bucket",
                                            "distributed.delta.decode_blob"),
        "distributed.delta.deltas": count("distributed.delta.apply_obj",
                                          "distributed.delta.apply_bucket"),
        "distributed.delta.blobs_decoded": count("distributed.delta.decode_blob"),
        "distributed.detector.sync_s": self_s("distributed.detector.sync",
                                              "distributed.detector.check_global"),
        "distributed.detector.syncs": count("distributed.detector.sync"),
        "distributed.store.append_s": self_s("distributed.store.append"),
        "distributed.store.appends": count("distributed.store.append"),
        "distributed.store.gaps": errors("distributed.store.append"),
        "distributed.net.read_s": self_s("distributed.net.decode"),
        "distributed.net.handle_s.append_delta": self_s("distributed.net.handle.append_delta"),
        "distributed.net.handle_s.check": self_s("distributed.net.handle.check"),
        "distributed.net.encode_s": self_s("distributed.net.encode"),
        "obs.tracing.observe_s": self_s("obs.tracing.observe"),
        "obs.tracing.attach_s": self_s("obs.tracing.attach"),
        "obs.tracing.reports": count("obs.tracing.attach"),
        "obs.registry.ops": count("obs.registry.op"),
        "obs.registry.busy_s": self_s("obs.registry.op"),
        "predict.hb.build_s": self_s("predict.hb.build", "predict.hb.observe"),
        "predict.candidates.extract_s": self_s("predict.candidates.extract"),
        "predict.candidates.enumerate_s": self_s("predict.candidates.enumerate"),
        "predict.witness.build_s": self_s("predict.witness.build"),
        # Inclusive: the two confirm replays are the stage's work.
        "predict.engine.confirm_s": total_s("predict.engine.confirm"),
    }
