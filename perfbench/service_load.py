"""The service-mix workload: an open-loop load generator for the checker service.

The service runs in its own process (``python -m repro.distributed serve
--port 0 --no-obs``; the traced run starts it through ``serve_traced.py``
instead, which installs the span wrappers before ``CheckerService.start``).
This process drives it over two connections from one thread, speaking
the length-prefixed framing directly so that requests pipeline.  Every
site is pinned to one connection, so its deltas arrive in sequence.

One run has three phases, their request counts fixed from ``--seconds``:

0. **warm-up** (:data:`WARMUP` requests, untimed): creates the tenants
   and lets the service finish its lazy imports;
1. **rounds**, each a window at the fixed rate (:data:`FIXED_RPS` for
   :data:`WINDOW_S` s, open loop, each request timed from the moment it
   was *due*) followed by a burst (:data:`BURST` requests, closed loop,
   :data:`WINDOW` in flight per connection).  Rounds spread both
   measurements over the whole run, so that a spell of interference from
   the rest of the machine moves some windows and bursts but not all.
   Windows send the same mix, and so do bursts, so the run's latency
   takes each window slot's fastest latency over the windows and its
   throughput each burst chunk's fastest time over the bursts;
2. **ladder** (:data:`LADDER_RPS`, :data:`LADDER_STEP_S` s each): the
   capacity, the highest rate whose publish p99 meets
   :data:`LATENCY_LIMIT_MS` with no backlog left at the step's end.

Every :data:`CHECK_EVERY`-th request is a ``check``, rotating over the
tenants.  Every response is verified; after the load, the knot tenant's
report is byte-compared with an in-process ``CheckerServiceCore`` fed the
same appends.
"""

from __future__ import annotations

import collections
import gc
import json
import math
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    BENCH_DIR,
    SETUP_PROBES,
    BenchError,
    digest,
    median,
    peak_rss_mb,
    program_env,
    quantile,
)

FIXED_RPS = 1000
LADDER_RPS = (2000, 4000, 6000, 8000)
LATENCY_LIMIT_MS = 20.0
#: One round is a fixed-rate window of :data:`WINDOW_S` seconds, then a
#: closed-loop burst of :data:`BURST` requests.
WINDOW_S = 0.4
BURST = 1000
BURST_CHUNK = 100
#: Planned length of one round and of one ladder step, in seconds; the
#: run fits ``ROUND_SHARE * --seconds`` of rounds.
ROUND_S = 0.52
ROUND_SHARE = 0.85
LADDER_STEP_S = 0.25
#: How long before a request's due time the generator stops sleeping.
SPIN_S = 0.002
WINDOW = 32
CHECK_EVERY = 20
#: Untimed requests first: they create every tenant and finish the
#: service's lazy imports, a one-off cost no later request pays.
WARMUP = 400
# WARMUP, a window's request count and BURST are multiples of
# CHECK_EVERY, so every window and every burst has its checks at the
# same positions.
CONNECTIONS = 2
APPEND_OK = b'{"ok":true,"value":null}'
#: How long the service may leave requests unanswered before the run
#: gives up on it.
STALL_S = 10.0


# ---------------------------------------------------------------------------
# the process under test
# ---------------------------------------------------------------------------
def _launch(traced: bool, spans_path: str, run_id: str):
    if traced:
        argv = [sys.executable, "serve_traced.py", spans_path, run_id]
    else:
        argv = [sys.executable, "-m", "repro.distributed", "serve",
                "--port", "0", "--no-obs"]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=program_env(),
                            cwd=str(BENCH_DIR), preexec_fn=_default_sigint)
    try:
        port = _read_port(proc)
        sock = _ping(port)
    except BaseException:
        _stop(proc)
        raise
    return proc, port, sock, time.perf_counter() - started


def _default_sigint() -> None:
    """Give the service the default SIGINT action.

    A shell starting the benchmark in the background ignores SIGINT,
    and an ignored signal stays ignored across ``exec``; the service's
    clean shutdown is its SIGINT handler."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _read_port(proc) -> int:
    """The port from the service's ``checker service on HOST:PORT`` line."""
    deadline = time.monotonic() + 60
    buf = b""
    fd = proc.stderr.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while time.monotonic() < deadline:
            if not sel.select(deadline - time.monotonic()):
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            *lines, _partial = buf.decode(errors="replace").split("\n")
            for line in lines:
                if line.startswith("checker service on "):
                    return int(line.split()[3].rsplit(":", 1)[1])
    raise BenchError(f"service did not start: {buf.decode(errors='replace')[-2000:]}")


def _ping(port: int) -> socket.socket:
    """Connect and wait for the first ``ping`` answer."""
    deadline = time.monotonic() + 30
    while True:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise BenchError("service never accepted a connection")
            time.sleep(0.01)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(_frame({"op": "ping"}))
    reply = _recv_frame(sock)
    if not json.loads(reply).get("ok"):
        raise BenchError(f"ping refused: {reply!r}")
    return sock


def _recv_frame(sock: socket.socket) -> bytes:
    def exactly(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("service closed the connection")
            buf += chunk
        return buf

    return exactly(int.from_bytes(exactly(4), "big"))


def _frame(obj) -> bytes:
    from repro.distributed.net.framing import encode_frame

    return encode_frame(obj)


def _stop(proc) -> None:
    """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stderr is not None:
        proc.stderr.close()


# ---------------------------------------------------------------------------
# the request plan
# ---------------------------------------------------------------------------
def plan_phases(seconds: float) -> List[dict]:
    phases = [{"name": "warmup", "rps": None, "n": WARMUP}]
    for r in range(max(2, round(ROUND_SHARE * seconds / ROUND_S))):
        phases.append({"name": f"window-{r}", "rps": FIXED_RPS, "n": round(WINDOW_S * FIXED_RPS)})
        phases.append({"name": f"burst-{r}", "rps": None, "n": BURST})
    for rps in LADDER_RPS:
        phases.append({"name": f"ladder-{rps}", "rps": rps, "n": int(rps * LADDER_STEP_S)})
    return phases


def build_requests(data: dict, total: int):
    """Interleave appends (round-robin over sites) with checks.

    Every request of a tenant goes over the same connection, so the
    service sees each tenant's requests in plan order (and so does the
    in-process reference).  Returns parallel lists: connection, frame,
    kind (``a``/``c``), tenant, and for appends (site index, delta
    index)."""
    conns, frames, kinds, tenants, origin = [], [], [], [], []
    sites = data["sites"]
    tenant_names = data["tenants"]
    conn_of = {t: i % CONNECTIONS for i, t in enumerate(tenant_names)}
    cursor = [0] * len(sites)
    next_site = 0
    next_check = 0
    for slot in range(total):
        if slot % CHECK_EVERY == CHECK_EVERY - 1:
            tenant = tenant_names[next_check % len(tenant_names)]
            frames.append(data["check_frames"][tenant])
            kinds.append("c")
            origin.append(None)
            next_check += 1
        else:
            s = next_site % len(sites)
            next_site += 1
            tenant = sites[s]["tenant"]
            frames.append(sites[s]["frames"][cursor[s]])
            kinds.append("a")
            origin.append((s, cursor[s]))
            cursor[s] += 1
        conns.append(conn_of[tenant])
        tenants.append(tenant)
    return conns, frames, kinds, tenants, origin


# ---------------------------------------------------------------------------
# the generator loop
# ---------------------------------------------------------------------------
class _Conn:
    __slots__ = ("sock", "out", "inbuf", "fifo")

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        self.fifo = collections.deque()


def drive(conns, conns_of, frames, kinds, lo: int, hi: int, rps, timing: dict) -> dict:
    """Send requests ``lo..hi`` and collect their answers.

    Open loop when ``rps`` is a rate: request ``i`` is due at
    ``start + (i - lo) / rps`` and sent then, whatever is outstanding.
    Closed loop when ``rps`` is None: at most :data:`WINDOW` requests in
    flight per connection.  ``timing`` receives per-request due, send and
    receive times (``perf_counter``) and response bytes where needed.
    A service that answers nothing for :data:`STALL_S` ends the run."""
    clock = time.perf_counter
    due, sent, recv, resp = timing["due"], timing["sent"], timing["recv"], timing["resp"]
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    start = clock()
    if rps is not None:
        for i in range(lo, hi):
            due[i] = start + (i - lo) / rps
    i = lo
    inflight_max = 0
    progress = start
    try:
        while i < hi or any(c.fifo for c in conns):
            now = clock()
            if now - progress > STALL_S:
                raise BenchError(f"service answered nothing for {STALL_S} s")
            while i < hi:
                c = conns[conns_of[i]]
                if rps is not None:
                    if due[i] > now:
                        break
                elif len(c.fifo) >= WINDOW:
                    break
                else:
                    due[i] = now
                c.out += frames[i]
                c.fifo.append(i)
                sent[i] = now
                progress = now
                i += 1
            inflight = sum(len(c.fifo) for c in conns)
            if inflight > inflight_max:
                inflight_max = inflight
            for c in conns:
                if c.out:
                    try:
                        n = c.sock.send(c.out)
                    except BlockingIOError:
                        n = 0
                    del c.out[:n]
            pending_out = any(c.out for c in conns)
            if pending_out:
                timeout = 0
            elif rps is not None and i < hi:
                # Wake early and poll the last stretch: a sleeping
                # generator wakes late on a VM, and lateness would read
                # as service latency.
                timeout = max(0.0, due[i] - clock() - SPIN_S)
            else:
                timeout = 0.05
            for key, _ in sel.select(timeout):
                c = key.data
                try:
                    chunk = c.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise BenchError("service closed a connection")
                now = progress = clock()
                buf = c.inbuf
                buf += chunk
                pos = 0
                while len(buf) - pos >= 4:
                    length = int.from_bytes(buf[pos:pos + 4], "big")
                    if len(buf) - pos - 4 < length:
                        break
                    payload = bytes(buf[pos + 4:pos + 4 + length])
                    pos += 4 + length
                    j = c.fifo.popleft()
                    recv[j] = now
                    if kinds[j] == "c" or payload != APPEND_OK:
                        resp[j] = payload
                del buf[:pos]
    finally:
        sel.close()
    return {"start": start, "end": clock(), "inflight_max": inflight_max}


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------
def _reference_knot_report(data: dict, kinds, tenants, origin, upto: int) -> bytes:
    """The knot tenant's report from an in-process service core fed the
    same appends, in the same order, as the wire service."""
    from repro.distributed.net.service import CheckerServiceCore

    core = CheckerServiceCore()
    knot = data["knot_tenant"]
    for j in range(upto):
        if kinds[j] == "a" and tenants[j] == knot:
            s, d = origin[j]
            site = data["sites"][s]
            reply = core.handle({"op": "append_delta", "tenant": knot,
                                 "site": site["site"], "obj": site["deltas"][d]})
            if not reply["ok"]:
                raise BenchError(f"reference core refused an append: {reply}")
    reply = core.handle({"op": "check", "tenant": knot})
    return json.dumps(reply["value"], sort_keys=True).encode()


def _one_run(traced: bool, spans_path: str, run_id: str, data: dict, plan, reqs) -> dict:
    conns_of, frames, kinds, tenants, origin = reqs
    n = len(frames)
    timing = {"due": [0.0] * n, "sent": [0.0] * n, "recv": [0.0] * n, "resp": [None] * n}
    proc, port, first, setup = _launch(traced, spans_path, run_id)
    try:
        socks = [first] + [_ping(port) for _ in range(CONNECTIONS - 1)]
        conns = [_Conn(sock) for sock in socks]
        phase_runs = []
        lo = 0
        # The generator's own collector pauses would read as service
        # latency; its garbage is bounded by the run, so defer it.
        gc.collect()
        gc.disable()
        try:
            for phase in plan:
                hi = lo + phase["n"]
                info = drive(conns, conns_of, frames, kinds, lo, hi, phase["rps"], timing)
                info.update(phase, lo=lo, hi=hi)
                phase_runs.append(info)
                lo = hi
        finally:
            gc.enable()
        for sock in socks:
            sock.setblocking(True)
        # The final, quiescent knot check: every append is acknowledged.
        knot_frame = data["check_frames"][data["knot_tenant"]]
        first.sendall(knot_frame)
        final = json.loads(_recv_frame(first))
        first.sendall(_frame({"op": "health"}))
        health = json.loads(_recv_frame(first))
        for s in socks:
            s.close()
        rss_mb = peak_rss_mb(proc.pid)
    finally:
        _stop(proc)
    if proc.returncode not in (0, -signal.SIGINT):
        raise BenchError(f"service exited with {proc.returncode}")
    return {"setup": setup, "timing": timing, "phases": phase_runs,
            "final": final, "health": health, "peak_rss_mb": rss_mb}


def _verify(data: dict, reqs, run: dict, reference: bytes, knot_digest: str,
            errors: List[str]) -> int:
    conns_of, frames, kinds, tenants, origin = reqs
    timing = run["timing"]
    failed = 0
    knot = data["knot_tenant"]
    knot_sites = [i for i, site in enumerate(data["sites"]) if site["knot"]]
    knot_from = max(origin.index((i, 0)) for i in knot_sites)
    for j in range(len(frames)):
        if timing["recv"][j] == 0.0:
            failed += 1
            errors.append(f"request {j} ({kinds[j]}) unanswered")
            continue
        body = timing["resp"][j]
        if kinds[j] == "a":
            if body is not None:
                failed += 1
                errors.append(f"append {j} answered {body[:200]!r}")
            continue
        reply = json.loads(body)
        value = reply.get("value")
        if not reply.get("ok"):
            ok = False
        elif tenants[j] == knot and j > knot_from:
            ok = value is not None and digest(value["tasks"]) == knot_digest
        else:
            ok = value is None
        if not ok:
            failed += 1
            errors.append(f"check {j} on {tenants[j]} answered {body[:200]!r}")
    final = run["final"]
    wire = json.dumps(final.get("value"), sort_keys=True).encode()
    if not final.get("ok") or wire != reference:
        failed += 1
        errors.append("final knot report differs from the in-process reference")
    return failed


def _latencies(kinds, timing, lo, hi, kind) -> List[float]:
    """Milliseconds from due time to answer, for requests of ``kind``."""
    due, recv = timing["due"], timing["recv"]
    return [(recv[j] - due[j]) * 1e3 for j in range(lo, hi) if kinds[j] == kind]


def _summarise(reqs, run: dict) -> dict:
    conns_of, frames, kinds, tenants, origin = reqs
    timing = run["timing"]
    out: Dict[str, float] = {}
    windows = [p for p in run["phases"] if p["name"].startswith("window")]
    bursts = [p for p in run["phases"] if p["name"].startswith("burst")]
    pub, chk, p50s = [], [], []
    fastest: List[float] = []
    for w in windows:
        lat = _latencies(kinds, timing, w["lo"], w["hi"], "a")
        pub += lat
        chk += _latencies(kinds, timing, w["lo"], w["hi"], "c")
        p50s.append(quantile(lat, .5))
        # Every window sends the same mix too, so each append slot keeps
        # its fastest latency over the windows, as a replay record does
        # over replay passes.
        fastest = [min(x, y) for x, y in zip(fastest, lat)] or lat
    out["publish_p50_ms"], out["publish_p99_ms"] = quantile(pub, .5), quantile(pub, .99)
    out["check_p50_ms"], out["check_p99_ms"] = quantile(chk, .5), quantile(chk, .99)
    out["publish_samples"], out["check_samples"] = len(pub), len(chk)
    out["window_p50s_ms"] = p50s
    out["latency"] = {"p50_ms": quantile(fastest, .5), "p90_ms": quantile(fastest, .9),
                      "p99_ms": quantile(fastest, .99), "samples": len(fastest)}
    # Every burst sends the same mix (its checks sit at the same
    # positions), so the bursts are passes over one stretch of work:
    # each chunk of BURST_CHUNK answers counts with its fastest time
    # over the bursts, as a replay stretch does over replay passes.
    rates, fastest_chunks = [], []
    for b in bursts:
        recv = sorted(timing["recv"][b["lo"]:b["hi"]])
        rates.append(kinds[b["lo"]:b["hi"]].count("a") / (recv[-1] - b["start"]))
        marks = [b["start"]] + recv[BURST_CHUNK - 1::BURST_CHUNK]
        chunks = [marks[k + 1] - marks[k] for k in range(len(marks) - 1)]
        fastest_chunks = [min(x, y) for x, y in zip(fastest_chunks, chunks)] or chunks
    out["burst_rates"] = rates
    appends = kinds[bursts[0]["lo"]:bursts[0]["hi"]].count("a")
    out["burst_records_per_s"] = appends / sum(fastest_chunks)
    out["burst_s"] = sum(b["end"] - b["start"] for b in bursts)
    capacity = 0
    for phase in run["phases"]:
        if not phase["name"].startswith("ladder"):
            continue
        lat = _latencies(kinds, timing, phase["lo"], phase["hi"], "a")
        end_due = timing["due"][phase["hi"] - 1]
        backlog = sum(1 for j in range(phase["lo"], phase["hi"])
                      if timing["recv"][j] > end_due + LATENCY_LIMIT_MS / 1e3)
        passed = (lat and quantile(lat, .99) <= LATENCY_LIMIT_MS
                  and backlog <= phase["rps"] * LATENCY_LIMIT_MS / 1e3)
        phase["p99_ms"] = quantile(lat, .99) if lat else math.inf
        phase["passed"] = bool(passed)
        if not passed:
            break
        capacity = phase["rps"]
    out["capacity_rps"] = capacity
    lateness = [(timing["sent"][j] - timing["due"][j]) * 1e3
                for p in run["phases"] if p["rps"] for j in range(p["lo"], p["hi"])]
    out["late_p99_ms"] = quantile(lateness, .99)
    out["late_max_ms"] = max(lateness)
    out["inflight_max"] = max(p["inflight_max"] for p in run["phases"] if p["rps"])
    warmup = run["phases"][0]
    out["warmup_s"] = warmup["end"] - warmup["start"]
    out["load_wall_s"] = max(timing["recv"]) - run["phases"][1]["start"]
    sent_lat = [timing["recv"][j] - timing["sent"][j]
                for w in windows for j in range(w["lo"], w["hi"])]
    out["window_mean_latency_from_send_ms"] = sum(sent_lat) / len(sent_lat) * 1e3
    return out


def _probe_setups(count: int) -> List[float]:
    times = []
    for _ in range(count):
        proc, _port, sock, setup = _launch(False, "", "")
        sock.close()
        _stop(proc)
        times.append(setup)
    return times


def _counters(reqs, run: dict) -> Dict[str, float]:
    """Deterministic counts: requests by op and tenant state after the load."""
    conns_of, frames, kinds, tenants, origin = reqs
    out: Dict[str, float] = {
        "requests.append_delta": kinds.count("a"),
        "requests.check": kinds.count("c"),
    }
    for name, doc in sorted(run["health"]["value"]["tenants"].items()):
        out[f"tenant.{name}.blocked_tasks"] = doc["blocked_tasks"]
        out[f"tenant.{name}.report_count"] = doc["report_count"]
        out[f"tenant.{name}.sites"] = len(doc["sites"])
    return out


def run(args, workdir, size: dict, break_expectation: bool) -> dict:
    import inputs

    plan = plan_phases(args.seconds)
    total = sum(p["n"] for p in plan)
    n_sites = size["tenants"] * size["sites_per_tenant"]
    appends = total - total // CHECK_EVERY
    data = inputs.service_mix(args.seed, size, appends // n_sites + 2)
    knot_digest = "0" * 16 if break_expectation else data["knot_digest"]
    reqs = build_requests(data, total)
    reference = _reference_knot_report(data, reqs[2], reqs[3], reqs[4], total)

    setups = _probe_setups(SETUP_PROBES // 2)
    errors: List[str] = []
    runs = [("untraced", False)] + ([("traced", True)] if args.trace else [])
    results = {}
    failed = 0
    attempted = 0
    for label, traced in runs:
        spans_path = str(workdir / "spans.json")
        try:
            one = _one_run(traced, spans_path, f"service-mix/seed{args.seed}", data, plan, reqs)
        except OSError as exc:
            raise BenchError(f"talking to the service failed: {exc!r}") from exc
        failed += _verify(data, reqs, one, reference, knot_digest, errors)
        attempted += total + 1
        one["summary"] = _summarise(reqs, one)
        one["counters"] = _counters(reqs, one)
        results[label] = one
    if args.trace and results["traced"]["counters"] != results["untraced"]["counters"]:
        failed += 1
        errors.append("service counters differ between the untraced and traced runs")
    base = results["untraced"]
    setups += _probe_setups(SETUP_PROBES - SETUP_PROBES // 2) + [base["setup"]]
    s = base["summary"]
    notes = [
        f"service (untraced, open loop at {FIXED_RPS} req/s, 1 check per {CHECK_EVERY}, "
        f"all windows): "
        f"publish p50 {s['publish_p50_ms']:.3f} ms p99 {s['publish_p99_ms']:.3f} ms "
        f"(n={s['publish_samples']}); check p50 {s['check_p50_ms']:.3f} ms "
        f"p99 {s['check_p99_ms']:.3f} ms (n={s['check_samples']})",
        f"capacity_rps = {s['capacity_rps']} requests/s (ladder {LADDER_RPS}, "
        f"publish p99 limit {LATENCY_LIMIT_MS} ms)",
        f"bursts of {BURST} requests, {WINDOW}x{CONNECTIONS} in flight: "
        f"{s['burst_records_per_s']:.0f} appends/s from the fastest chunks, whole bursts "
        f"fastest {max(s['burst_rates']):.0f}, median {median(s['burst_rates']):.0f}; "
        f"lowest window p50 {min(s['window_p50s_ms']):.3f} ms, median "
        f"{median(s['window_p50s_ms']):.3f} ms, over {len(s['burst_rates'])} rounds",
        f"loadgen: late p99 {s['late_p99_ms']:.3f} ms max {s['late_max_ms']:.3f} ms; "
        f"in-flight max {s['inflight_max']}; untimed warm-up of {WARMUP} requests "
        f"took {s['warmup_s']:.3f} s",
    ]
    result = {
        "attempted": attempted, "failed": failed, "errors": errors, "notes": notes,
        "setup_s": median(setups), "peak_rss_mb": base["peak_rss_mb"],
        "records_per_s": s["burst_records_per_s"],
        "latency": s["latency"],
        "counters": base["counters"],
    }
    (workdir / "counters.json").write_text(json.dumps(base["counters"], indent=1))
    (workdir / "summary.json").write_text(json.dumps(s, indent=1))
    if args.trace:
        ts = results["traced"]["summary"]
        with open(workdir / "spans.json") as fp:
            export = json.load(fp)["perfbench"]
        totals = export["totals"]
        server = [name for name in totals if name.startswith("distributed.net.")]
        server_ns = sum(totals[name][1] for name in server)
        handled = sum(totals[name][0] for name in server
                      if name.startswith("distributed.net.handle."))
        layer_self = sum(row["self_s"] for row in export["layers"].values())
        result.update(
            spans=export,
            program_counters=export["registry"],
            traced_wall_s=ts["load_wall_s"],
            overhead=ts["burst_s"] / s["burst_s"] - 1,
            layer_extra={
                # Fixed-rate windows only: the bursts queue by design.
                "distributed.net.queue_ms": ts["window_mean_latency_from_send_ms"]
                - server_ns / max(1, handled) / 1e6,
                "distributed.net.busy_share": layer_self / ts["load_wall_s"],
                "loadgen.late_ms": ts["late_p99_ms"],
                "loadgen.inflight_max": ts["inflight_max"],
            },
        )
    return result
