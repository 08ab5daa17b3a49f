"""Seeded inputs and their ground truth, one generator per workload.

The program's generators (``repro.trace.corpus``) are closed-form and
take no seed, so the seed enters by renaming: every task, phaser, site
and stream identifier of a generated trace is replaced by a token drawn
from ``random.Random(seed)``.  Sizes stay fixed, so two seeds cost the
same work while differing in every byte that names something (and in
every hash-ordered walk over those names).  The ground truth is carried
through the same renaming.
"""

from __future__ import annotations

import pathlib
import random
from typing import Dict, List, Mapping

from common import digest, use_program_path

use_program_path()

from repro.core.events import BlockedStatus, Event, waiting_on  # noqa: E402
from repro.distributed.delta import DeltaPublisher, encode_bucket  # noqa: E402
from repro.distributed.net.framing import encode_frame  # noqa: E402
from repro.trace import events as ev  # noqa: E402
from repro.trace.codec import save_trace  # noqa: E402
from repro.trace.corpus import (  # noqa: E402
    AioSpec,
    NearMissSpec,
    ScenarioSpec,
    build_trace,
)
from repro.trace.events import RecordKind, Trace, TraceHeader  # noqa: E402

#: Input sizes: ``full`` is what the benchmark measures; ``tiny`` is
#: what its self-test runs.
SIZES = {
    "full": {
        "churn_tasks": 1000,
        "ring_tasks": 3000, "cycle_len": 150, "cycle_fan_out": 2,
        "cycle_sites": 4, "cycle_rounds": 6,
        "chains": (8, 16, 24), "chain_rounds": 4,
        "tenants": 4, "sites_per_tenant": 2, "site_tasks": 8,
    },
    "tiny": {
        "churn_tasks": 40,
        "ring_tasks": 40, "cycle_len": 6, "cycle_fan_out": 2,
        "cycle_sites": 2, "cycle_rounds": 1,
        "chains": (3,), "chain_rounds": 1,
        "tenants": 2, "sites_per_tenant": 2, "site_tasks": 4,
    },
}


class Names:
    """Seeded, collision-free renaming, one namespace per prefix."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.maps: Dict[str, Dict[str, str]] = {}
        self.used: set = set()

    def __call__(self, prefix: str, name) -> str:
        table = self.maps.setdefault(prefix, {})
        key = str(name)
        mapped = table.get(key)
        if mapped is None:
            while True:
                mapped = f"{prefix}{self.rng.getrandbits(40):010x}"
                if mapped not in self.used:
                    break
            self.used.add(mapped)
            table[key] = mapped
        return mapped

    def task(self, name) -> str:
        return self("t", name)

    def phaser(self, name) -> str:
        return self("p", name)


def _rename_status(status: BlockedStatus, names: Names) -> BlockedStatus:
    return BlockedStatus(
        waits=frozenset(Event(names.phaser(e.phaser), e.phase) for e in status.waits),
        registered={names.phaser(p): n for p, n in status.registered.items()},
        generation=status.generation,
    )


def _rename_blobs(blobs: Mapping, names: Names) -> Dict[str, dict]:
    out = {}
    for task, blob in blobs.items():
        out[names.task(task)] = {
            "waits": sorted([names.phaser(p), n] for p, n in blob["waits"]),
            "registered": dict(sorted(
                (names.phaser(p), n) for p, n in blob["registered"].items()
            )),
            "generation": blob.get("generation", 0),
        }
    return out


def rename_trace(trace: Trace, names: Names) -> Trace:
    """``trace`` with every identifier replaced through ``names``."""
    records = []
    for rec in trace.records:
        kind = rec.kind
        if kind is RecordKind.BLOCK:
            records.append(ev.block(
                rec.seq, names.task(rec.task), _rename_status(rec.status, names)
            ))
        elif kind is RecordKind.UNBLOCK:
            records.append(ev.unblock(rec.seq, names.task(rec.task)))
        elif kind in (RecordKind.REGISTER, RecordKind.ADVANCE):
            make = ev.register if kind is RecordKind.REGISTER else ev.advance
            records.append(make(
                rec.seq, names.task(rec.task), names.phaser(rec.phaser), rec.phase
            ))
        elif kind is RecordKind.PUBLISH_DELTA:
            delta = rec.payload
            records.append(ev.publish_delta(rec.seq, names("s", rec.site), {
                "v": delta.get("v", 1),
                "stream": names("c", delta["stream"]),
                "seq": delta["seq"],
                "kind": delta["kind"],
                "set": _rename_blobs(delta["set"], names),
                "restore": _rename_blobs(delta["restore"], names),
                "clear": sorted(names.task(t) for t in delta["clear"]),
            }))
        else:
            raise ValueError(f"generator emitted an unexpected {kind} record")
    header = TraceHeader(version=trace.header.version, meta=dict(trace.header.meta))
    return Trace(header=header, records=tuple(records))


def _write(trace: Trace, path: pathlib.Path) -> dict:
    save_trace(trace, path)
    return {"path": str(path), "records": len(trace.records)}


def _all_tasks(trace: Trace) -> List[str]:
    seen = {}
    for rec in trace.records:
        if rec.kind is RecordKind.PUBLISH_DELTA:
            for task in rec.payload["set"]:
                seen.setdefault(task, None)
        elif rec.kind in (RecordKind.BLOCK, RecordKind.UNBLOCK):
            seen.setdefault(rec.task, None)
    return list(seen)


# ---------------------------------------------------------------------------
# trace workloads
# ---------------------------------------------------------------------------
def replay(out: pathlib.Path, seed: int, size: dict) -> dict:
    """The replay inputs: the churn trace, streamed, then the ring and
    the knot, loaded eagerly (see :func:`replay_churn`,
    :func:`replay_ring`)."""
    return {"files": replay_churn(out, seed, size) + replay_ring(out, seed, size)}


def replay_churn(out: pathlib.Path, seed: int, size: dict) -> List[dict]:
    """A single-site churn ok-trace: no report is the ground truth."""
    rng = random.Random(f"replay-churn/{seed}")
    base = build_trace(AioSpec(tasks=size["churn_tasks"], shape="churn", deadlock=False))
    entry = _write(rename_trace(base, Names(rng)), out / "churn.trace")
    entry.update(expect=[], stream=True)
    return [entry]


def replay_ring(out: pathlib.Path, seed: int, size: dict) -> List[dict]:
    """A single-site phaser ring plus a multi-site cycle×fan-out knot.

    Ground truth, one report each: the ring reports every task; the
    cycle×fan-out knot reports every task of groups ``g0..g{L-2}`` plus
    the closing group's first member ``g{L-1}t0`` (its siblings block
    after the report).
    """
    rng = random.Random(f"replay-ring/{seed}")
    ring = build_trace(AioSpec(tasks=size["ring_tasks"], shape="cycle", deadlock=True))
    length, fan = size["cycle_len"], size["cycle_fan_out"]
    knot = build_trace(ScenarioSpec(
        cycle_len=length, fan_out=fan, sites=size["cycle_sites"],
        rounds=size["cycle_rounds"], deadlock=True,
    ))
    files = []
    names = Names(rng)
    renamed = rename_trace(ring, names)
    entry = _write(renamed, out / "ring.trace")
    entry.update(expect=[digest(names.task(t) for t in _all_tasks(ring))], stream=False)
    files.append(entry)
    names = Names(rng)
    renamed = rename_trace(knot, names)
    expected = [f"g{g}t{j}" for g in range(length - 1) for j in range(fan)]
    expected.append(f"g{length - 1}t0")
    entry = _write(renamed, out / "knot.trace")
    entry.update(expect=[digest(names.task(t) for t in expected)], stream=False)
    files.append(entry)
    return files


def predict_nearmiss(out: pathlib.Path, seed: int, size: dict) -> dict:
    """Near-miss grid: every hit predicts its chain, every control nothing."""
    rng = random.Random(f"predict-nearmiss/{seed}")
    corpus = out / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    files = []
    for chain in size["chains"]:
        for sites in (1, 2):
            for realisable in (True, False):
                spec = NearMissSpec(chain_len=chain, rounds=size["chain_rounds"],
                                    sites=sites, realisable=realisable)
                names = Names(rng)
                trace = rename_trace(build_trace(spec), names)
                entry = _write(trace, corpus / f"{spec.name}.trace")
                entry["expect"] = (
                    [digest(names.task(f"t{i}") for i in range(chain))]
                    if realisable else []
                )
                files.append(entry)
    return {"files": files}


# ---------------------------------------------------------------------------
# the service workload
# ---------------------------------------------------------------------------
def _site_deltas(publisher: DeltaPublisher, fixed: Dict[str, BlockedStatus],
                 churn: List[tuple], count: int) -> List[dict]:
    """``count`` phase-churn deltas for one site.

    ``churn`` holds ``(task, phaser)`` pairs; round ``r`` moves task
    ``r mod k`` to its next phase, so every delta is one ``restore``
    op.  ``fixed`` statuses (the planted knot) never change after the
    first snapshot.
    """
    statuses = dict(fixed)
    for task, phaser in churn:
        statuses[task] = waiting_on(phaser, 1, **{phaser: 1})
    out = [publisher.prepare(encode_bucket(statuses))]
    publisher.commit(out[0])
    for r in range(count - 1):
        task, phaser = churn[r % len(churn)]
        phase = r // len(churn) + 2
        statuses[task] = waiting_on(phaser, phase, **{phaser: phase})
        obj = publisher.prepare(encode_bucket(statuses))
        publisher.commit(obj)
        out.append(obj)
    return out


def service_mix(seed: int, size: dict, appends_per_site: int) -> dict:
    """Pre-encoded request frames for the service workload.

    Tenants ``0..n-2`` carry acyclic phase churn; the last tenant also
    holds a cross-site knot (task ``a`` on its first site waits for
    task ``b`` on its second, and back), so its checks take the
    extraction path and report exactly ``{a, b}``.
    """
    rng = random.Random(f"service-mix/{seed}")
    names = Names(rng)
    tenants = [names("n", i) for i in range(size["tenants"])]
    knot_tenant = tenants[-1]
    sites = []  # (tenant, site, [frame bytes], [delta objs])
    knot_tasks = (names.task("a"), names.task("b"))
    gates = (names.phaser("gate-p"), names.phaser("gate-q"))
    for ti, tenant in enumerate(tenants):
        for si in range(size["sites_per_tenant"]):
            site = names("s", f"{ti}/{si}")
            churn = [(names.task(f"{ti}/{si}/{k}"), names.phaser(f"{ti}/{si}/{k}"))
                     for k in range(size["site_tasks"])]
            fixed = {}
            if tenant == knot_tenant and si < 2:
                mine, other = gates[si], gates[1 - si]
                fixed[knot_tasks[si]] = waiting_on(mine, 1, **{mine: 1, other: 0})
            publisher = DeltaPublisher(site, stream=names("c", site))
            deltas = _site_deltas(publisher, fixed, churn, appends_per_site)
            frames = [
                encode_frame({"op": "append_delta", "tenant": tenant,
                              "site": site, "obj": obj})
                for obj in deltas
            ]
            sites.append({"tenant": tenant, "site": site, "frames": frames,
                          "deltas": deltas, "knot": bool(fixed)})
    checks = {t: encode_frame({"op": "check", "tenant": t}) for t in tenants}
    return {
        "tenants": tenants,
        "knot_tenant": knot_tenant,
        "knot_digest": digest(knot_tasks),
        "sites": sites,
        "check_frames": checks,
    }

