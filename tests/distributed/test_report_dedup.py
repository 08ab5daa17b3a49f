"""One deadlock, one logged report — in every layer.

Replay, the checker service's tenants and a ``Site`` all keep a report
log and de-duplicate it on the same key: the cycle's vertex set.  A
task that later blocks behind a persisting deadlock grows the report's
task set but not its cycle, so it must not log a second report.
"""

from __future__ import annotations

from repro.core.events import waiting_on
from repro.distributed.delta import DeltaPublisher, encode_bucket
from repro.distributed.net.service import TenantChecker
from repro.distributed.site import Site
from repro.distributed.store import InMemoryStore
from repro.trace import events as ev
from repro.trace.replay import replay

#: The crossed knot: ``a`` waits on ``p@1`` held back by ``b`` (still at
#: ``p`` phase 0), ``b`` waits on ``q@1`` held back by ``a``.
KNOT = {
    "a": waiting_on("p", 1, p=1, q=0),
    "b": waiting_on("q", 1, q=1, p=0),
}
#: A third task piling onto ``p@1``: it joins the report's tasks, not
#: its cycle.
LATE = {"c": waiting_on("p", 1, p=1)}

CYCLE = ("p@1", "q@1", "p@1")


def cycle_names(report):
    return tuple(str(v) for v in report.cycle)


def test_replay_logs_one_report():
    records = [
        ev.block(seq, task, status)
        for seq, (task, status) in enumerate({**KNOT, **LATE}.items())
    ]
    outcome = replay(ev.Trace(header=ev.TraceHeader(), records=records),
                     check_every=1)
    assert len(outcome.reports) == 1
    assert cycle_names(outcome.reports[0]) == CYCLE


def test_tenant_checker_logs_one_report():
    tenant = TenantChecker("t")
    publisher = DeltaPublisher("s0")

    def publish(statuses):
        obj = publisher.prepare(encode_bucket(statuses))
        tenant.append_delta("s0", obj)
        publisher.commit(obj)

    publish(KNOT)
    first = tenant.check()
    assert cycle_names(first) == CYCLE
    publish({**KNOT, **LATE})
    second = tenant.check()
    # The check reply still carries the current report on every pass ...
    assert cycle_names(second) == CYCLE
    assert set(second.tasks) == {"a", "b", "c"}
    # ... but the log holds the deadlock once.
    assert len(tenant.reports) == 1


def test_site_logs_one_report():
    site = Site("s0", InMemoryStore(), cancel_on_detect=False)
    dep = site.runtime.checker.dependency
    for task, status in KNOT.items():
        dep.set_blocked(task, status)
    first = site.poll_detection()
    assert cycle_names(first) == CYCLE
    for task, status in LATE.items():
        dep.set_blocked(task, status)
    assert site.poll_detection() is None
    assert len(site.reports) == 1
