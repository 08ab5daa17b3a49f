"""The checker service with span wrappers installed: the traced service run.

Started by ``service_load.py`` as ``python serve_traced.py SPANS.json
RUN_ID``.  It wraps every layer's entry points (``spans.install``), then
builds and starts the service exactly as ``python -m repro.distributed
serve --port 0 --no-obs`` does, announces its address on standard error
in the same words, serves until SIGINT, and writes the spans, the span
totals and the service's own metrics registry to ``SPANS.json``.
"""

from __future__ import annotations

import sys
import time

from common import flatten_counters, use_program_path

use_program_path()


def main(argv) -> int:
    spans_path, run_id = argv
    import spans

    recorder = spans.SpanRecorder(run_id)
    spans.install(recorder)
    from repro.distributed.net import CheckerService
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    service = CheckerService(host="127.0.0.1", port=0, check_interval_s=0.2,
                             metrics=registry)
    service.start()
    print(f"checker service on {service.address} — telemetry disabled",
          file=sys.stderr, flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        recorder.dump(spans_path, registry=flatten_counters(
            registry.snapshot(), ("repro_scc_work_total",)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
