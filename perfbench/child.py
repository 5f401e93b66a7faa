"""One benchmark run of one workload, in a fresh process started by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --spawned-at T
                               [--trace 0|1] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports and building
the inputs.  The last line of stdout is one JSON object: ``setup_s``, and
unless ``--setup-only`` also ``wall_s``, ``peak_rss_kb``, ``checks``, the
report digest and, when traced, the per-layer values and the spans.
An exception inside the timed calls is caught: the run is still timed and
every check of the workload counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src/ path above)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracing.install(tracer)
    start = time.monotonic()
    out = {"setup_s": start - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    try:
        result = workload.run()
        checks = workload.check(result)
        digest = workloads.digest(workload.report(result))
    except Exception:  # noqa: BLE001 - a failed run is reported, not dropped
        traceback.print_exc()
        checks = [("run-raised", False)] * workload.checks_per_run
        digest = None
    out["wall_s"] = time.monotonic() - start
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["checks"] = [[name, bool(ok)] for name, ok in checks]
    out["digest"] = digest
    if tracer is not None:
        values, missing = tracing.layer_metrics(tracer, args.workload)
        out["layers"] = values
        out["missing"] = missing
        out["trace"] = tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
