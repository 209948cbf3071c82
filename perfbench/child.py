"""One benchmark run in a fresh process; prints its record as JSON.

Started by ``run.py``, which passes the host time it spawned this
process at (``--t0``, ``time.monotonic``, shared by every process on
the host) so set-up and wall time count interpreter start and imports.

Kinds of run:

* ``untraced`` measures the end-to-end metrics;
* ``traced`` adds the stack sampler and the counting wrappers and
  yields the per-layer metrics (``dc8-sharded`` then also runs its
  ``shards=1`` reference in process);
* ``reference`` is ``dc8-sharded`` with ``shards=1``, whose digest every
  sharded run must match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

from instrument import Probe, Sampler, Spans

KINDS = ("untraced", "traced", "reference")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--kind", choices=KINDS, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    traced = args.kind == "traced"
    spans = Spans(args.t0)
    sampler = None
    if traced:
        # Before any ``repro`` import, so imports are sampled too.
        sampler = Sampler(args.t0, args.src, spans)
        sampler.start()

    import numpy as np

    from repro.experiments.parallel import code_version_token, stable_hash

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    probe = Probe(spans, counting=traced)
    probe.install()
    if workload.sharded:
        outcome = workloads.run_sharded(
            workload,
            seed,
            probe,
            spans,
            sampler,
            shards=1 if args.kind == "reference" else workloads.DC_SHARDS,
            with_reference=traced,
        )
    else:
        outcome = workloads.run_single_host(
            workload, seed, probe, spans, sampler
        )
    wall = outcome.done - args.t0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    layers = {}
    if sampler is not None:
        layers = workloads.layer_metrics(
            outcome, probe, sampler, spans, sampler.stopped_at - args.t0
        )
    record = {
        "kind": args.kind,
        "workload": args.workload,
        "seed": seed,
        "scenario": stable_hash(workload.scenario(seed)),
        "box": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "commit": code_version_token(),
        "wall_s": wall,
        "setup_s": outcome.first_event - args.t0,
        "peak_rss_mb": peak_kb / 1024.0,
        "events": outcome.events,
        "layers": layers,
        "digest": outcome.digest,
        "reference_digest": outcome.extra.get("reference", {}).get("digest"),
        "ntier": outcome.ntier,
    }
    os.makedirs(os.path.join(args.out, "spans"), exist_ok=True)
    spans_path = os.path.join(
        args.out,
        "spans",
        f"{args.workload}-s{seed}-{args.kind}-{os.getpid()}.json",
    )
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "spans": spans.rows,
                "samples": [
                    {"span": span, "bucket": bucket, "seconds": seconds}
                    for (span, bucket), seconds in (
                        sampler.totals.items() if sampler else ()
                    )
                ],
            },
            fh,
        )
    record["spans"] = os.path.relpath(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
