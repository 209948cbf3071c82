"""Sharded-kernel benchmark: determinism gate + exchange overhead.

Three questions about ``repro.sim.sharded`` + ``run_datacenter``, each
with a ``--check`` gate:

* **identity** — a sharded run (worker processes synchronized by the
  safe-window exchange) must be *byte-identical* to the
  single-process reference: same post-warmup
  request CSV, the exact same total dispatched-event count, and an
  identical merged latency sketch.  This gate is unconditional — it
  holds on any box, at any core count, and is the property DESIGN.md
  §12 proves.
* **geometry** — the lock-step loop's exchange count is an exact
  function of the scenario: every group runs
  ``ceil(duration / window)`` rounds and puts one frame per
  cross-group link on the wire each round, so ``frames == rounds x
  cross-group links``.  Deterministic and core-count-independent.
* **speedup** — with one core per worker the sharded run must beat
  the single-process wall clock by the floor factor.  Wall clock is
  the one machine-dependent gate: it is only enforced when the box
  has at least as many cores as workers; otherwise the measured
  ratio is recorded and an explicit ``wall-clock gate skipped
  (cores < shards)`` line is printed — byte identity and the exchange
  geometry, not wall clock, are the portable contracts.

Full mode additionally runs the **dc-8host hybrid leg**: every shard
worker carries a per-host million-user fluid bulk (8M users total),
gated byte-identical to its own single-process reference with the
wall time recorded.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py            # full run
    PYTHONPATH=src python benchmarks/bench_shard.py --check    # full gate
    PYTHONPATH=src python benchmarks/bench_shard.py --quick --check  # CI

Results land in ``benchmarks/results/BENCH_shard.json`` (or
``BENCH_shard_quick.json`` with ``--quick``); a ``--check`` run writes
only to ``--out``, if given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import sys
import time

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)

#: Wall-clock floors, gated only when ``os.cpu_count() >= shards``.
#: Full mode is the ISSUE's acceptance bar: >= 2x on dc-4host with 4
#: workers.  Quick mode only proves the machinery isn't pathological —
#: dc-2host finishes single-process in well under a second, so worker
#: spawn + thousands of window exchanges dominate any 2-way
#: parallelism; the floor is a 5x-slowdown tripwire, not a speedup
#: claim.
SPEEDUP_FLOOR = {"full": 2.0, "quick": 0.2}

SCENARIOS = {"full": "dc-4host", "quick": "dc-2host"}


def _requests_csv(run) -> str:
    """The run's post-warmup request table as canonical CSV text.

    Same row encoding as the committed determinism goldens
    (``tests/_golden.requests_csv_text``), so "the CSVs match" here
    means exactly what ``tests/test_determinism.py`` pins.
    """
    from repro.analysis.export import requests_to_rows

    rows = requests_to_rows(
        run.client_requests(), tiers=("apache", "tomcat", "mysql")
    )
    fields = list(rows[0].keys()) if rows else ["rid"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _sketch_state(run) -> dict:
    sketch = run.latency
    return {
        "count": sketch.count,
        "total": sketch.total,
        "zero_count": sketch.zero_count,
        "buckets": dict(sketch.buckets),
    }


def _measure(scenario, shards: int) -> tuple:
    from repro.experiments.datacenter import run_datacenter

    t0 = time.perf_counter()
    run = run_datacenter(scenario, shards=shards)
    wall = time.perf_counter() - t0
    return run, wall


def _identity(run, reference) -> dict:
    single, single_csv = reference
    return {
        "requests_csv": _requests_csv(run) == single_csv,
        "event_count": run.event_count == single.event_count,
        "latency_sketch": _sketch_state(run) == _sketch_state(single),
    }


def _geometry(run) -> dict:
    """Exchange counts of a sharded run next to their exact values."""
    from repro.experiments.datacenter import _channel_specs

    scenario = run.scenario
    group_of = {i: g for g, members in enumerate(run.groups) for i in members}
    links = sum(
        1
        for _, sender, receiver, _, _ in _channel_specs(scenario)
        if group_of[sender] != group_of[receiver]
    )
    rounds = math.ceil(scenario.base.duration / run.window)
    return {
        "cross_group_links": links,
        "windows": sorted({r.windows for r in run.shard_results}),
        "expected_rounds": rounds,
        "frames": run.frames_exchanged,
        "expected_frames": rounds * links,
    }


def _sharded_record(run, wall: float, reference) -> dict:
    return {
        "wall_seconds": wall,
        "events": run.event_count,
        "completed": len(run.completed),
        "failed": len(run.failed),
        "rounds": run.rounds,
        "cross_shard_messages": sum(r.sent for r in run.shard_results),
        "frames": run.frames_exchanged,
        "wire_bytes": run.wire_bytes,
        "geometry": _geometry(run),
        "identity": _identity(run, reference),
        "per_shard": [
            {
                "host": r.host,
                "tiers": list(r.tiers),
                "events": r.events,
                "sent": r.sent,
                "received": r.received,
                "frames": r.frames,
            }
            for r in run.shard_results
        ],
    }


def bench_shard(quick: bool) -> dict:
    from repro.experiments.datacenter import DATACENTERS

    name = SCENARIOS["quick" if quick else "full"]
    scenario = DATACENTERS[name]
    shards = len(scenario.shards)

    single, single_wall = _measure(scenario, 1)
    single_csv = _requests_csv(single)
    run, wall = _measure(scenario, shards)
    return {
        "scenario": name,
        "users": scenario.base.users,
        "sim_seconds": scenario.base.duration,
        "shards": shards,
        "window_seconds": scenario.window,
        "request_rows": single_csv.count("\n") - 1,
        "single_process": {
            "wall_seconds": single_wall,
            "events": single.event_count,
            "completed": len(single.completed),
            "failed": len(single.failed),
        },
        "sharded": _sharded_record(run, wall, (single, single_csv)),
    }


def hybrid_leg() -> dict:
    """The dc-8host hybrid leg: 1M fluid users per host, 8 hosts."""
    from repro.experiments.datacenter import DATACENTERS

    scenario = DATACENTERS["dc-8host"]
    shards = len(scenario.shards)
    single, single_wall = _measure(scenario, 1)
    single_csv = _requests_csv(single)
    run, wall = _measure(scenario, shards)
    fluid = run.fluid_totals
    return {
        "scenario": "dc-8host",
        "users": scenario.base.users,
        "bulk_users_per_host": scenario.bulk.users_per_host,
        "bulk_users_total": fluid["bulk_users"] if fluid else 0.0,
        "sim_seconds": scenario.base.duration,
        "shards": shards,
        "single_wall_seconds": single_wall,
        "sharded_wall_seconds": wall,
        "fluid_completed": fluid["completed"] if fluid else 0.0,
        "fluid_dropped": fluid["dropped"] if fluid else 0.0,
        "geometry": _geometry(run),
        "identity": _identity(run, (single, single_csv)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: dc-2host (2 workers) instead of dc-4host (4), "
             "and no dc-8host hybrid leg",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless every sharded run is byte-identical "
             "to the single-process reference, its round and frame "
             "counts match the window geometry exactly, and (when the "
             "box has enough cores) the wall-clock floor holds",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    cpu_count = os.cpu_count() or 1
    report = {
        "kind": "sharded-kernel-benchmark",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
    }
    result = bench_shard(args.quick)
    report.update(result)

    print(
        f"{result['scenario']}: {result['users']:,} users x "
        f"{result['sim_seconds']:g}s over {result['shards']} hosts, "
        f"window {result['window_seconds'] * 1e3:.2f}ms, "
        f"single-process {result['single_process']['wall_seconds']:.2f}s"
    )
    rec = result["sharded"]
    identity = rec["identity"]
    print(
        f"  sharded: {rec['wall_seconds']:.2f}s, "
        f"{rec['rounds']} rounds, {rec['frames']} frames, "
        f"{rec['cross_shard_messages']} messages, "
        f"{rec['wire_bytes']} wire bytes"
    )
    print(
        f"  identity: csv={identity['requests_csv']} "
        f"({result['request_rows']} rows) "
        f"events={identity['event_count']} ({rec['events']:,}) "
        f"sketch={identity['latency_sketch']}"
    )

    hybrid = None
    if not args.quick:
        hybrid = hybrid_leg()
        report["hybrid"] = hybrid
        print(
            f"{hybrid['scenario']} hybrid leg: "
            f"{hybrid['bulk_users_total']:,.0f} fluid users "
            f"({hybrid['bulk_users_per_host']:,} per host) + "
            f"{hybrid['users']:,} discrete, "
            f"single {hybrid['single_wall_seconds']:.2f}s, "
            f"{hybrid['shards']} shards {hybrid['sharded_wall_seconds']:.2f}s"
        )
        print(
            f"  fluid: {hybrid['fluid_completed']:.0f} completed, "
            f"{hybrid['fluid_dropped']:.0f} dropped; identity: "
            f"csv={hybrid['identity']['requests_csv']} "
            f"events={hybrid['identity']['event_count']} "
            f"sketch={hybrid['identity']['latency_sketch']}"
        )

    # A gate run leaves the committed results alone: it writes only
    # where ``--out`` points.
    out = args.out
    if out is None and not args.check:
        out = os.path.join(
            RESULTS_DIR,
            "BENCH_shard_quick.json" if args.quick else "BENCH_shard.json",
        )
    if out is not None:
        out_dir = os.path.dirname(out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")

    if args.check:
        failed = False

        def gate(ok: bool, ok_msg: str, fail_msg: str) -> None:
            nonlocal failed
            if ok:
                print(f"OK: {ok_msg}")
            else:
                print(f"FAIL: {fail_msg}", file=sys.stderr)
                failed = True

        gate(
            result["request_rows"] > 0,
            f"{result['request_rows']} post-warmup requests compared",
            "no post-warmup requests: the identity gates compared "
            "nothing",
        )
        legs = [(result["scenario"], rec)]
        if hybrid is not None:
            legs.append(("dc-8host hybrid", hybrid))
        for leg, record in legs:
            for check, ok in record["identity"].items():
                gate(
                    ok,
                    f"[{leg}] {check} identical to single-process",
                    f"[{leg}] {check} differs from single-process "
                    f"reference",
                )
            geo = record["geometry"]
            gate(
                geo["windows"] == [geo["expected_rounds"]],
                f"[{leg}] every group ran {geo['expected_rounds']} "
                f"rounds = ceil(duration / window)",
                f"[{leg}] group round counts {geo['windows']} != "
                f"ceil(duration / window) = {geo['expected_rounds']}",
            )
            gate(
                geo["frames"] == geo["expected_frames"],
                f"[{leg}] {geo['frames']} frames = rounds x "
                f"{geo['cross_group_links']} cross-group links",
                f"[{leg}] {geo['frames']} frames != rounds x "
                f"{geo['cross_group_links']} cross-group links = "
                f"{geo['expected_frames']}",
            )
        floor = SPEEDUP_FLOOR["quick" if args.quick else "full"]
        speedup = (
            result["single_process"]["wall_seconds"] / rec["wall_seconds"]
        )
        rec["speedup"] = speedup
        if cpu_count >= result["shards"]:
            gate(
                speedup >= floor,
                f"speedup {speedup:.2f}x >= {floor:g}x "
                f"({result['shards']} workers on {cpu_count} cores)",
                f"speedup {speedup:.2f}x < {floor:g}x "
                f"({result['shards']} workers on {cpu_count} cores)",
            )
        else:
            print(
                f"SKIP: wall-clock gate skipped (cores < shards) — "
                f"{cpu_count} core(s) < {result['shards']} workers; "
                f"floor {floor:g}x, measured {speedup:.2f}x"
            )
        # Re-write the JSON so the speedup fields land in it too.
        if out is not None:
            with open(out, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
