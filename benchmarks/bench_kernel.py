"""Kernel/trace-storage throughput benchmark (the PR-3 tentpole gate).

Measures the 10k-user RUBBoS scenario (60 simulated seconds, private
cloud, MemCA attack on) with tracing off and with full-population
tracing, and compares against the committed pre-rewrite baseline in
``benchmarks/results/BENCH_kernel_baseline_prepr.json``.

Methodology: every measurement runs in a **fresh python process** (the
script re-execs itself with ``--worker``) because retained state from a
prior in-process run — a ~100 MB object graph the allocator and GC keep
walking — inflates subsequent wall times by 15-25%.  The reported
number per mode is the minimum over ``--repeat`` runs, the standard
noise-rejecting statistic for throughput benchmarks on shared machines.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full run
    PYTHONPATH=src python benchmarks/bench_kernel.py --check    # full gate
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --check  # CI

``--check`` enforces the PR-5 calendar-queue budgets: traced 10k-users
x 60 sim-s <= 6.5 s wall (>= 3x over the pre-optimization 19.462 s
baseline) and untraced <= 4.5 s.  With ``--quick`` the budgets are the
loose CI variants below — small enough to catch a multiple-x
regression, large enough for shared runners — plus an *exact*
``events_dispatched`` equality check on the traced run, which is a
noise-free determinism/accounting gate (any change to the event
schedule shifts it).

Results land in ``benchmarks/results/BENCH_kernel.json`` (or
``BENCH_kernel_quick.json`` with ``--quick``); a ``--check`` run writes
only to ``--out``, if given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_kernel_baseline_prepr.json")

#: Baseline-file scenario keys per tracing mode.
SCENARIO_KEYS = {
    False: "users10k_60s_untraced",
    True: "users10k_60s_traced_full_population",
}

#: ``--check`` wall-time budgets (seconds), full 10k x 60 s scenario.
#: Traced: >= 3x over the 19.462 s pre-optimization baseline.
BUDGETS = {"traced": 6.5, "untraced": 4.5}

#: ``--quick --check`` budgets: ~8x headroom over a healthy run (0.48 s
#: traced / 0.37 s untraced on the reference box) so a loaded shared CI
#: runner still passes; this is a gross-regression tripwire, not a
#: perf gate — the full ``--check`` run owns the real budgets.
QUICK_BUDGETS = {"traced": 4.0, "untraced": 3.0}

#: Exact event count of the quick traced scenario (2k users x 10 s).
#: Equality is a noise-free determinism gate: any change to the event
#: schedule — an extra timer, a lost wakeup, a reordered grant — shifts
#: it, independent of how slow the box is.
QUICK_EVENTS = 74_949


def run_once(users: int, duration: float, tracing: bool) -> dict:
    """One measurement in the current process; returns the result dict."""
    from repro.experiments.configs import PRIVATE_CLOUD
    from repro.experiments.runner import run_rubbos
    from repro.obs import FULL_TRACE

    scenario = dataclasses.replace(
        PRIVATE_CLOUD, users=users, duration=duration, warmup=0.0
    )
    t0 = time.perf_counter()
    run = run_rubbos(scenario, telemetry=FULL_TRACE if tracing else None)
    wall = time.perf_counter() - t0
    events = None
    if tracing:
        events = run.telemetry.kernel.events_dispatched
    return {
        "users": users,
        "sim_seconds": duration,
        "tracing": tracing,
        "wall_seconds": wall,
        "completed_requests": len(run.app.completed),
        "events_dispatched": events,
        "wall_per_sim_second": wall / duration,
    }


def measure_fresh(
    users: int, duration: float, tracing: bool, repeat: int
) -> dict:
    """Min-over-repeats, one fresh subprocess per repeat."""
    walls = []
    best = None
    for _ in range(repeat):
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--worker",
            "--users", str(users),
            "--duration", str(duration),
        ]
        if tracing:
            cmd.append("--tracing")
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            cmd, env=env, check=True, capture_output=True, text=True
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        walls.append(result["wall_seconds"])
        if best is None or result["wall_seconds"] < best["wall_seconds"]:
            best = result
    best["wall_seconds_repeats"] = walls
    return best


def load_baseline() -> dict:
    if not os.path.exists(BASELINE_PATH):
        return {}
    with open(BASELINE_PATH) as fh:
        return json.load(fh).get("scenarios", {})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 2k users x 10 sim-seconds, single in-process run",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the runs meet the wall-time budgets "
             "(full: traced <= 6.5s, untraced <= 4.5s; quick: loose CI "
             "budgets plus exact traced event-count equality)",
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--worker", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--tracing", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args()

    if args.worker:
        result = run_once(
            args.users or 10000, args.duration or 60.0, args.tracing
        )
        print(json.dumps(result))
        return 0

    users = args.users or (2000 if args.quick else 10000)
    duration = args.duration or (10.0 if args.quick else 60.0)
    baseline = load_baseline()
    report = {
        "kind": "kernel-benchmark",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "users": users,
        "sim_seconds": duration,
        "scenarios": {},
    }
    for tracing in (False, True):
        label = "traced" if tracing else "untraced"
        if args.quick:
            result = run_once(users, duration, tracing)
        else:
            result = measure_fresh(users, duration, tracing, args.repeat)
        report["scenarios"][label] = result
        line = (
            f"{label:9s} {users} users x {duration:g} sim-s: "
            f"{result['wall_seconds']:.3f}s wall "
            f"({result['completed_requests']} requests)"
        )
        ref = baseline.get(SCENARIO_KEYS[tracing])
        if ref and not args.quick and users == 10000 and duration == 60.0:
            speedup = ref["wall_seconds"] / result["wall_seconds"]
            result["baseline_wall_seconds"] = ref["wall_seconds"]
            result["speedup_vs_prepr"] = speedup
            line += f"  [{speedup:.2f}x vs pre-PR {ref['wall_seconds']:.2f}s]"
        print(line)

    # A gate run leaves the committed results alone: it writes only
    # where ``--out`` points.
    out = args.out
    if out is None and not args.check:
        out = os.path.join(
            RESULTS_DIR,
            "BENCH_kernel_quick.json" if args.quick else "BENCH_kernel.json",
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
        budgets = QUICK_BUDGETS if args.quick else BUDGETS
        custom = args.users is not None or args.duration is not None
        for label, budget in budgets.items():
            wall = report["scenarios"][label]["wall_seconds"]
            if custom:
                print(f"SKIP {label}: budgets assume the default scenario")
            elif wall > budget:
                print(
                    f"FAIL: {label} run took {wall:.2f}s "
                    f"(budget {budget:.1f}s)",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(f"OK: {label} run {wall:.2f}s <= {budget:.1f}s")
        if args.quick and not custom:
            events = report["scenarios"]["traced"]["events_dispatched"]
            if events != QUICK_EVENTS:
                print(
                    f"FAIL: quick traced run dispatched {events} events, "
                    f"expected exactly {QUICK_EVENTS} — the event "
                    "schedule changed",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(f"OK: quick traced event count {events} (exact)")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
