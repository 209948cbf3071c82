"""Network queue-chain benchmark: neutrality and tail amplification.

Two questions about ``repro.net``, each with a ``--check`` gate:

* **neutrality** — does ``network=None`` (the default on every
  pre-existing scenario) still execute *exactly* the event schedule it
  did before the network subsystem landed?  The gate compares the
  kernel's dispatched-event count for a fixed-seed traced run against
  a constant captured before the network code paths existed.  Any new
  import-time registration, bus subscription, or conditional that
  schedules even one extra event moves the count and fails loudly;
  together with the byte-identity goldens in
  ``tests/test_determinism.py`` this pins the "no network = no
  change" contract from both ends.
* **amplification** — does the NIC ring-saturation attack actually
  amplify the tail through the queue chain?  The gate requires the
  attacked run's client P99 to be at least 2x the unattacked
  network-routed baseline, and the P99/P50 dispersion ratio to at
  least double — tail-specific damage, not a uniform slowdown.

Usage::

    PYTHONPATH=src python benchmarks/bench_net.py            # full run
    PYTHONPATH=src python benchmarks/bench_net.py --check    # full gate
    PYTHONPATH=src python benchmarks/bench_net.py --quick --check  # CI

Results land in ``benchmarks/results/BENCH_net.json`` (or
``BENCH_net_quick.json`` with ``--quick``); a ``--check`` run writes
only to ``--out``, if given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)

#: Dispatched-event counts of the fixed-seed neutrality scenario,
#: captured on the commit *before* the network subsystem existed.  A
#: ``network=None`` run must still hit these exactly: the count is a
#: complete fingerprint of the event schedule (every process wakeup
#: increments it), so "same count, same seed" plus the golden-CSV
#: byte-identity tests means the network code is provably dormant.
NEUTRALITY_EVENTS = {"quick": 18241, "full": 126662}

#: Amplification gates: the NIC attack must at least double the
#: network-routed baseline's P99 (the ISSUE's contract; measured
#: 30-400x), and widen its P99/P50 dispersion — tail-specific damage,
#: not a flat slowdown.  Dispersion is a tripwire, not a headline:
#: at full scale the attack is violent enough to drag the median too
#: (measured ~2.0x quick and full), so the floor carries margin.
P99_AMPLIFICATION_FLOOR = 2.0
DISPERSION_FLOOR = 1.5


def _neutral_scenario(quick: bool):
    from repro.experiments.configs import PRIVATE_CLOUD

    tag = "quick" if quick else "full"
    users, duration = (800, 6.0) if quick else (2000, 20.0)
    return dataclasses.replace(
        PRIVATE_CLOUD,
        name=f"bench-net-neutral-{tag}",
        users=users,
        duration=duration,
        warmup=1.0,
        seed=5,
    )


def _amplification_scenarios(quick: bool):
    from repro.experiments.configs import NET_ATTACK, NET_BASELINE

    if not quick:
        return NET_BASELINE, NET_ATTACK
    baseline = dataclasses.replace(
        NET_BASELINE.with_users(1000), duration=12.0, warmup=3.0
    )
    attack = dataclasses.replace(
        NET_ATTACK.with_users(1000), duration=12.0, warmup=3.0
    )
    return baseline, attack


def _percentiles(run) -> dict:
    import numpy as np

    rts = np.array(
        [r.response_time for r in run.client_requests() if not r.failed]
    )
    return {
        f"p{q:g}": float(np.percentile(rts, q)) for q in (50.0, 99.0, 99.9)
    }


def bench_neutrality(quick: bool) -> dict:
    """Fixed-seed ``network=None`` run vs the pre-network event count."""
    from repro.experiments.runner import run_rubbos
    from repro.obs import FULL_TRACE

    scenario = _neutral_scenario(quick)
    t0 = time.perf_counter()
    run = run_rubbos(scenario, telemetry=FULL_TRACE)
    wall = time.perf_counter() - t0
    events = run.telemetry.kernel.summary()["events_dispatched"]
    return {
        "users": scenario.users,
        "sim_seconds": scenario.duration,
        "wall_seconds": wall,
        "network": None,
        "events_dispatched": events,
        "expected_events": NEUTRALITY_EVENTS["quick" if quick else "full"],
    }


def bench_amplification(quick: bool) -> dict:
    """Network-routed baseline vs the NIC ring-saturation attack."""
    from repro.experiments.runner import run_rubbos

    baseline_scenario, attack_scenario = _amplification_scenarios(quick)

    cells = {}
    for label, scenario in (
        ("baseline", baseline_scenario),
        ("attack", attack_scenario),
    ):
        t0 = time.perf_counter()
        run = run_rubbos(scenario)
        wall = time.perf_counter() - t0
        net = run.network
        assert net is not None
        cells[label] = {
            "users": scenario.users,
            "sim_seconds": scenario.duration,
            "wall_seconds": wall,
            "quantiles": _percentiles(run),
            "completed": len(run.app.completed),
            "failed": len(run.app.failed),
            "net_messages": net.messages,
            "net_drops": net.drops,
            "net_bursts": (
                len(run.net_attack.bursts) if run.net_attack else 0
            ),
        }

    base_q = cells["baseline"]["quantiles"]
    atk_q = cells["attack"]["quantiles"]
    dispersion = {
        label: cell["quantiles"]["p99"] / cell["quantiles"]["p50"]
        for label, cell in cells.items()
    }
    return {
        "baseline": cells["baseline"],
        "attack": cells["attack"],
        "p99_amplification": atk_q["p99"] / base_q["p99"],
        "p999_amplification": atk_q["p99.9"] / base_q["p99.9"],
        "dispersion_baseline": dispersion["baseline"],
        "dispersion_attack": dispersion["attack"],
        "dispersion_amplification": (
            dispersion["attack"] / dispersion["baseline"]
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 800-user neutrality run, 1k-user amplification",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the network=None event count matches "
             "the pre-network constant exactly and the NIC attack at "
             "least doubles the baseline P99 and P99/P50 dispersion",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    report = {
        "kind": "network-chain-benchmark",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }

    neutrality = bench_neutrality(args.quick)
    report["neutrality"] = neutrality
    print(
        f"neutrality ({neutrality['users']} users x "
        f"{neutrality['sim_seconds']:g}s, network=None, traced): "
        f"{neutrality['events_dispatched']} events dispatched "
        f"(expected {neutrality['expected_events']}), "
        f"{neutrality['wall_seconds']:.2f}s wall"
    )

    amplification = bench_amplification(args.quick)
    report["amplification"] = amplification
    for label in ("baseline", "attack"):
        cell = amplification[label]
        q = cell["quantiles"]
        print(
            f"{label:<9} ({cell['users']} users x "
            f"{cell['sim_seconds']:g}s)  "
            f"p50 {q['p50'] * 1e3:7.1f}ms  p99 {q['p99'] * 1e3:7.1f}ms  "
            f"p99.9 {q['p99.9'] * 1e3:7.1f}ms  "
            f"{cell['net_drops']} net drops  "
            f"{cell['wall_seconds']:.2f}s wall"
        )
    print(
        f"amplification: p99 {amplification['p99_amplification']:.1f}x, "
        f"p99.9 {amplification['p999_amplification']:.1f}x, "
        f"p99/p50 dispersion "
        f"{amplification['dispersion_baseline']:.1f} -> "
        f"{amplification['dispersion_attack']:.1f} "
        f"({amplification['dispersion_amplification']:.1f}x)"
    )

    # A gate run leaves the committed results alone: it writes only
    # where ``--out`` points.
    out = args.out
    if out is None and not args.check:
        out = os.path.join(
            RESULTS_DIR,
            "BENCH_net_quick.json" if args.quick else "BENCH_net.json",
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

        events = neutrality["events_dispatched"]
        expected = neutrality["expected_events"]
        gate(
            events == expected,
            f"network=None dispatched exactly {expected} events",
            f"network=None dispatched {events} events, expected "
            f"{expected} (the network subsystem perturbed a plain run)",
        )
        amp = amplification["p99_amplification"]
        gate(
            amp >= P99_AMPLIFICATION_FLOOR,
            f"NIC attack p99 amplification {amp:.1f}x >= "
            f"{P99_AMPLIFICATION_FLOOR:g}x",
            f"NIC attack p99 amplification {amp:.1f}x < "
            f"{P99_AMPLIFICATION_FLOOR:g}x",
        )
        disp = amplification["dispersion_amplification"]
        gate(
            disp >= DISPERSION_FLOOR,
            f"p99/p50 dispersion amplification {disp:.1f}x >= "
            f"{DISPERSION_FLOOR:g}x (tail-specific damage)",
            f"p99/p50 dispersion amplification {disp:.1f}x < "
            f"{DISPERSION_FLOOR:g}x (uniform slowdown, not tail "
            "amplification)",
        )
        gate(
            amplification["attack"]["net_drops"] > 0,
            f"attack run dropped "
            f"{amplification['attack']['net_drops']} packets in the "
            "chains (contention is real)",
            "attack run dropped no packets (NIC attacker not biting)",
        )
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
