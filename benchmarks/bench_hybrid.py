"""Hybrid fluid/DES benchmark: tail convergence and population scale.

Two questions about ``repro.sim.hybrid``, each with a ``--check`` gate:

* **convergence** — as ``sample_fraction`` sweeps toward 1.0, do the
  sampled-population tail percentiles (P50/P99/P99.9) converge on the
  full-DES run of the same scenario?  At the top of the sweep the two
  engines must agree to <= 5% relative error; at fraction 1.0 the
  hybrid path degenerates to the plain kernel (zero bulk => the fluid
  engine is never built) and the gate hardens to **byte identity**:
  the post-warmup request table must equal the full-DES table exactly,
  column for column.  Mid-sweep fractions get looser, honestly
  measured tripwires — a mean-field bulk is an approximation, and its
  error at f=0.25 is part of the result, not a failure.
* **scale** — does a 1 000 000-user x 60 s scenario (capacities
  co-scaled through ``RubbosScenario.with_users`` so the operating
  point stays put) complete in minutes on one core, at least 50x
  faster than the extrapolated wall time of the full-DES kernel?  The
  extrapolation base is a measured full-DES run at a feasible
  population, scaled linearly in users — generous to the kernel, since
  its calendar queue degrades superlinearly under the event densities
  a literal 1M-user run would produce.

Usage::

    PYTHONPATH=src python benchmarks/bench_hybrid.py            # full run
    PYTHONPATH=src python benchmarks/bench_hybrid.py --check    # full gate
    PYTHONPATH=src python benchmarks/bench_hybrid.py --quick --check  # CI

Results land in ``benchmarks/results/BENCH_hybrid.json`` (or
``BENCH_hybrid_quick.json`` with ``--quick``); a ``--check`` run writes
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

#: ``--check`` gates.  The top of the sweep must match full DES; the
#: interior fractions carry measured-with-margin tripwires so a coupling
#: regression (fluid background no longer pushing the sampled tail to
#: the right operating point) fails loudly without freezing the
#: approximation error itself into the contract.
CONVERGENCE_FRACTIONS = (0.25, 0.5, 1.0)
TOP_RELATIVE_ERROR = 0.05
#: Interior-fraction tripwires — gross-regression alarms, not accuracy
#: claims.  P99 is the paper's contract and tracks full DES within a
#: few percent at every fraction.  The median is where the mean-field
#: approximation is visibly coarse: the fluid background never fully
#: drains between bursts, so sampled requests see residual sharing the
#: discrete kernel resolves to an idle server (measured ~1.1-2.1x).
#: P99.9 at reduced fractions is resolution-limited — the top-0.1%
#: events are retransmission outliers (3 s SYN-retry class) that a
#: 650-user sample rarely contains at all (measured ~0.65x low).
MID_RELATIVE_ERROR = {"p50": 3.0, "p99": 0.35, "p99.9": 1.0}
SPEEDUP_FLOOR = {"full": 50.0, "quick": 8.0}

#: Scale-demo shape: population, sim seconds, and the fraction of users
#: kept discrete.  Full mode is the ISSUE's headline configuration —
#: 1M users for a minute, ~2.6k of them in the kernel.
SCALE = {
    "full": {"users": 1_000_000, "duration": 60.0, "fraction": 0.0026,
             "base_users": 20_000},
    "quick": {"users": 100_000, "duration": 12.0, "fraction": 0.01,
              "base_users": 4_000},
}


def _scenario(quick: bool):
    from repro.experiments.configs import PRIVATE_CLOUD

    if quick:
        return dataclasses.replace(
            PRIVATE_CLOUD.with_users(1000), duration=12.0, warmup=4.0
        )
    return PRIVATE_CLOUD


def _percentiles(summary) -> dict:
    import numpy as np

    rts = summary.client_response_times()
    return {
        f"p{q:g}": float(np.percentile(rts, q)) for q in (50.0, 99.0, 99.9)
    }


def bench_convergence(quick: bool) -> dict:
    """Sweep sample_fraction -> 1.0 against one full-DES reference."""
    import numpy as np

    from repro.experiments.runner import run_rubbos
    from repro.experiments.summary import summarize_rubbos
    from repro.sim.hybrid import HybridConfig

    scenario = _scenario(quick)
    t0 = time.perf_counter()
    reference = summarize_rubbos(run_rubbos(scenario))
    full_wall = time.perf_counter() - t0
    exact = _percentiles(reference)

    sweep = []
    for fraction in CONVERGENCE_FRACTIONS:
        hybrid = HybridConfig(sample_fraction=fraction)
        t0 = time.perf_counter()
        summary = summarize_rubbos(run_rubbos(scenario, hybrid=hybrid))
        wall = time.perf_counter() - t0
        estimated = _percentiles(summary)
        split = hybrid.split(scenario.users)
        sweep.append({
            "sample_fraction": fraction,
            "sampled_users": split.sampled,
            "bulk_users": split.bulk,
            "wall_seconds": wall,
            "quantiles": {
                name: {
                    "hybrid": estimated[name],
                    "full_des": exact[name],
                    "relative_error": (
                        abs(estimated[name] - exact[name]) / exact[name]
                    ),
                }
                for name in exact
            },
            "weighted_throughput": summary.weighted_throughput(),
            # Byte-identity evidence at fraction 1.0: the whole
            # post-warmup request table, not just its percentiles.
            # Raw-bytes comparison, because NaN cells (requests that
            # never reached a tier) compare unequal element-wise.
            "identical_to_full_des": (
                summary.requests.tobytes() == reference.requests.tobytes()
                if fraction == 1.0 else None
            ),
        })
    return {
        "users": scenario.users,
        "sim_seconds": scenario.duration,
        "full_des_wall_seconds": full_wall,
        "full_des_throughput": reference.weighted_throughput(),
        "sweep": sweep,
    }


def bench_scale(quick: bool) -> dict:
    """The headline run: 1M users x 60 s vs extrapolated full DES."""
    from repro.experiments.configs import PRIVATE_CLOUD
    from repro.experiments.runner import run_rubbos
    from repro.experiments.summary import summarize_rubbos
    from repro.sim.hybrid import HybridConfig

    shape = SCALE["quick" if quick else "full"]

    # Extrapolation base: full DES at a population the kernel can
    # actually finish, same sim duration, capacities co-scaled.
    base = dataclasses.replace(
        PRIVATE_CLOUD.with_users(shape["base_users"]),
        duration=shape["duration"],
    )
    t0 = time.perf_counter()
    base_summary = summarize_rubbos(run_rubbos(base))
    base_wall = time.perf_counter() - t0

    scenario = dataclasses.replace(
        PRIVATE_CLOUD.with_users(shape["users"]),
        duration=shape["duration"],
    )
    hybrid = HybridConfig(sample_fraction=shape["fraction"])
    split = hybrid.split(scenario.users)
    t0 = time.perf_counter()
    summary = summarize_rubbos(run_rubbos(scenario, hybrid=hybrid))
    wall = time.perf_counter() - t0

    extrapolated = base_wall * (shape["users"] / shape["base_users"])
    fluid = summary.fluid
    return {
        "users": shape["users"],
        "sim_seconds": shape["duration"],
        "sampled_users": split.sampled,
        "bulk_users": split.bulk,
        "hybrid_wall_seconds": wall,
        "realtime_factor": shape["duration"] / wall,
        "weighted_throughput": summary.weighted_throughput(),
        "quantiles": _percentiles(summary),
        "fluid_completed": fluid.completed if fluid else None,
        "fluid_dropped": fluid.dropped if fluid else None,
        "fluid_peak_queues": dict(fluid.peak_queues) if fluid else None,
        "extrapolation_base": {
            "users": shape["base_users"],
            "wall_seconds": base_wall,
        },
        "extrapolated_full_des_wall_seconds": extrapolated,
        "speedup_vs_extrapolated": extrapolated / wall,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 1k-user convergence sweep, 100k-user scale demo",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the sweep converges (<= 5%% rel err "
             "and byte-identical tables at fraction 1.0) and the scale "
             "run beats the extrapolated full-DES wall time by the "
             "floor factor",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    report = {
        "kind": "hybrid-fluid-des-benchmark",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }

    convergence = bench_convergence(args.quick)
    report["convergence"] = convergence
    print(
        f"convergence ({convergence['users']} users x "
        f"{convergence['sim_seconds']:g}s, full DES "
        f"{convergence['full_des_wall_seconds']:.2f}s wall):"
    )
    for cell in convergence["sweep"]:
        errs = "  ".join(
            f"{name} {q['hybrid'] * 1e3:7.1f}ms ({q['relative_error'] * 100:+5.1f}%)"
            for name, q in cell["quantiles"].items()
        )
        ident = (
            "  [identical]" if cell["identical_to_full_des"] else ""
        )
        print(
            f"  f={cell['sample_fraction']:<5g} "
            f"{cell['sampled_users']:>6d} sampled  {errs}"
            f"  {cell['wall_seconds']:.2f}s wall{ident}"
        )

    scale = bench_scale(args.quick)
    report["scale"] = scale
    print(
        f"scale: {scale['users']:,} users x {scale['sim_seconds']:g}s "
        f"({scale['sampled_users']:,} sampled + {scale['bulk_users']:,} "
        f"fluid)"
    )
    print(
        f"  hybrid wall {scale['hybrid_wall_seconds']:.1f}s "
        f"({scale['realtime_factor']:.1f}x realtime), "
        f"{scale['weighted_throughput']:,.0f} req/s population throughput"
    )
    print(
        f"  extrapolated full DES "
        f"{scale['extrapolated_full_des_wall_seconds']:.0f}s "
        f"(measured {scale['extrapolation_base']['wall_seconds']:.1f}s at "
        f"{scale['extrapolation_base']['users']:,} users) -> "
        f"{scale['speedup_vs_extrapolated']:.0f}x speedup"
    )

    # A gate run leaves the committed results alone: it writes only
    # where ``--out`` points.
    out = args.out
    if out is None and not args.check:
        out = os.path.join(
            RESULTS_DIR,
            "BENCH_hybrid_quick.json" if args.quick else "BENCH_hybrid.json",
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

        top = convergence["sweep"][-1]
        assert top["sample_fraction"] == 1.0
        for name, cell in top["quantiles"].items():
            err = cell["relative_error"]
            gate(
                err <= TOP_RELATIVE_ERROR,
                f"{name} at f=1.0 rel err {err * 100:.2f}% <= "
                f"{TOP_RELATIVE_ERROR * 100:.0f}%",
                f"{name} at f=1.0 rel err {err * 100:.2f}% > "
                f"{TOP_RELATIVE_ERROR * 100:.0f}%",
            )
        gate(
            bool(top["identical_to_full_des"]),
            "f=1.0 request table byte-identical to full DES",
            "f=1.0 request table differs from full DES (the zero-bulk "
            "fast path perturbed the kernel)",
        )
        for cell in convergence["sweep"][:-1]:
            for name, q in cell["quantiles"].items():
                budget = MID_RELATIVE_ERROR[name]
                err = q["relative_error"]
                gate(
                    err <= budget,
                    f"{name} at f={cell['sample_fraction']:g} rel err "
                    f"{err * 100:.1f}% <= {budget * 100:.0f}%",
                    f"{name} at f={cell['sample_fraction']:g} rel err "
                    f"{err * 100:.1f}% > {budget * 100:.0f}% "
                    "(coupling regression?)",
                )
        floor = SPEEDUP_FLOOR["quick" if args.quick else "full"]
        speedup = scale["speedup_vs_extrapolated"]
        gate(
            speedup >= floor,
            f"scale speedup {speedup:.0f}x >= {floor:.0f}x "
            f"(wall {scale['hybrid_wall_seconds']:.1f}s for "
            f"{scale['users']:,} users x {scale['sim_seconds']:g}s)",
            f"scale speedup {speedup:.0f}x < {floor:.0f}x",
        )
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
