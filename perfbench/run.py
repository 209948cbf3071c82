"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root::

    python3 perfbench/run.py --workload rubbos-10k --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 1 --trace 1 --seed 1009

One invocation measures one workload (``all``: each in turn) for
``--seconds`` host seconds.  Every run is a fresh process
(``child.py``) in its own process group, killed with the group if it
outlives ``CHILD_TIMEOUT``.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json`` as medians over untraced runs;
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count runs (the error
rate is ``failed / attempted``), ``metrics`` maps each metric name to
its value and unit.  Every run's record is appended to
``.perfbench/runs.jsonl`` and its spans are written under
``.perfbench/spans/``.

A run fails if its process raises, times out, or its output fails a
check: all runs of one workload and seed, traced or not, must produce
one digest (``dc8-sharded``: the digest of its ``shards=1`` reference),
completed + failed requests may not exceed the requests the population
sent, and a traced run's layer self times must sum to within 5% of its
sampled wall.  Any failed run makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
#: Host seconds one run may take before its process group is killed
#: (a traced ``rubbos-10k`` run takes about 8 s).
CHILD_TIMEOUT = 90.0


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(
    root: str, workload: str, seed: Optional[int], kind: str
) -> dict:
    """Run ``child.py`` once; its record, or a failure record."""
    out = os.path.join(root, OUT_DIR)
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--kind", kind,
        "--src", os.path.join(root, "src"),
        "--out", out,
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    failure = {"kind": kind, "workload": workload, "seed": seed}
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return dict(failure, error=f"timed out after {CHILD_TIMEOUT:g}s")
    finally:
        # Shard workers share the child's process group: reap strays.
        _kill_group(proc.pid)
    if proc.returncode != 0:
        return dict(failure, error=f"exit code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return dict(failure, error="no record on stdout")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check(records: List[dict]) -> List[str]:
    """Mark every record that fails a check; return the problems.

    The expected digest is the ``reference`` run's when there is one,
    else the most common digest among the runs.
    """
    problems = []
    good = [r for r in records if "error" not in r]
    expected = None
    references = [r["digest"] for r in good if r["kind"] == "reference"]
    if references:
        expected = references[0]
    elif good:
        expected = Counter(r["digest"] for r in good).most_common(1)[0][0]
    for r in records:
        if "error" in r:
            problems.append(f"{r['kind']} run: {r['error']}")
            continue
        errors = []
        if r["digest"] != expected:
            errors.append(f"digest {r['digest'][:12]} != {expected[:12]}")
        if r.get("reference_digest") not in (None, r["digest"]):
            errors.append("digest differs from in-process shards=1 run")
        nt = r["ntier"]
        sent = nt["requests_sent"]
        if sent is not None and nt["completed"] + nt["failed"] > sent:
            errors.append(
                f"completed + failed = {nt['completed'] + nt['failed']} "
                f"> {sent} requests sent"
            )
        if not (r["events"] > 0 and nt["completed"] > 0):
            errors.append("no events or no completed requests")
        coverage = r["layers"].get("bench.coverage", 1.0)
        if abs(coverage - 1.0) > 0.05:
            errors.append(f"layer self times cover {coverage:.3f} of the wall")
        if errors:
            r["error"] = "; ".join(errors)
            problems.append(f"{r['kind']} run: {r['error']}")
    return problems


def _median(records: List[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def metrics(records: List[dict], trace: int) -> Dict[str, float]:
    """End-to-end (``trace`` 0) or per-layer (1) metric values."""
    untraced = [r for r in records if r["kind"] == "untraced"]
    if not trace:
        return {
            name: _median(untraced, lambda r: r[name])
            for name in ("wall_s", "setup_s", "peak_rss_mb")
        }
    traced = [r for r in records if r["kind"] == "traced"]
    out = {
        name: _median(traced, lambda r: r["layers"][name])
        for name in traced[0]["layers"]
    }
    out["bench.trace_overhead"] = _median(
        traced, lambda r: r["wall_s"]
    ) / _median(untraced, lambda r: r["wall_s"])
    return out


def emit(values: Dict[str, float], declared: List[dict]) -> dict:
    """Values of exactly the declared metrics, each with its unit."""
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise KeyError(
            f"metrics computed but not declared: {sorted(set(values) - names)}; "
            f"declared but not computed: {sorted(names - set(values))}"
        )
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def run_workload(
    root: str, spec: dict, workload: str, seed: Optional[int],
    seconds: float, trace: int,
) -> dict:
    """Every run of one workload for ``seconds``; the result object."""
    kinds = ["untraced", "traced"] if trace else ["untraced"]
    deadline = time.monotonic() + seconds
    records: List[dict] = []
    if workload == "dc8-sharded":
        records.append(spawn(root, workload, seed, "reference"))
    turn = 0
    last = 0.0
    while "error" not in (records[-1] if records else {}):
        missing = {k for k in kinds if not any(r["kind"] == k for r in records)}
        # Start another run only if it is likely to end mostly inside
        # the budget, so an invocation lasts about ``seconds``.
        if time.monotonic() + last / 2 >= deadline and not missing:
            break
        started = time.monotonic()
        records.append(spawn(root, workload, seed, kinds[turn % len(kinds)]))
        last = time.monotonic() - started
        turn += 1
    problems = check(records)
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    with open(os.path.join(root, OUT_DIR, "runs.jsonl"), "a") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    failed = sum("error" in r for r in records)
    declared = spec["per_layer" if trace else "end_to_end"]
    values = {} if failed else emit(metrics(records, trace), declared)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="scenario seed (default: each workload's own)",
    )
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: run from the repository root (src/repro missing)",
            file=sys.stderr,
        )
        return 2
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or 'all'")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    if args.workload != "all":
        result = run_workload(
            root, spec, args.workload, args.seed, seconds, args.trace
        )
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    ok = True
    for name in names:
        result = run_workload(root, spec, name, args.seed, seconds, args.trace)
        ok = ok and result["correct"]
        print(json.dumps({"workload": name, **result}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
