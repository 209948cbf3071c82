"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import instrument
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = run.load_spec(ROOT)
HELD_OUT_SEED = 1009


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _record(kind="untraced", digest="a" * 64, **ntier):
    nt = dict(completed=10, failed=1, requests_sent=12)
    nt.update(ntier)
    return dict(kind=kind, digest=digest, events=100, ntier=nt, layers={})


def test_perturbed_digest_is_rejected():
    records = [_record(), _record("traced"), _record(digest="b" * 64)]
    problems = run.check(records)
    assert len(problems) == 1
    assert [("error" in r) for r in records] == [False, False, True]


def test_reference_digest_wins_over_majority():
    records = [
        _record("reference", digest="r" * 64),
        _record(digest="a" * 64),
        _record(digest="a" * 64),
    ]
    run.check(records)
    assert [("error" in r) for r in records] == [False, True, True]


def test_conservation_violation_fails_the_run():
    records = [_record(completed=12, failed=1, requests_sent=12)]
    assert run.check(records)
    assert "error" in records[0]


def test_unattributed_trace_time_fails_the_run():
    records = [dict(_record("traced"), layers={"bench.coverage": 0.9})]
    assert run.check(records)
    assert "error" in records[0]


def test_digest_moves_with_one_ulp():
    from repro.ntier.request import Request
    from workloads import request_digest

    def table(t_done):
        r = Request(rid=1, page="home", demands={}, t_done=t_done, attempts=1)
        return [r]

    base = request_digest(table(1.25), [], 100)
    assert request_digest(table(1.25), [], 100) == base
    assert request_digest(table(1.2500000000000002), [], 100) != base
    assert request_digest(table(1.25), [], 101) != base


def test_layer_map_covers_every_repro_module():
    src = os.path.join(ROOT, "src")
    unmapped = []
    for dirpath, _, files in os.walk(os.path.join(src, "repro")):
        for name in files:
            if name.endswith(".py"):
                module = instrument.module_of(os.path.join(dirpath, name), src)
                if instrument.layer_of(module) == instrument.OTHER:
                    unmapped.append(module)
    assert not unmapped, f"modules with no layer: {unmapped}"
    declared = {m["name"] for m in SPEC["per_layer"]}
    for layer in instrument.LAYERS + instrument.BUCKETS:
        assert f"{layer}.self_s" in declared


def test_emit_rejects_undeclared_or_missing_metrics():
    declared = SPEC["end_to_end"]
    values = {m["name"]: 1.0 for m in declared}
    assert set(run.emit(values, declared)) == set(values)
    with pytest.raises(KeyError):
        run.emit(dict(values, extra=1.0), declared)
    with pytest.raises(KeyError):
        run.emit({}, declared)


def test_timed_out_run_is_killed_and_fails(monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT", 0.2)
    record = run.spawn(ROOT, "dc8-sharded", None, "untraced")
    assert "timed out" in record["error"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(trace):
    proc = _bench("--workload", "dc8-sharded", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in declared
    }


def test_every_workload_passes_every_check_at_a_held_out_seed():
    from workloads import WORKLOADS

    assert all(w.default_seed != HELD_OUT_SEED for w in WORKLOADS.values())
    proc = _bench("--workload", "all", "--seed", str(HELD_OUT_SEED),
                  "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in results] == [
        w["name"] for w in SPEC["workloads"]
    ]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert abs(metrics["bench.coverage"]["value"] - 1.0) <= 0.05


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _bench("--workload", "rubbos-10k", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
