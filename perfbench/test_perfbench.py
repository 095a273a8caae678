"""Tests of the benchmark itself: metrics, output checks and spans.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_matches_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac" in proc.stdout
    if trace == "0":
        assert "warm_wall_s" in proc.stdout


def test_without_program_source_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "soplex_loaded",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tiny_summary():
    from repro.experiments.runner import run_one
    from repro.experiments.scenarios import ScenarioConfig, mix_scenario

    return run_one(mix_scenario, "credit", ScenarioConfig(work_scale=0.01, seed=1))


def test_perturbed_summary_fails_the_digest_check(tmp_path):
    summary = _tiny_summary()
    ms = summary.machine_stats
    perturbed = dataclasses.replace(
        summary,
        machine_stats=dataclasses.replace(ms, context_switches=ms.context_switches + 1),
    )
    host_only = dataclasses.replace(summary, phase_profile=None, horizon_stats=None)
    good = workloads.summary_digest(summary)
    assert workloads.summary_digest(host_only) == good
    assert workloads.summary_digest(perturbed) != good

    run = workloads.Run("soplex_loaded", 0, tmp_path, 1)
    run.check_cells("pass", [good], [workloads.summary_digest(perturbed)])
    assert run.failed == 1 and run.problems

    run = workloads.Run("soplex_loaded", 5, tmp_path, 1)  # seed 5 has no record
    run.check_digest("round 1", good, cells=3)
    run.check_digest("round 2", workloads.summary_digest(perturbed), cells=3)
    assert run.failed == 3


def test_recorded_digest_mismatch_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(
        workloads, "recorded_digests", lambda: {"soplex_loaded": {"0": "0" * 64}}
    )
    run = workloads.Run("soplex_loaded", 0, tmp_path, 1)
    run.check_digest("round 1", "f" * 64, cells=80)
    assert run.failed == 80


def test_report_digest_ignores_host_fields_only(tmp_path):
    payload = {"kind": "table3", "payload": {"overhead_pct": [0.5], "phase_wall_ms": [{"epoch": 1.0}]}}
    (tmp_path / "table3.json").write_text(json.dumps(payload))
    (tmp_path / "recovery.json").write_text("{}")
    base = workloads.report_digest(tmp_path)
    payload["payload"]["phase_wall_ms"][0]["epoch"] = 2.0
    (tmp_path / "table3.json").write_text(json.dumps(payload))
    (tmp_path / "recovery.json").write_text('{"counters": 1}')
    assert workloads.report_digest(tmp_path) == base
    payload["payload"]["overhead_pct"][0] = 0.6
    (tmp_path / "table3.json").write_text(json.dumps(payload))
    assert workloads.report_digest(tmp_path) != base


def test_digest_mismatch_makes_the_run_exit_nonzero():
    # Every summary hashes differently, so no pass agrees with another.
    script = (
        "import itertools, sys; sys.path[:0] = sys.argv[1:3]; import workloads, run; "
        "n = itertools.count(); workloads.summary_digest = lambda s: str(next(n)); "
        "sys.exit(run.main(sys.argv[3:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(HERE),
         "--workload", "soplex_loaded", "--seed", "0", "--seconds", "1",
         "--trace", "0", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0


def _check_spans(tracer: Tracer) -> None:
    for i in range(len(tracer)):
        assert tracer.end[i] >= tracer.start[i]
        p = tracer.parent[i]
        if p >= 0:
            assert p < i
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    for calls, total, self_s in aggregate(tracer).values():
        assert calls >= 1
        assert self_s >= 0.0
        assert self_s <= total + 1e-12


def test_spans_nest_and_self_time_is_nonnegative():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    leaf_t = tracer.wrap(leaf, "leaf")
    mid_t = tracer.wrap(lambda x: leaf_t(x) + leaf_t(x), "middle")
    outer_t = tracer.wrap(lambda: [mid_t(i) for i in range(5)], "outer")
    outer_t()
    _check_spans(tracer)
    agg = aggregate(tracer)
    assert agg[("leaf", "")][0] == 10
    assert agg[("middle", "")][0] == 5
    outer = agg[("outer", "")]
    assert outer[2] <= outer[1]


def test_installed_tracer_on_a_real_round(tmp_path):
    tracer = Tracer()
    counts = layers.install(tracer)
    try:
        run = workloads.Run("soplex_loaded", 2, tmp_path, 1, smoke=True, tracer=tracer)
        workloads.soplex_loaded(run)
    finally:
        tracer.unpatch()
    from repro.xen.simulator import Machine

    assert not hasattr(Machine.run, "__wrapped__")
    _check_spans(tracer)
    assert run.failed == 0
    names = set(tracer.names)
    assert {"xen.run.credit", "xen.run.brm", "xen.engine.compute_horizon",
            "experiments.execute_cell", "cache.get"} <= names
    assert counts.epochs > 0
