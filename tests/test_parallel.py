"""Tests for repro.experiments.parallel.

The parallel runner must be a drop-in for the serial one: identical
results (each cell is an independent seeded simulation), identical
ordering, identical aggregation — only the wall clock changes.
"""

import dataclasses
import os
from functools import partial

import pytest

from repro.cache.store import ResultCache
from repro.experiments.parallel import (
    ParallelExecutionError,
    ParallelRunner,
    _auto_chunksize,
    cell_name,
    default_jobs,
    run_packed_batch_guarded,
)
from repro.experiments.runner import compare, compare_mean
from repro.experiments.scenarios import ScenarioConfig, solo_scenario

CFG = ScenarioConfig(work_scale=0.02, seed=0)
BUILDER = partial(solo_scenario, "lu")


class TestParallelRunner:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_serial_fallback_is_serial_compare(self):
        serial = compare(BUILDER, CFG, ("credit", "vprobe"))
        runner = ParallelRunner(1).compare(BUILDER, CFG, ("credit", "vprobe"))
        assert serial == runner

    def test_parallel_compare_matches_serial(self):
        serial = compare(BUILDER, CFG, ("credit", "vprobe", "lb"))
        parallel = ParallelRunner(3).compare(
            BUILDER, CFG, ("credit", "vprobe", "lb")
        )
        assert tuple(parallel) == ("credit", "vprobe", "lb")
        assert parallel == serial

    def test_parallel_compare_mean_matches_serial(self):
        serial = compare_mean(BUILDER, CFG, ("credit", "vprobe"), seeds=(0, 1))
        parallel = ParallelRunner(4).compare_mean(
            BUILDER, CFG, ("credit", "vprobe"), seeds=(0, 1)
        )
        assert parallel == serial

    def test_compare_mean_requires_seeds(self):
        with pytest.raises(ValueError):
            ParallelRunner(2).compare_mean(BUILDER, CFG, seeds=())

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            ParallelRunner(1, engine="turbo")

    def test_parallel_identical_across_engines(self):
        """Engine selection changes wall time only, even under a pool.

        The same cells fan out once per engine; ``RunSummary.__eq__``
        covers every simulated quantity (``phase_profile`` is
        ``compare=False`` — host wall-clock differs by engine), so this
        pins the runner's engine threading AND the engines' bitwise
        contract end-to-end through worker processes.
        """
        schedulers = ("credit", "vprobe")
        results = {
            engine: ParallelRunner(2, engine=engine).compare(
                BUILDER, CFG, schedulers
            )
            for engine in ("reference", "vector", "batched")
        }
        assert results["vector"] == results["reference"]
        assert results["batched"] == results["reference"]

    def test_run_grid_parallel_matches_serial(self):
        from repro.experiments import fig5

        serial = fig5.run(CFG, workloads=("lu", "sp"), schedulers=("credit", "vprobe"))
        parallel = fig5.run(
            CFG, workloads=("lu", "sp"), schedulers=("credit", "vprobe"), jobs=4
        )
        assert serial == parallel


def _crashing_builder(policy, cfg):
    """Kills the worker process the first time it runs in a pool.

    ``os._exit`` bypasses the executor's exception channel entirely,
    which is exactly how a segfaulting worker looks to the parent:
    the whole pool breaks.  In the parent (serial retry) it behaves.
    """
    import multiprocessing
    import os

    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return solo_scenario("lu", policy, cfg)


def _failing_builder(policy, cfg):
    raise RuntimeError("scenario cannot be built")


class TestCrashRecovery:
    def test_worker_crash_recovered_by_serial_retry(self):
        cells = [
            (_crashing_builder, name, CFG) for name in ("credit", "vprobe")
        ]
        runner = ParallelRunner(2)
        results = runner.run_cells(cells)
        assert runner.retried_cells  # the crash did not pass silently
        clean = ParallelRunner(1).run_cells(
            [(BUILDER, name, CFG) for name in ("credit", "vprobe")]
        )
        assert results == clean

    def test_persistent_failure_aggregates_cell_names(self):
        cells = [
            (_failing_builder, name, CFG) for name in ("credit", "vprobe")
        ]
        with pytest.raises(ParallelExecutionError) as err:
            ParallelRunner(2).run_cells(cells)
        assert len(err.value.failures) == 2
        # Keys carry the grid index so identical-looking cells stay distinct.
        assert "_failing_builder/credit/seed=0#0" in err.value.failures
        assert "_failing_builder/vprobe/seed=0#1" in err.value.failures
        assert "scenario cannot be built" in str(err.value)

    def test_clean_parallel_run_reports_no_retries(self):
        runner = ParallelRunner(2)
        runner.run_cells([(BUILDER, name, CFG) for name in ("credit", "vprobe")])
        assert runner.retried_cells == []


class TestDefaultJobs:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert default_jobs() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_jobs() == 6


class TestCellName:
    def test_unwraps_partials(self):
        assert cell_name((BUILDER, "credit", CFG)) == "solo_scenario(lu)/credit/seed=0"

    def test_plain_function(self):
        assert cell_name((_failing_builder, "lb", CFG)) == "_failing_builder/lb/seed=0"


class TestDispatchPayloads:
    def test_builder_fingerprint_hashed_once_per_grid(self, tmp_path, monkeypatch):
        import repro.cache.keys as keys

        calls = []
        real = keys.builder_fingerprint

        def counting(builder):
            calls.append(builder)
            return real(builder)

        monkeypatch.setattr(keys, "builder_fingerprint", counting)
        cells = [
            (BUILDER, sched, dataclasses.replace(CFG, seed=seed))
            for seed in range(4)
            for sched in ("credit", "vprobe")
        ]
        ParallelRunner(1, cache=ResultCache(tmp_path)).run_cells(cells)
        assert len(calls) == 1

    def test_packed_chunks_ship_each_distinct_builder_once(self):
        # Distinct-but-equal partials, as the figure modules create them:
        # the packed payload must collapse them onto one instance.
        cells = [
            (partial(solo_scenario, "lu"), "credit", dataclasses.replace(CFG, seed=s))
            for s in range(3)
        ]
        runner = ParallelRunner(1)
        builders, packed = runner._pack_chunk(cells, [0, 1, 2])
        assert len(builders) == 1
        assert [slot for slot, _, _ in packed] == [0, 0, 0]
        outcomes = run_packed_batch_guarded(builders, packed)
        expected = ParallelRunner(1).run_cells(cells)
        assert [payload for status, payload in outcomes] == expected
        assert all(status == "ok" for status, _ in outcomes)

    def test_auto_chunksize_targets_two_chunks_per_worker(self):
        assert _auto_chunksize(64, 2) == 16
        assert _auto_chunksize(8, 8) == 1
        assert _auto_chunksize(1000, 4) == 64  # capped
        assert _auto_chunksize(1, 1) == 1
