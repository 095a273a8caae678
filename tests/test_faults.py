"""Tests for the deterministic fault-injection subsystem.

Three contracts matter:

* **determinism** — one (seed, plan) pair always replays bitwise, a
  zero-rate plan is indistinguishable from no plan at all, and fault
  runs stay engine-independent (vector == reference);
* **effect** — each fault kind actually fires, is counted, and hurts
  the way its model says it should;
* **graceful degradation** — the hardened scheduler never does worse
  than the naive one under the fig9 sweep, and with telemetry fully
  dead it lands at (or under) the Credit baseline instead of
  thrashing.
"""

import dataclasses
import pickle

import pytest

from repro.experiments import fig9_faults
from repro.experiments.parallel import ParallelRunner, default_jobs
from repro.experiments.runner import run_one
from repro.experiments.scenarios import (
    SCHEDULER_NAMES,
    ScenarioConfig,
    mix_scenario,
    spec_scenario,
)
from repro.faults.plan import FAULT_PRESETS, DomainCrash, FaultPlan, fault_preset


def _cfg(**kw):
    base = dict(work_scale=0.05, seed=0, sample_period_s=0.25)
    base.update(kw)
    return ScenarioConfig(**base)


class TestFaultPlan:
    def test_default_plan_is_null(self):
        assert FaultPlan().is_null()

    def test_any_active_feature_is_not_null(self):
        assert not FaultPlan(drop_rate=0.1).is_null()
        assert not FaultPlan(noise_std=1.0).is_null()
        assert not FaultPlan(llc_ref_cap=1e6).is_null()
        assert not FaultPlan(stall_rate=0.01).is_null()
        assert not FaultPlan(
            crashes=(DomainCrash("vm2", at_time_s=1.0),)
        ).is_null()

    def test_zero_noise_rate_nullifies_noise(self):
        """noise_std without noise_rate can never corrupt anything."""
        assert FaultPlan(noise_std=2.0, noise_rate=0.0).is_null()

    @pytest.mark.parametrize(
        "kw",
        [
            {"drop_rate": 1.5},
            {"drop_rate": -0.1},
            {"noise_std": -1.0},
            {"noise_rate": 2.0},
            {"llc_ref_cap": -1.0},
            {"stall_rate": 1.1},
            {"stall_epochs": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            FaultPlan(**kw)

    def test_crash_validation(self):
        with pytest.raises(ValueError):
            DomainCrash("", at_time_s=1.0)
        with pytest.raises(ValueError):
            DomainCrash("vm2", at_time_s=1.0, downtime_s=0.0)
        with pytest.raises(TypeError):
            FaultPlan(crashes=("vm2",))

    def test_plan_pickles(self):
        """Plans travel to ParallelRunner workers inside configs."""
        plan = FaultPlan(
            drop_rate=0.3,
            noise_std=1.0,
            llc_ref_cap=5e6,
            crashes=(DomainCrash("vm2", at_time_s=2.0),),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_presets_well_formed(self):
        assert FAULT_PRESETS["none"].is_null()
        for name, plan in FAULT_PRESETS.items():
            assert isinstance(plan, FaultPlan)
            if name != "none":
                assert not plan.is_null()

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown fault preset"):
            fault_preset("gremlins")


class TestFaultDeterminism:
    def test_same_seed_same_plan_replays_bitwise(self):
        cfg = _cfg(faults=fault_preset("chaos"))
        first = run_one(mix_scenario, "vprobe", cfg)
        second = run_one(mix_scenario, "vprobe", cfg)
        assert first == second

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_zero_rate_plan_identical_to_no_faults(self, scheduler):
        """A null plan consumes no randomness: bitwise no-fault run."""
        builder = lambda p, c: spec_scenario("soplex", p, c)
        plain = run_one(builder, scheduler, _cfg(faults=None))
        nulled = run_one(builder, scheduler, _cfg(faults=FaultPlan()))
        assert nulled.fault_stats is not None
        assert nulled.fault_stats.total_events == 0
        assert dataclasses.replace(
            nulled, fault_stats=None
        ) == dataclasses.replace(plain, fault_stats=None)

    @pytest.mark.parametrize("scheduler", ["credit", "vprobe", "vprobe-h"])
    def test_vector_matches_reference_under_chaos(self, scheduler):
        """Fault hooks live above the engines; both replay them alike."""
        runs = {}
        for engine in ("reference", "vector"):
            cfg = _cfg(
                work_scale=0.1, faults=fault_preset("chaos"), engine=engine
            )
            runs[engine] = run_one(mix_scenario, scheduler, cfg)
        assert runs["reference"] == runs["vector"]

    def test_serial_matches_parallel_with_faults(self):
        cells = [
            (mix_scenario, name, _cfg(faults=fault_preset("drop50")))
            for name in ("credit", "vprobe", "vprobe-h")
        ]
        serial = ParallelRunner(1).run_cells(cells)
        parallel = ParallelRunner(3).run_cells(cells)
        assert serial == parallel


class TestFaultEffects:
    def test_dropout_fires_and_is_counted(self):
        summary = run_one(
            mix_scenario, "vprobe", _cfg(faults=fault_preset("drop50"))
        )
        stats = summary.fault_stats
        assert stats is not None
        assert stats.samples_dropped > 0
        assert stats.total_events >= stats.samples_dropped

    def test_credit_never_opens_windows_so_nothing_drops(self):
        summary = run_one(
            mix_scenario, "credit", _cfg(faults=fault_preset("drop50"))
        )
        assert summary.fault_stats.samples_dropped == 0

    def test_noise_rate_scales_corruption(self):
        """Bernoulli corruption: lower rate, fewer noisy windows."""
        full = run_one(
            mix_scenario, "vprobe", _cfg(faults=FaultPlan(noise_std=1.0))
        )
        sparse = run_one(
            mix_scenario,
            "vprobe",
            _cfg(faults=FaultPlan(noise_std=1.0, noise_rate=0.2)),
        )
        assert full.fault_stats.samples_noisy > 0
        assert 0 < sparse.fault_stats.samples_noisy < full.fault_stats.samples_noisy

    def test_saturation_clamps_llc_counters(self):
        summary = run_one(
            mix_scenario, "vprobe", _cfg(faults=FaultPlan(llc_ref_cap=1e5))
        )
        assert summary.fault_stats.windows_saturated > 0

    def test_stalls_slow_the_run(self):
        plain = run_one(mix_scenario, "credit", _cfg())
        stalled = run_one(
            mix_scenario,
            "credit",
            _cfg(faults=FaultPlan(stall_rate=0.02, stall_epochs=50)),
        )
        assert stalled.fault_stats.stalls_injected > 0
        assert (
            stalled.domain("vm1").mean_finish_time_s
            > plain.domain("vm1").mean_finish_time_s
        )

    def test_crash_restarts_domain_and_costs_progress(self):
        crash = FaultPlan(
            crashes=(
                DomainCrash("vm2", at_time_s=1.0, downtime_s=0.5),
            )
        )
        plain = run_one(mix_scenario, "credit", _cfg())
        crashed = run_one(mix_scenario, "credit", _cfg(faults=crash))
        assert crashed.fault_stats.domain_crashes == 1
        # The run still completes; the crashed domain repeats lost work.
        assert (
            crashed.domain("vm2").mean_finish_time_s
            > plain.domain("vm2").mean_finish_time_s
        )


class TestGracefulDegradation:
    def test_full_dropout_hardened_tracks_credit(self):
        """At 100% dropout vProbe-h must land within 2% of Credit."""
        plan = FaultPlan(drop_rate=1.0)
        seeds = (0, 1, 2)

        def mean(scheduler):
            total = 0.0
            for seed in seeds:
                cfg = ScenarioConfig(
                    work_scale=0.1,
                    seed=seed,
                    sample_period_s=0.25,
                    faults=plan,
                )
                total += run_one(mix_scenario, scheduler, cfg).domain(
                    "vm1"
                ).mean_finish_time_s
            return total / len(seeds)

        credit = mean("credit")
        hardened = mean("vprobe-h")
        assert hardened <= credit * 1.02

    def test_fig9_hardened_never_worse_than_naive(self):
        """The headline sweep: vProbe-h <= vProbe at every nonzero rate.

        A scaled-down (but deterministic) replica of the fig9 default:
        same scenario, same plan mapping, smaller workload and fewer
        seeds per point.
        """
        result = fig9_faults.run(
            ScenarioConfig(work_scale=0.15, seed=0, sample_period_s=1.0),
            schedulers=("vprobe", "vprobe-h"),
            seeds=6,
            jobs=default_jobs(),
        )
        for rate in result.rates:
            if rate == 0.0:
                continue
            assert result.runtime("vprobe-h", rate) <= result.runtime(
                "vprobe", rate
            ), f"hardened vProbe lost to naive at fault rate {rate}"

    def test_fig9_zero_rate_plan_is_null(self):
        assert fig9_faults.fault_plan_for_rate(0.0).is_null()
        assert not fig9_faults.fault_plan_for_rate(0.5).is_null()

    def test_fig9_result_accessors(self):
        result = fig9_faults.run(
            ScenarioConfig(work_scale=0.02, seed=0),
            rates=(0.0, 1.0),
            schedulers=("credit", "vprobe"),
            seeds=1,
        )
        assert result.runtime("credit", 0.0) > 0
        with pytest.raises(KeyError):
            result.runtime("credit", 0.33)
        assert "fault rate" in result.format()
