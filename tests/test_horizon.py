"""The batched engine's event-horizon sizing.

:meth:`~repro.xen.engine.BatchedEngine.compute_horizon` promises that
no discrete event fires strictly inside a batch: every horizon stops at
the next Credit tick and sampling boundary, and burst and phase expiries
may land only on the batch-final epoch.  These tests check those
structural invariants on every horizon decision of real runs (by
wrapping the sizing call), and check that the two batch paths — the
fused scalar replay and the generic per-epoch replay — are
interchangeable and bitwise equal to the reference engine.
"""

import math

import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    make_scheduler,
    spec_scenario,
)
from repro.faults.plan import FaultPlan, fault_preset
from repro.metrics.collectors import summarize
from repro.xen.engine import BatchedEngine


def _batched_run(
    monkeypatch=None,
    check=None,
    scheduler="vprobe",
    max_time_s=1.0,
    **cfg_kw,
):
    """Run the loaded soplex scenario on the batched engine.

    ``check(engine, e0, now, kb)`` is invoked after every horizon
    decision when given (installed via ``monkeypatch`` on the class).
    """
    if check is not None:
        orig = BatchedEngine.compute_horizon

        def checked(self, now, limit):
            e0 = self.machine.epoch_index
            kb = orig(self, now, limit)
            check(self, e0, now, kb)
            return kb

        monkeypatch.setattr(BatchedEngine, "compute_horizon", checked)
    cfg = ScenarioConfig(
        work_scale=0.15, seed=0, engine="batched", **cfg_kw
    )
    machine = spec_scenario("soplex", make_scheduler(scheduler), cfg)
    machine.run(max_time_s=max_time_s)
    return machine


#: The runs every horizon decision is checked on: the fault-free
#: vProbe run, the stall-fault run (the sizing's stall cap), BRM (a
#: policy that acts on every tick) and the hardened vProbe.
RUNS = {
    "vprobe": {},
    "stall": {"faults": FaultPlan(stall_rate=0.05, stall_epochs=5)},
    "brm": {"scheduler": "brm"},
    "vprobe-h": {"scheduler": "vprobe-h"},
}


class TestHorizonInvariants:
    """Structural checks on every horizon decision of a real run."""

    @pytest.mark.parametrize("run", list(RUNS))
    def test_every_horizon_respects_event_boundaries(self, monkeypatch, run):
        decisions = []

        def check(engine, e0, now, kb):
            machine = engine.machine
            epoch = engine.epoch
            eps = machine._epochs_per_sample
            ept = machine._epochs_per_tick
            assert kb >= 1
            # A horizon never crosses a Credit tick or a sampling
            # boundary (vProbe's partitioning pass runs there).
            assert kb <= ept - (e0 % ept)
            assert kb <= eps - (e0 % eps)
            if kb > 1:
                # Burst expiries are inclusive: an incumbent's budget may
                # reach zero only on the batch-final epoch.  Replay the
                # exact subtraction chain the progress pass performs.
                for pcpu in machine.pcpus:
                    cur = pcpu.current
                    if cur is None:
                        continue
                    x = cur.run_burst_remaining_s
                    for _ in range(kb - 1):
                        x -= epoch
                        assert x > 0.0
                # No wake and no phase change strictly inside the batch
                # (phase changes may land on the batch-final epoch end).
                wake = (
                    engine.wake_heap[0][0]
                    if engine.wake_heap
                    else math.inf
                )
                phase = (
                    engine.phase_heap[0][0]
                    if engine.phase_heap
                    else math.inf
                )
                t = now
                for _ in range(1, kb):
                    t = t + epoch
                    assert wake > t
                    assert phase > t
            decisions.append(kb)

        _batched_run(monkeypatch, check, **RUNS[run])
        assert decisions and max(decisions) > 1

    def test_busy_machine_batches_all_take_the_fused_replay(self):
        """With every PCPU busy, no batch falls back to the generic replay."""
        stats = _batched_run()._engine.horizon_stats()
        assert stats["batches"] > 0
        assert stats["replay_native"] + stats["replay_python"] == stats["batches"]


def _summary(**cfg_kw):
    cfg = ScenarioConfig(work_scale=0.15, seed=0, **cfg_kw)
    machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
    machine.run(max_time_s=1.0)
    return summarize(machine)


class TestReplayPathParity:
    """Fused and generic replay are interchangeable and match the oracle."""

    @pytest.mark.parametrize("faults", ["none", "stall"])
    def test_generic_replay_matches_default_and_reference(
        self, monkeypatch, faults
    ):
        plan = None if faults == "none" else fault_preset(faults)
        reference = _summary(engine="reference", faults=plan)
        default = _summary(engine="batched", faults=plan)
        stats = default.horizon_stats
        assert stats["replay_native"] + stats["replay_python"] > 0

        def generic(self, now, epoch, kb, *_gather_and_running_set):
            return self._advance_replay(now, epoch, kb)

        monkeypatch.setattr(BatchedEngine, "_advance_replay_fused", generic)
        generic_only = _summary(engine="batched", faults=plan)
        stats = generic_only.horizon_stats
        assert stats["replay_native"] + stats["replay_python"] == 0
        assert stats["batches"] == default.horizon_stats["batches"]
        assert generic_only == default == reference
