"""The native fused replay against its Python oracle.

:mod:`repro.xen.native` builds ``_fused.c`` into a drop-in for
:meth:`~repro.xen.engine.BatchedEngine._fused_epochs`.  The contract is
bitwise equality with the Python loop, which stays the oracle and the
fallback: whole runs must produce the same canonical summary with the
kernel on and off, the kernel must be chunkable like the Python loop,
and wherever Python would raise the kernel must hand the batch back
untouched so Python raises exactly as it would alone.
"""

import copy
import os
import stat
import warnings

import numpy as np
import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    build_machine,
    make_scheduler,
    spec_scenario,
)
from repro.hardware.topology import GIB, xeon_e5620
from repro.metrics.collectors import summarize
from repro.obs.manifest import canonical_dumps
from repro.util.rng import RngStreams
from repro.workloads.appmodel import VcpuWorkload
from repro.workloads.generators import scaled_profile
from repro.workloads.suites import get_profile, hungry_loop
from repro.xen import native
from repro.xen.domain import Domain
from repro.xen.engine import BatchedEngine, _FusedState
from repro.xen.memalloc import place_split

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH"
)

ACCUMULATORS = _FusedState.__slots__[5:]


def _kernel():
    kernel = native.fused_kernel()
    assert kernel is not None, "a compiler is on PATH but the kernel did not load"
    return kernel


def _machine(seed, domains, scheduler="credit", max_time_s=0.6):
    """A dual-socket machine; ``domains`` is ``[(profile, vcpus, slices)]``.

    VCPU ``j`` of a domain touches slice ``j % slices``, so fewer slices
    than VCPUs makes same-domain VCPUs share a placement row.
    """
    cfg = ScenarioConfig(
        work_scale=0.05, seed=seed, max_time_s=max_time_s, engine="batched"
    )
    rng = RngStreams(seed)
    built = []
    for d, (name, nv, slices) in enumerate(domains):
        if name == "hungry":
            profile = hungry_loop()
        else:
            profile = scaled_profile(get_profile(name), cfg.work_scale)
        workloads = [
            VcpuWorkload(
                profile, rng.get(f"d{d}.v{j}"), slice_id=j % slices,
                num_slices=nv,
            )
            for j in range(nv)
        ]
        built.append(
            Domain(f"vm{d + 1}", (1 + d) * GIB, place_split(nv, 2), workloads)
        )
    return build_machine(make_scheduler(scheduler), cfg, built, xeon_e5620())


def _generated(seed):
    """A random dual-socket scenario that keeps most PCPUs busy."""
    rng = np.random.default_rng(seed)
    pool = ("soplex", "lu", "mcf", "povray", "sp", "milc", "hungry")
    domains = []
    for _ in range(int(rng.integers(2, 4))):
        nv = int(rng.integers(2, 6))
        domains.append(
            (str(rng.choice(pool)), nv, int(rng.integers(1, nv + 1)))
        )
    scheduler = str(rng.choice(("credit", "vprobe", "lb", "vcpu-p", "brm")))
    return domains, scheduler


def _run(machine):
    machine.run()
    summary = summarize(machine)
    return canonical_dumps(summary.to_dict(include_profile=False)), summary


def _clone(state):
    """An independent copy of a fused state (plan aliasing preserved)."""
    twin = _FusedState()
    twin.plan = copy.deepcopy(state.plan)
    for name in ACCUMULATORS:
        value = getattr(state, name)
        setattr(twin, name, list(value) if isinstance(value, list) else value)
    return twin


def _snapshot(state):
    """Every value the epoch loop writes, as exact text."""
    plan = state.plan
    values = [getattr(state, name) for name in ACCUMULATORS]
    values += [plan[3], plan[4], [entry[0] for entry in plan[0]], plan[8], plan[9]]
    return repr(values)


@pytest.fixture
def captured(monkeypatch):
    """Copies of every fused state seeded during a run, with its engine."""
    states = []
    orig = BatchedEngine._fused_seed

    def spy(self, *args):
        state = orig(self, *args)
        states.append((self, _clone(state)))
        return state

    monkeypatch.setattr(BatchedEngine, "_fused_seed", spy)
    return states


@needs_compiler
class TestLoader:
    def test_builds_into_private_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_kernel", native._UNLOADED)
        kernel = native.fused_kernel()
        assert kernel is not None
        built = native.cache_dir()
        assert built == tmp_path / "repro" / "native"
        assert stat.S_IMODE(os.stat(built).st_mode) == 0o700
        files = [p.name for p in built.iterdir()]
        assert len(files) == 1 and files[0].startswith("_fused_")

        # A built kernel loads again without a compiler.
        monkeypatch.setattr(native, "_kernel", native._UNLOADED)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        assert native.fused_kernel() is not None

    def test_switch_off(self, monkeypatch):
        _kernel()
        monkeypatch.setattr(native, "enabled", False)
        assert native.fused_kernel() is None
        with native.forced_python():
            assert native.fused_kernel() is None

    def test_missing_compiler_falls_back(self, tmp_path, monkeypatch):
        machine = _machine(3, [("soplex", 4, 4), ("hungry", 4, 4)])
        expected, summary = _run(machine)
        assert summary.horizon_stats["replay_native"] > 0

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_kernel", native._UNLOADED)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert native.fused_kernel() is None
        with warnings.catch_warnings():
            # Warned once at load, not again per batch.
            warnings.filterwarnings("error", message="native fused replay")
            text, summary = _run(
                _machine(3, [("soplex", 4, 4), ("hungry", 4, 4)])
            )
        assert text == expected
        stats = summary.horizon_stats
        assert stats["replay_native"] == 0 and stats["replay_python"] > 0


@needs_compiler
class TestRunParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_dual_socket(self, seed):
        domains, scheduler = _generated(seed)
        on, summary = _run(_machine(seed, domains, scheduler))
        with native.forced_python():
            off, _ = _run(_machine(seed, domains, scheduler))
        assert on == off
        assert summary.horizon_stats["replay_python"] == 0

    def test_pow_path_and_aliased_mirrors(self, captured):
        # soplex's miss curve has shape 1.1 (the pow path); four VCPUs
        # on two slices share placement rows pairwise.
        domains = [("soplex", 4, 2), ("soplex", 4, 1)]
        on, summary = _run(_machine(11, domains, "vprobe"))
        assert summary.horizon_stats["replay_native"] > 0
        with native.forced_python():
            off, _ = _run(_machine(11, domains, "vprobe"))
        assert on == off

        def aliased(plan):
            rows = plan[2]
            drifting = [row[2] for row in rows if row[12] > 0]
            return len({id(r) for r in drifting}) < len(drifting)

        plans = [state.plan for _, state in captured]
        assert any(entry[6] != 1.0 for plan in plans for entry in plan[0])
        assert any(aliased(plan) for plan in plans)

    def test_batch_counters_cover_every_fused_batch(self, monkeypatch):
        calls = []
        orig = BatchedEngine._advance_replay_fused

        def counted(self, *args):
            calls.append(1)
            return orig(self, *args)

        monkeypatch.setattr(BatchedEngine, "_advance_replay_fused", counted)
        cfg = ScenarioConfig(work_scale=0.3, seed=0, engine="batched")
        machine = spec_scenario("soplex", make_scheduler("vprobe"), cfg)
        machine.run()
        stats = machine._engine.horizon_stats()
        assert stats["replay_native"] + stats["replay_python"] == len(calls)
        assert stats["replay_native"] > 0


@needs_compiler
class TestKernel:
    def _states(self, captured, n=30):
        _run(_machine(5, [("soplex", 4, 2), ("lu", 4, 4)], "lb", 1.5))
        assert len(captured) >= n
        return captured[:: max(1, len(captured) // n)]

    def test_matches_python_loop(self, captured):
        kernel = _kernel()
        for engine, state in self._states(captured):
            for kb in (1, 2, 5, 17):
                c, py = _clone(state), _clone(state)
                assert kernel(c, engine.epoch, kb) is True
                BatchedEngine._fused_epochs(engine, py, engine.epoch, kb)
                assert _snapshot(c) == _snapshot(py)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (5, 11)])
    def test_chunking(self, captured, a, b):
        kernel = _kernel()
        for engine, state in self._states(captured, n=10):
            whole, parts = _clone(state), _clone(state)
            assert kernel(whole, engine.epoch, a + b) is True
            assert kernel(parts, engine.epoch, a) is True
            assert kernel(parts, engine.epoch, b) is True
            assert _snapshot(whole) == _snapshot(parts)

    def test_zero_kb_writes_nothing(self, captured):
        engine, state = self._states(captured, n=1)[0]
        before = _snapshot(state)
        assert _kernel()(state, engine.epoch, 0) is True
        assert _snapshot(state) == before

    def test_zero_division_raises_like_python(self, captured):
        engine, state = self._states(captured, n=1)[0]
        for mirror in state.plan[8] + state.plan[9]:  # rloc, oloc
            mirror[0] = mirror[1] = 0.0
        before = _snapshot(state)
        assert _kernel()(state, engine.epoch, 3) is None
        assert _snapshot(state) == before
        with pytest.raises(ZeroDivisionError):
            BatchedEngine._fused_epochs(engine, _clone(state), engine.epoch, 3)
        with pytest.raises(ZeroDivisionError):
            engine._fused_replay(state, engine.epoch, 3)

    @pytest.mark.parametrize("poison", ["string_entry", "negative_shape"])
    def test_falls_back_untouched(self, captured, poison):
        engine, state = self._states(captured, n=1)[0]
        if poison == "string_entry":
            state.busy[0] = "x"
        else:
            plan = list(state.plan)
            entry = plan[0][0]
            plan[0] = [entry[:6] + (-0.5,) + entry[7:]] + plan[0][1:]
            state.plan = tuple(plan)
        oracle = _clone(state)
        before = _snapshot(state)
        assert _kernel()(state, engine.epoch, 2) is None
        assert _snapshot(state) == before
        if poison == "string_entry":
            with pytest.raises(TypeError):
                engine._fused_replay(state, engine.epoch, 2)
        else:
            engine._fused_replay(state, engine.epoch, 2)
            BatchedEngine._fused_epochs(engine, oracle, engine.epoch, 2)
            assert _snapshot(state) == _snapshot(oracle)
