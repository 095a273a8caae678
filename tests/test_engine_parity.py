"""Property test: batched == vector == reference, canonically.

Hypothesis draws seeded random scenarios — workload profile, scheduler,
work scale, root seed and fault preset — and runs each one through all
three engines.  The assertion is on the *canonical JSON* of the
:class:`~repro.metrics.collectors.RunSummary` (``to_dict`` serialized
with sorted keys), so every serialized quantity participates: finish
times, PMU counter totals (instructions, LLC refs/misses, local/remote
accesses), migration and overhead accounting, fault statistics.

The one excluded key is ``phase_profile``: it reports *host* wall-clock
spans, and the engines legitimately differ there — not just in timings
(nondeterministic by nature) but in span schedule, since the batched
engine records a ``horizon`` span per macro-step and amortises the
per-epoch spans across whole batches.  Everything the simulation
computes is compared bit-for-bit.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import (
    ScenarioConfig,
    make_scheduler,
    spec_scenario,
)
from repro.faults.plan import FAULT_PRESETS, fault_preset
from repro.metrics.collectors import summarize

ENGINES = ("reference", "vector", "batched")

scenario_params = st.fixed_dictionaries(
    {
        "profile": st.sampled_from(["soplex", "mcf", "lbm", "povray", "lu"]),
        "scheduler": st.sampled_from(["credit", "vprobe", "lb", "brm"]),
        "work_scale": st.sampled_from([0.05, 0.1, 0.2]),
        "seed": st.integers(min_value=0, max_value=2**16),
        "faults": st.sampled_from([None] + sorted(FAULT_PRESETS)),
    }
)


def _canonical_summary(engine: str, params: dict) -> str:
    plan = fault_preset(params["faults"]) if params["faults"] else None
    cfg = ScenarioConfig(
        work_scale=params["work_scale"],
        seed=params["seed"],
        engine=engine,
        faults=None if plan is None or plan.is_null() else plan,
        label=f"parity {params['profile']}",
    )
    machine = spec_scenario(params["profile"], make_scheduler(params["scheduler"]), cfg)
    machine.run(max_time_s=0.6)
    summary = summarize(machine).to_dict()
    summary.pop("phase_profile", None)
    summary.pop("horizon_stats", None)
    return json.dumps(summary, sort_keys=True)


@settings(max_examples=8, deadline=None)
@given(params=scenario_params)
def test_engines_agree_on_canonical_summary(params):
    """All three engines serialize to the identical canonical JSON."""
    reference = _canonical_summary("reference", params)
    for engine in ("vector", "batched"):
        candidate = _canonical_summary(engine, params)
        assert candidate == reference, (
            f"{engine} diverged from reference on {params!r}"
        )
