"""Scenario builders reproducing the paper's experimental setups.

§V-A methodology, encoded once and reused by every experiment module:

* **VM1** — 8 VCPUs, 15 GB memory *split across both nodes*, runs the
  memory-intensive applications under measurement;
* **VM2** — 8 VCPUs, 5 GB, an interfering VM running the same
  workloads as VM1;
* **VM3** — 8 VCPUs, 1 GB, eight hungry-loop applications consuming
  all spare CPU;
* host: the Table I two-socket Xeon E5620 (8 PCPUs total).

Per-workload details follow §V-B: SPEC workloads run four identical
single-threaded instances (six/two for mcf because of VM2's memory
limit), the ``mix`` workload one instance of each of the four SPEC
applications, NPB kernels run four threads, memcached uses eight
worker ports, redis four server instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.baselines.brm import BRMScheduler
from repro.core.classify import Bounds
from repro.core.vprobe import (
    load_balance_only,
    vcpu_partition_only,
    vprobe,
    vprobe_hardened,
)
from repro.faults.plan import FaultPlan
from repro.hardware.memory import LatencySpec
from repro.hardware.topology import GIB, NUMATopology, xeon_e5620
from repro.workloads.appmodel import ApplicationProfile, VcpuWorkload
from repro.workloads.generators import scaled_profile
from repro.workloads.services import memcached_profile, redis_profile
from repro.workloads.suites import get_profile, hungry_loop
from repro.xen.credit import CreditParams, CreditScheduler, SchedulerPolicy
from repro.xen.domain import Domain
from repro.xen.memalloc import place_interleaved, place_single_node, place_split
from repro.xen.simulator import Machine, SimConfig
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

__all__ = [
    "ScenarioConfig",
    "SCHEDULER_NAMES",
    "make_scheduler",
    "build_machine",
    "spec_scenario",
    "mix_scenario",
    "npb_scenario",
    "memcached_scenario",
    "redis_scenario",
    "solo_scenario",
    "motivation_scenario",
    "overhead_scenario",
]

#: The five scheduling approaches of §V-A(2), in the paper's order.
SCHEDULER_NAMES = ("credit", "vprobe", "vcpu-p", "lb", "brm")

#: SPEC instance split between VM1/VM2 (§V-B1: mcf is 6/2 because VM2's
#: 5 GB only fits two mcf instances; every other workload is 4/4).
_SPEC_INSTANCES = {"default": (4, 4), "mcf": (6, 2)}

#: The four applications composing the ``mix`` workload.
MIX_APPS = ("soplex", "libquantum", "mcf", "milc")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Knobs shared by every scenario.

    Attributes
    ----------
    work_scale:
        Multiplier on each finite profile's total instructions; <1
        shortens runs without changing per-instruction behaviour.
    seed:
        Root seed; paired across schedulers for fair comparisons.
    sample_period_s:
        vProbe/BRM sampling period (swept by the Fig. 8 experiment).
    max_time_s:
        Simulation budget.
    epoch_s:
        Simulator epoch.
    log_events:
        Keep the structured event log.
    latency:
        Memory latency model override.
    engine:
        Simulator engine: ``"batched"`` (default, macro-stepping),
        ``"vector"`` (singleton array kernels) or ``"reference"``
        (scalar dict loop).  All three are bitwise-identical; the
        default is simply the fastest.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into
        every machine built from this config; None (default) runs
        fault-free.
    max_epochs:
        Optional hard cap on simulated epochs — exceeded, the run
        raises :class:`~repro.xen.simulator.SimulationTimeout` naming
        the scenario instead of spinning forever.
    label:
        Human-readable scenario name carried into error messages.
    """

    work_scale: float = 0.10
    seed: int = 0
    sample_period_s: float = 1.0
    max_time_s: float = 120.0
    epoch_s: float = 1e-3
    log_events: bool = False
    latency: LatencySpec = field(default_factory=LatencySpec)
    engine: str = "batched"
    faults: Optional[FaultPlan] = None
    max_epochs: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        check_positive(self.work_scale, "work_scale")
        check_positive(self.max_time_s, "max_time_s")

    def sim_config(self) -> SimConfig:
        """The corresponding simulator configuration."""
        return SimConfig(
            epoch_s=self.epoch_s,
            sample_period_s=self.sample_period_s,
            max_time_s=self.max_time_s,
            seed=self.seed,
            latency=self.latency,
            log_events=self.log_events,
            engine=self.engine,
            faults=self.faults,
            max_epochs=self.max_epochs,
            label=self.label,
        )


def make_scheduler(
    name: str,
    params: Optional[CreditParams] = None,
    bounds: Optional[Bounds] = None,
    dynamic_bounds: bool = False,
) -> SchedulerPolicy:
    """Instantiate one of the §V-A(2) scheduling approaches by name.

    Beyond the paper's five, ``"vprobe-h"`` builds the hardened vProbe
    (type hysteresis + per-VCPU confidence fallback) used by the fault
    experiments; it is deliberately not part of ``SCHEDULER_NAMES``.
    """
    key = name.lower()
    if key == "credit":
        return CreditScheduler(params)
    if key == "vprobe":
        return vprobe(params, bounds, dynamic_bounds=dynamic_bounds)
    if key == "vprobe-h":
        return vprobe_hardened(params, bounds)
    if key == "vcpu-p":
        return vcpu_partition_only(params, bounds)
    if key == "lb":
        return load_balance_only(params, bounds)
    if key == "brm":
        return BRMScheduler(params)
    raise ValueError(
        f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES + ('vprobe-h',)}"
    )


def build_machine(
    policy: SchedulerPolicy,
    cfg: ScenarioConfig,
    domains: Sequence[Domain],
    topology: Optional[NUMATopology] = None,
) -> Machine:
    """Assemble a machine from a policy, config and domain list."""
    machine = Machine(topology or xeon_e5620(), policy, cfg.sim_config())
    for domain in domains:
        machine.add_domain(domain)
    return machine


# ---------------------------------------------------------------------------
# Domain helpers
# ---------------------------------------------------------------------------


def _workloads(
    profile: ApplicationProfile,
    num_vcpus: int,
    active: int,
    rng: RngStreams,
    tag: str,
) -> List[VcpuWorkload]:
    """Homogeneous per-VCPU workloads, first ``active`` VCPUs running."""
    return [
        VcpuWorkload(
            profile,
            rng.get(f"{tag}.v{i}"),
            slice_id=i,
            num_slices=num_vcpus,
            active=i < active,
        )
        for i in range(num_vcpus)
    ]


def _vm3(rng: RngStreams, num_nodes: int) -> Domain:
    """VM3: 1 GB, eight hungry loops (§V-A)."""
    return Domain(
        "vm3",
        1 * GIB,
        place_single_node(8, num_nodes, node=0),
        _workloads(hungry_loop(), 8, 8, rng, "vm3"),
    )


def _measured_and_interfering(
    vm1_workloads: List[VcpuWorkload],
    vm2_workloads: List[VcpuWorkload],
    rng: RngStreams,
    num_nodes: int,
    include_vm3: bool = True,
    vm1_memory: float = 15 * GIB,
    vm2_memory: float = 5 * GIB,
) -> List[Domain]:
    """The standard three-VM layout of §V-A."""
    vm1 = Domain("vm1", vm1_memory, place_split(len(vm1_workloads), num_nodes), vm1_workloads)
    vm2 = Domain(
        "vm2",
        vm2_memory,
        place_single_node(len(vm2_workloads), num_nodes, node=1 % num_nodes),
        vm2_workloads,
    )
    domains = [vm1, vm2]
    if include_vm3:
        domains.append(_vm3(rng, num_nodes))
    return domains


# ---------------------------------------------------------------------------
# §V-B scenarios
# ---------------------------------------------------------------------------


def spec_scenario(
    app: str, policy: SchedulerPolicy, cfg: ScenarioConfig
) -> Machine:
    """§V-B1 SPEC CPU2006 workload: identical instances in VM1/VM2."""
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)
    profile = scaled_profile(get_profile(app), cfg.work_scale)
    n1, n2 = _SPEC_INSTANCES.get(app, _SPEC_INSTANCES["default"])
    domains = _measured_and_interfering(
        _workloads(profile, 8, n1, rng, "vm1"),
        _workloads(profile, 8, n2, rng, "vm2"),
        rng,
        topo.num_nodes,
    )
    return build_machine(policy, cfg, domains, topo)


def mix_scenario(policy: SchedulerPolicy, cfg: ScenarioConfig) -> Machine:
    """§V-B1 ``mix`` workload: one instance of each SPEC application."""
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)

    def mixed(tag: str) -> List[VcpuWorkload]:
        workloads = []
        for i in range(8):
            active = i < len(MIX_APPS)
            profile = scaled_profile(
                get_profile(MIX_APPS[i % len(MIX_APPS)]), cfg.work_scale
            )
            workloads.append(
                VcpuWorkload(
                    profile,
                    rng.get(f"{tag}.v{i}"),
                    slice_id=i,
                    num_slices=8,
                    active=active,
                )
            )
        return workloads

    domains = _measured_and_interfering(
        mixed("vm1"), mixed("vm2"), rng, topo.num_nodes
    )
    return build_machine(policy, cfg, domains, topo)


def npb_scenario(
    app: str, policy: SchedulerPolicy, cfg: ScenarioConfig
) -> Machine:
    """§V-B2 NPB workload: the four-threaded kernel in VM1 and VM2."""
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)
    profile = scaled_profile(get_profile(app), cfg.work_scale)
    domains = _measured_and_interfering(
        _workloads(profile, 8, 4, rng, "vm1"),
        _workloads(profile, 8, 4, rng, "vm2"),
        rng,
        topo.num_nodes,
    )
    return build_machine(policy, cfg, domains, topo)


def memcached_scenario(
    concurrency: int, policy: SchedulerPolicy, cfg: ScenarioConfig
) -> Machine:
    """§V-B3 memcached: 8-port servers in VM1/VM2 under memslap load."""
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)
    profile = memcached_profile(concurrency, total_ops=500e3 * cfg.work_scale)
    domains = _measured_and_interfering(
        _workloads(profile, 8, 8, rng, "vm1"),
        _workloads(profile, 8, 8, rng, "vm2"),
        rng,
        topo.num_nodes,
    )
    return build_machine(policy, cfg, domains, topo)


def redis_scenario(
    connections: int, policy: SchedulerPolicy, cfg: ScenarioConfig
) -> Machine:
    """§V-B4 redis: four server instances in VM1/VM2 serving ``get``."""
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)
    profile = redis_profile(connections, total_requests=300e3 * cfg.work_scale)
    domains = _measured_and_interfering(
        _workloads(profile, 8, 4, rng, "vm1"),
        _workloads(profile, 8, 4, rng, "vm2"),
        rng,
        topo.num_nodes,
    )
    return build_machine(policy, cfg, domains, topo)


# ---------------------------------------------------------------------------
# Calibration / motivation / overhead scenarios
# ---------------------------------------------------------------------------


def solo_scenario(
    app: str, policy: SchedulerPolicy, cfg: ScenarioConfig
) -> Machine:
    """§IV-A calibration: one VM, 1 VCPU, pinned to its local node.

    Used by the Fig. 3 experiment to measure each application's solo
    LLC miss rate and RPTI.
    """
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)
    profile = scaled_profile(get_profile(app), cfg.work_scale)
    vm1 = Domain(
        "vm1",
        4 * GIB,
        place_single_node(1, topo.num_nodes, node=0),
        _workloads(profile, 1, 1, rng, "vm1"),
        pinned_pcpus=[0],
    )
    return build_machine(policy, cfg, [vm1], topo)


def motivation_scenario(
    app: str, policy: SchedulerPolicy, cfg: ScenarioConfig
) -> Machine:
    """§II-B motivation setup behind Fig. 1.

    VM1/VM2 (8 GB, 8 VCPUs) run the application — four threads or four
    instances — and VM3 (2 GB) runs eight hungry loops.  VM1's memory
    lands on node 0 (Xen fills the first node), VM2's is spread, VM3's
    sits on node 1.
    """
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)
    profile = scaled_profile(get_profile(app), cfg.work_scale)
    vm1 = Domain(
        "vm1",
        8 * GIB,
        place_single_node(8, topo.num_nodes, node=0),
        _workloads(profile, 8, 4, rng, "vm1"),
    )
    vm2 = Domain(
        "vm2",
        8 * GIB,
        place_interleaved(8, topo.num_nodes),
        _workloads(profile, 8, 4, rng, "vm2"),
    )
    vm3 = Domain(
        "vm3",
        2 * GIB,
        place_single_node(8, topo.num_nodes, node=1 % topo.num_nodes),
        _workloads(hungry_loop(), 8, 8, rng, "vm3"),
    )
    return build_machine(policy, cfg, [vm1, vm2, vm3], topo)


def overhead_scenario(
    num_vms: int, policy: SchedulerPolicy, cfg: ScenarioConfig
) -> Machine:
    """§V-C1 overhead setup: 1-4 VMs x (2 VCPUs, 4 GB, soplex x2)."""
    if not 1 <= num_vms <= 8:
        raise ValueError(f"num_vms must be in [1, 8], got {num_vms}")
    topo = xeon_e5620()
    rng = RngStreams(cfg.seed)
    profile = scaled_profile(get_profile("soplex"), cfg.work_scale)
    domains = []
    for i in range(num_vms):
        domains.append(
            Domain(
                f"vm{i + 1}",
                4 * GIB,
                place_single_node(2, topo.num_nodes, node=i % topo.num_nodes),
                _workloads(profile, 2, 2, rng, f"vm{i + 1}"),
            )
        )
    return build_machine(policy, cfg, domains, topo)
