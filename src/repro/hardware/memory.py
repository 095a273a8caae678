"""Memory-system model: DRAM latencies, IMC queueing, QPI contention.

Captures the three NUMA performance-degrading factors the paper lists
in §II-A:

* **remote memory access latency** — a remote miss pays the QPI hop on
  top of DRAM access;
* **memory controller contention** — each node's IMC is a queueing
  resource; latency inflates as its utilisation approaches 1;
* **interconnect link contention** — cross-socket traffic shares the
  QPI links, with the same utilisation-driven inflation.

The model is analytic: per epoch the simulator aggregates each VCPU's
miss traffic onto the IMCs/links indicated by its page placement, and
the resulting utilisations inflate the base latencies through an
M/M/1-style factor ``1 / (1 - rho)`` capped to keep overload finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.hardware.topology import NUMATopology
from repro.util.validation import check_non_negative, check_positive

__all__ = ["LatencySpec", "MemoryCosts", "MemorySystem", "queue_inflation"]

#: Cache-line size in bytes.
LINE_BYTES = 64

#: DRAM traffic per LLC miss.  Each demand miss moves one 64 B line,
#: but hardware prefetch and dirty write-backs add roughly another
#: half line of traffic per miss on streaming workloads.
BYTES_PER_MISS = 96


@dataclass(frozen=True, slots=True)
class LatencySpec:
    """Base (uncontended) access latencies, in nanoseconds.

    Defaults approximate the paper's Westmere-EP host: ~35-cycle LLC
    hits, ~70 ns local DRAM, and a remote hop adding ~50 ns (a NUMA
    factor of ~1.7 uncontended, matching measured Westmere-EP numbers).
    """

    llc_hit_ns: float = 14.0
    local_dram_ns: float = 70.0
    remote_extra_ns: float = 50.0

    def __post_init__(self) -> None:
        check_positive(self.llc_hit_ns, "llc_hit_ns")
        check_positive(self.local_dram_ns, "local_dram_ns")
        check_non_negative(self.remote_extra_ns, "remote_extra_ns")

    def remote_dram_ns(self) -> float:
        """Uncontended remote DRAM latency."""
        return self.local_dram_ns + self.remote_extra_ns


def queue_inflation(utilisation: float, cap: float = 8.0) -> float:
    """M/M/1-style latency inflation ``1 / (1 - rho)``, capped.

    Parameters
    ----------
    utilisation:
        Offered load over capacity; values >= 1 saturate at ``cap``.
    cap:
        Maximum inflation factor (keeps overloaded systems finite; the
        real machine throttles issue rather than queueing unboundedly).
    """
    check_non_negative(utilisation, "utilisation")
    check_positive(cap, "cap")
    if utilisation >= 1.0 - 1.0 / cap:
        return cap
    return 1.0 / (1.0 - utilisation)


@dataclass(slots=True)
class MemoryCosts:
    """Per-epoch memory cost solve result.

    Attributes
    ----------
    miss_penalty_ns:
        Average post-LLC penalty per miss for each VCPU key, including
        queueing inflation, weighted over its local/remote access mix.
    imc_utilisation:
        Offered-load utilisation per node id.
    qpi_utilisation:
        Offered-load utilisation of the interconnect (aggregate).
    local_fraction:
        Fraction of each VCPU's misses served from its current node.
    """

    miss_penalty_ns: Dict[int, float] = field(default_factory=dict)
    imc_utilisation: Dict[int, float] = field(default_factory=dict)
    qpi_utilisation: float = 0.0
    local_fraction: Dict[int, float] = field(default_factory=dict)


class MemorySystem:
    """Aggregates miss traffic and prices each VCPU's average miss.

    Parameters
    ----------
    topology:
        The machine; provides per-node IMC bandwidths and QPI bandwidth.
    latency:
        Base latency figures.
    """

    def __init__(self, topology: NUMATopology, latency: LatencySpec | None = None) -> None:
        self.topology = topology
        self.latency = latency or LatencySpec()

    def solve(
        self,
        miss_rate_bytes_per_s: Mapping[int, float],
        run_node: Mapping[int, int],
        page_mix: Mapping[int, Sequence[float]],
    ) -> MemoryCosts:
        """Price one epoch's misses.

        Parameters
        ----------
        miss_rate_bytes_per_s:
            Per-VCPU demanded miss traffic (bytes/second) for the epoch,
            computed from miss rate x reference rate x line size.
        run_node:
            Node each VCPU ran on during the epoch.
        page_mix:
            Per-VCPU probability vector over nodes describing where its
            accessed pages live; ``page_mix[v][n]`` is the fraction of
            misses served by node ``n``'s DRAM.

        Returns
        -------
        MemoryCosts
            Average per-miss penalties and resource utilisations.
        """
        num_nodes = self.topology.num_nodes
        imc_traffic = np.zeros(num_nodes)
        qpi_traffic = 0.0

        for key, traffic in miss_rate_bytes_per_s.items():
            check_non_negative(traffic, f"traffic[{key}]")
            mix = page_mix[key]
            if len(mix) != num_nodes:
                raise ValueError(
                    f"page_mix[{key}] has {len(mix)} entries, expected {num_nodes}"
                )
            node = run_node[key]
            for target, frac in enumerate(mix):
                flow = traffic * frac
                imc_traffic[target] += flow
                if target != node:
                    qpi_traffic += flow

        imc_util: Dict[int, float] = {}
        imc_factor: Dict[int, float] = {}
        for n, spec in enumerate(self.topology.nodes):
            rho = float(imc_traffic[n] / spec.imc_bandwidth)
            imc_util[n] = rho
            imc_factor[n] = queue_inflation(rho)
        qpi_rho = float(qpi_traffic / self.topology.qpi_bandwidth)
        qpi_factor = queue_inflation(qpi_rho)

        penalties: Dict[int, float] = {}
        local_frac: Dict[int, float] = {}
        lat = self.latency
        for key in miss_rate_bytes_per_s:
            node = run_node[key]
            mix = page_mix[key]
            penalty = 0.0
            local = 0.0
            for target, frac in enumerate(mix):
                if frac <= 0:
                    continue
                dram = lat.local_dram_ns * imc_factor[target]
                if target == node:
                    local += frac
                    penalty += frac * dram
                else:
                    penalty += frac * (dram + lat.remote_extra_ns * qpi_factor)
            penalties[key] = penalty
            local_frac[key] = local

        return MemoryCosts(
            miss_penalty_ns=penalties,
            imc_utilisation=imc_util,
            qpi_utilisation=qpi_rho,
            local_fraction=local_frac,
        )

    def solve_compact(
        self,
        traffic: "np.ndarray | Sequence[float]",
        run_node: Sequence[int],
        page_mix: "np.ndarray | Sequence[Sequence[float]]",
    ) -> List[float]:
        """Array-style :meth:`solve`: per-VCPU penalties only.

        Parameters are positional arrays over the k running VCPUs:
        ``traffic`` of shape ``(k,)``, ``run_node`` of length k and
        ``page_mix`` of shape ``(k, num_nodes)``; ndarrays and plain
        (nested) lists are both accepted.  Skips validation and the
        utilisation/local-fraction dicts, but accumulates traffic and
        penalties in the same sequential order as :meth:`solve`, so the
        returned penalties are bitwise-identical.
        """
        num_nodes = self.topology.num_nodes
        traffic_l = traffic.tolist() if isinstance(traffic, np.ndarray) else traffic
        mix_l = page_mix.tolist() if isinstance(page_mix, np.ndarray) else page_mix
        k = len(traffic_l)
        if num_nodes == 2:
            return self._solve_compact_2node(traffic_l, run_node, mix_l, k)
        imc_traffic = [0.0] * num_nodes
        qpi_traffic = 0.0
        for i in range(k):
            t = traffic_l[i]
            mix = mix_l[i]
            node = run_node[i]
            for target in range(num_nodes):
                flow = t * mix[target]
                imc_traffic[target] += flow
                if target != node:
                    qpi_traffic += flow

        # queue_inflation() with the default cap, minus the validation.
        cap = 8.0
        knee = 1.0 - 1.0 / cap
        imc_factor = [0.0] * num_nodes
        for n, spec in enumerate(self.topology.nodes):
            rho = imc_traffic[n] / spec.imc_bandwidth
            imc_factor[n] = cap if rho >= knee else 1.0 / (1.0 - rho)
        qpi_rho = qpi_traffic / self.topology.qpi_bandwidth
        qpi_factor = cap if qpi_rho >= knee else 1.0 / (1.0 - qpi_rho)

        lat = self.latency
        local_dram = lat.local_dram_ns
        remote_extra = lat.remote_extra_ns
        penalties = [0.0] * k
        for i in range(k):
            mix = mix_l[i]
            node = run_node[i]
            penalty = 0.0
            for target in range(num_nodes):
                frac = mix[target]
                if frac <= 0:
                    continue
                dram = local_dram * imc_factor[target]
                if target == node:
                    penalty += frac * dram
                else:
                    penalty += frac * (dram + remote_extra * qpi_factor)
            penalties[i] = penalty
        return penalties

    def _solve_compact_2node(
        self,
        traffic_l: Sequence[float],
        run_node: Sequence[int],
        mix_l: Sequence[Sequence[float]],
        k: int,
    ) -> List[float]:
        """Two-socket :meth:`solve_compact`, loops unrolled.

        The dual-socket host of the paper is the overwhelmingly common
        topology, so the per-target inner loops are flattened.  Each
        accumulation happens in the reference's exact order (per VCPU:
        node 0's flow, then node 1's), so results stay bitwise equal.
        """
        imc0 = 0.0
        imc1 = 0.0
        qpi_traffic = 0.0
        for i in range(k):
            t = traffic_l[i]
            mix = mix_l[i]
            flow0 = t * mix[0]
            flow1 = t * mix[1]
            imc0 += flow0
            imc1 += flow1
            if run_node[i] == 0:
                qpi_traffic += flow1
            else:
                qpi_traffic += flow0

        cap = 8.0
        knee = 1.0 - 1.0 / cap
        nodes = self.topology.nodes
        rho0 = imc0 / nodes[0].imc_bandwidth
        rho1 = imc1 / nodes[1].imc_bandwidth
        factor0 = cap if rho0 >= knee else 1.0 / (1.0 - rho0)
        factor1 = cap if rho1 >= knee else 1.0 / (1.0 - rho1)
        qpi_rho = qpi_traffic / self.topology.qpi_bandwidth
        qpi_factor = cap if qpi_rho >= knee else 1.0 / (1.0 - qpi_rho)

        lat = self.latency
        # Hoisted per-node DRAM latencies and the remote adder: the same
        # products the reference computes inside its per-VCPU loop.
        dram0 = lat.local_dram_ns * factor0
        dram1 = lat.local_dram_ns * factor1
        remote_add = lat.remote_extra_ns * qpi_factor
        penalties = [0.0] * k
        for i in range(k):
            mix = mix_l[i]
            local = run_node[i] == 0
            penalty = 0.0
            frac = mix[0]
            if frac > 0:
                penalty += frac * dram0 if local else frac * (dram0 + remote_add)
            frac = mix[1]
            if frac > 0:
                penalty += frac * (dram1 + remote_add) if local else frac * dram1
            penalties[i] = penalty
        return penalties

    def traffic_for(
        self,
        refs_per_s: float,
        miss_rate: float,
    ) -> float:
        """Demanded DRAM traffic for an LLC reference stream (bytes/s),
        including the prefetch/write-back overhead per miss."""
        check_non_negative(refs_per_s, "refs_per_s")
        check_non_negative(miss_rate, "miss_rate")
        return refs_per_s * miss_rate * BYTES_PER_MISS
