"""Structure-of-arrays fast path for the epoch engine.

The reference implementation in :mod:`repro.xen.simulator` prices every
epoch through per-VCPU dictionaries (demands, rates, traffic, penalties,
page mixes) and rescans all VCPUs for wakeups, phase changes and finite
completion.  That is the clearest possible statement of the model — and
the hot path of every experiment, so :class:`VectorEngine` re-implements
it with flat arrays keyed by VCPU index, cached invariants and event
heaps.

**The contract is bitwise equality**: for any scenario and seed, a run
through the vector engine produces exactly the same simulated results
(finish times, counter values, migration counts, overhead) as the
reference loop.  Four rules keep that true:

* elementwise float64 arithmetic (``+ - * /``) produces identical bits
  whether it runs through numpy ufuncs or Python scalars, so each
  per-VCPU expression may use whichever is faster at the machine's
  scale — but *reductions* may not be reordered: every ordered
  accumulation (IMC/QPI traffic, per-miss penalties, busy time) stays
  a sequential loop in exactly the reference's order;
* every cached invariant (``refs_per_instruction * intensity_multiplier``,
  the memoised :class:`CacheDemand`, the LLC warmth charge factor, the
  first-touch drift per epoch, the waterfilled LLC shares) depends only
  on the profile, the phase multipliers and the co-runner set, so it is
  invalidated precisely when :meth:`VcpuWorkload.maybe_phase_change`
  fires (a generation counter) or the running set changes;
* heap-driven wake and phase processing replays due events in VCPU-key
  order — the order the reference scans ``machine.vcpus`` — because
  wake handling mutates shared queue and RNG state;
* state *transitions* (done/block, context-switch hooks, overhead
  charges) happen in the reference's per-VCPU order even though the
  arithmetic before them is batched.

The engine holds only *derived* state; all simulation state lives in
the machine's VCPUs, workloads and hardware models.  Rebuilding the
engine from a live machine (``Machine.add_domain`` invalidates it) is
therefore lossless.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.hardware.cache import CacheDemand, LLCState
from repro.hardware.memory import BYTES_PER_MISS
from repro.xen import native
from repro.xen.vcpu import Vcpu, VcpuState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.simulator import Machine

__all__ = ["VectorEngine", "BatchedEngine"]


class _Gather:
    """Per-running-set arrays, valid while the set and phases hold.

    A VCPU→PCPU assignment typically survives a whole 30 ms slice
    (dozens of epochs), so everything derivable from *which* VCPUs run
    *where* — profile constants, per-node co-runner groups, waterfilled
    LLC shares, page-mix gather indices — is built once per assignment
    and reused until the assignment or a phase generation changes.
    """

    __slots__ = (
        "keys",
        "node_of",
        "rpi",
        "cpi_base",
        "mlp",
        "clock",
        "ns2c",
        "drift",
        "totals",
        "conc_col",
        "anti_conc_col",
        "conc_l",
        "anti_l",
        "mix_row_src",
        "mix_over_src",
        "pmu_rows",
        "pmu_banks",
        "node_members",
        "node_member_sets",
        "node_charge",
        "node_positions",
        "node_solve",
        "node_miss_tuples",
        "mix_groups",
        "fused",
    )

    def __init__(self, engine: "VectorEngine", pcpus, vcpus, k: int) -> None:
        keys = [v.key for v in vcpus]
        node_of = [p.node for p in pcpus]
        self.keys = keys
        self.node_of = node_of
        self.rpi = [engine.rpi[key] for key in keys]
        self.cpi_base = [engine.cpi_base[key] for key in keys]
        self.mlp = [engine.mlp[key] for key in keys]
        self.clock = [engine.node_clock[n] for n in node_of]
        self.ns2c = [engine.node_ns2c[n] for n in node_of]
        self.drift = [engine.drift_amount[key] for key in keys]
        self.totals = [engine.total_instr[key] for key in keys]

        # Concentration scalars; (1.0 - c) is identical bits to the
        # scalar subtraction in MemoryPlacement.page_mix.  The column
        # vectors only feed the multi-node ufunc mix path, so the
        # dual-socket fast path skips building them.
        conc_l = [engine.conc[key] for key in keys]
        self.conc_l = conc_l
        self.anti_l = [1.0 - c for c in conc_l]
        if engine.two_node:
            self.conc_col = None
            self.anti_conc_col = None
        else:
            conc = np.array(conc_l)
            self.conc_col = conc[:, None]
            self.anti_conc_col = (1.0 - conc)[:, None]

        pmu = engine.machine.pmu
        self.pmu_rows = pmu.rows_for(keys)
        self.pmu_banks = pmu.banks_for(keys)

        # Per-node co-runner groups, sorted by key (the order the
        # reference's sorted(demands) solve iterates).  The waterfilled
        # allocations depend only on capacity and demands — not warmth —
        # so they are computed once per co-runner set, along with the
        # flattened miss-rate-curve scalars the per-epoch loop reads.
        num_nodes = len(engine.node_clock)
        index_of = {key: i for i, key in enumerate(keys)}
        members: List[List[int]] = [[] for _ in range(num_nodes)]
        for i in range(k):
            members[node_of[i]].append(keys[i])
        for m in members:
            m.sort()
        self.node_members = members
        self.node_positions = [
            [index_of[key] for key in m] for m in members
        ]
        self.node_member_sets = []
        self.node_charge = []
        self.node_solve = []
        self.node_miss_tuples = []
        caches = engine.machine.caches
        for node in range(num_nodes):
            m = members[node]
            node_key = (node, tuple(m))
            entry = engine._node_cache.get(node_key)
            if entry is None:
                demands = [engine.demand[key] for key in m]
                charge_l = [engine.charge_factor[key] for key in m]
                allocs = caches[node].occupancy_shares(demands)
                ws_l = [d.working_set_bytes for d in demands]
                minmr_l = [d.min_miss_rate for d in demands]
                span_l = [d.max_miss_rate - d.min_miss_rate for d in demands]
                shape_l = [d.curve_shape for d in demands]
                # The capped share `min(1.0, alloc / ws)` is exactly the
                # scalar the reference recomputes every epoch — same
                # inputs, same float — so it is safe to freeze per
                # co-runner set.
                share_l = [
                    min(1.0, allocs[j] / ws_l[j]) if ws_l[j] > 0 else 0.0
                    for j in range(len(m))
                ]
                entry = (
                    frozenset(m),
                    charge_l,
                    (allocs, ws_l, minmr_l, span_l, shape_l),
                    # Member-ordered miss-curve tuples for the fused
                    # replay plan: (share, minmr, span, shape, ws<=0).
                    [
                        (
                            share_l[j],
                            minmr_l[j],
                            span_l[j],
                            shape_l[j],
                            ws_l[j] <= 0,
                        )
                        for j in range(len(m))
                    ],
                )
                engine._node_cache[node_key] = entry
            self.node_member_sets.append(entry[0])
            self.node_charge.append(entry[1])
            self.node_solve.append(entry[2])
            self.node_miss_tuples.append(entry[3])

        # Page-mix gather plan.  Dual-socket machines get direct
        # references to each VCPU's placement-mirror row (stable list
        # objects, see MemoryPlacement); other topologies group VCPUs
        # by placement object so each group's slice rows load with one
        # fancy index.
        if engine.two_node:
            row2 = engine.mix_row2
            self.mix_groups = None
            self.mix_row_src = [row2[key] for key in keys]
            over2 = engine.mix_over2
            self.mix_over_src = [over2[key] for key in keys]
        else:
            by_placement: Dict[int, Tuple[object, List[int], List[int]]] = {}
            placement_of = engine.placement_of
            for i in range(k):
                vcpu = vcpus[i]
                placement = placement_of[keys[i]]
                group = by_placement.get(id(placement))
                if group is None:
                    group = (placement, [], [])
                    by_placement[id(placement)] = group
                group[1].append(vcpu.workload.slice_id)
                group[2].append(i)
            self.mix_groups = [
                (placement, np.array(slices), np.array(positions))
                for placement, slices, positions in by_placement.values()
            ]
            self.mix_row_src = None
            self.mix_over_src = None
        #: lazily-built fused-replay plan (see
        #: BatchedEngine._build_fused_plan) — every structure the scalar
        #: replay needs that depends only on the assignment, not on the
        #: evolving warmth/progress state.
        self.fused = None


class VectorEngine:
    """Vectorized epoch engine bound to one :class:`Machine`.

    Built lazily on the first stepped epoch and discarded whenever the
    machine's VCPU population changes; construction scans the live
    machine state once, after which per-epoch work touches only the
    VCPUs that are actually running, waking or changing phase.
    """

    #: True on engines that implement compute_horizon/advance_batch;
    #: the stepper consults it before attempting a macro-step.
    supports_batch = False

    #: gather-cache entries kept before the cache is cleared.  Loaded
    #: machines rarely revisit an assignment (the hit rate is under 10%
    #: on the loaded SPEC scenario at any size), and every cached gather
    #: with its fused plan is ~100 GC-tracked containers: at 1024
    #: entries they survive into the oldest generation and full
    #: collections cost ~10% of a loaded run.  At 64 the rebuild count
    #: grows by ~2% and the collections mostly stop.
    _GATHER_CACHE_MAX = 64

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.epoch = machine.config.epoch_s
        topo = machine.topology
        vcpus = machine.vcpus

        # Per-node constants.  ``ns_to_cycles`` is precomputed exactly as
        # the reference evaluates it (clock_hz * 1e-9).
        self.node_clock: List[float] = [node.clock_hz for node in topo.nodes]
        self.node_ns2c: List[float] = [c * 1e-9 for c in self.node_clock]
        self.two_node = topo.num_nodes == 2

        # Per-VCPU invariants, keyed by VCPU key.  Profile constants are
        # immutable; the phase-dependent ones (rpi, demand, warmth
        # charge) are refreshed by refresh_vcpu() on phase change.
        n = len(vcpus)
        self.cpi_base: List[float] = [v.workload.profile.cpi_base for v in vcpus]
        self.mlp: List[float] = [v.workload.profile.mlp for v in vcpus]
        self.conc: List[float] = [
            v.workload.profile.slice_concentration for v in vcpus
        ]
        self.drift_amount: List[float] = [
            min(1.0, v.workload.profile.touch_rate * self.epoch) for v in vcpus
        ]
        self.rpi: List[float] = [0.0] * n
        self.demand: List[Optional[CacheDemand]] = [None] * n
        self.charge_factor: List[float] = [1.0] * n
        self.total_instr: List[float] = [0.0] * n
        # Per-key placement mirrors (refreshed with the phase, since the
        # active slice moves with it).  Placement objects are fixed after
        # machine setup and the dual-socket row/overall mirrors are
        # stable list objects, so gather builds reduce to indexed loads.
        self.placement_of: List[object] = [None] * n
        self.mix_row2: List[Optional[list]] = [None] * n
        self.mix_over2: List[Optional[list]] = [None] * n
        #: per-key phase generation: bumped by refresh_vcpu(), woven
        #: into the gather signature so a phase change invalidates only
        #: the cached assignments that include the changed VCPU —
        #: everyone else's memos survive.
        self.key_gen: List[int] = [0] * n
        # Cached per-running-set gathers (see _Gather).  Assignments
        # recur as queues rotate, so gathers are memoised by
        # (keys, pcpus) with the per-key generations stored alongside:
        # a phase change replaces the stale entry in place, so the dict
        # never grows past the number of distinct assignments or
        # _GATHER_CACHE_MAX, whichever is smaller.
        self._gather: Optional[_Gather] = None
        self._gather_sig: Optional[Tuple] = None
        self._gather_cache: Dict[Tuple, Tuple[Tuple, _Gather]] = {}
        # Per-co-runner-set sub-memo shared across gathers (waterfill
        # shares recur as queues rotate).  Phase-dependent, so
        # refresh_vcpu() evicts entries mentioning the refreshed key.
        self._node_cache: Dict[Tuple, Tuple] = {}
        for vcpu in vcpus:
            self.refresh_vcpu(vcpu)

        # Live per-node warmth tables (stable dict objects) and bound
        # per-LLC advance methods (skips the CacheModel hop per epoch).
        self._warmth_tables = [
            cache.state.warmth_table for cache in machine.caches
        ]
        self._cache_advance = [
            cache.state.advance_compact for cache in machine.caches
        ]

        # Reusable page-mix gather buffers, sliced to the running count.
        num_pcpus = len(machine.pcpus)
        num_nodes = len(self.node_clock)
        self._rows_buf = np.empty((num_pcpus, num_nodes))
        self._over_buf = np.empty((num_pcpus, num_nodes))

        # Wake-time min-heap replacing the all-VCPU step-2 scan.  Lazy
        # invalidation: entries are validated against live VCPU state at
        # pop time.  Every BLOCKED-with-finite-wake VCPU has an entry.
        self.wake_heap: List[Tuple[float, int]] = [
            (v.wake_time, v.key)
            for v in vcpus
            if v.state is VcpuState.BLOCKED and math.isfinite(v.wake_time)
        ]
        heapq.heapify(self.wake_heap)

        # Phase-change min-heap replacing the per-epoch phase scan.
        self.phase_heap: List[Tuple[float, int]] = [
            (v.workload.next_phase_change, v.key)
            for v in vcpus
            if v.workload.active
            and not v.workload.done
            and v.workload.profile.phase is not None
            and math.isfinite(v.workload.next_phase_change)
        ]
        heapq.heapify(self.phase_heap)

        # Finite-work countdown replacing the _all_finite_done rescan.
        finite = [
            w
            for d in machine.domains
            for w in d.workloads
            if w.active and w.profile.is_finite
        ]
        self.has_finite = bool(finite)
        self.finite_remaining = sum(1 for w in finite if not w.done)

    # ------------------------------------------------------------------
    # Invariant maintenance
    # ------------------------------------------------------------------
    def refresh_vcpu(self, vcpu: Vcpu) -> None:
        """Recompute phase-dependent invariants after a phase change."""
        w = vcpu.workload
        key = vcpu.key
        self.rpi[key] = w.profile.refs_per_instruction * w.intensity_multiplier
        demand = w.cache_demand()
        self.demand[key] = demand
        tau = max(1e-4, demand.working_set_bytes / LLCState.FILL_BANDWIDTH)
        self.charge_factor[key] = math.exp(-self.epoch / tau)
        self.total_instr[key] = w.profile.total_instructions
        placement = vcpu.domain.placement
        self.placement_of[key] = placement
        if self.two_node:
            self.mix_row2[key] = placement._rows2[w.slice_id]
            self.mix_over2[key] = placement._over2
        self.key_gen[key] += 1
        # Selective eviction: only memos that embed this key's phase-
        # dependent data (demand, charge factor, slice id) are stale.
        # Gather-cache entries mentioning the key become unreachable
        # through their per-key-generation signatures; the size cap
        # reclaims them.
        node_cache = self._node_cache
        for nk in [nk for nk in node_cache if key in nk[1]]:
            del node_cache[nk]

    # ------------------------------------------------------------------
    # Event-driven scans
    # ------------------------------------------------------------------
    def pop_due_wakes(self, now: float) -> List[Vcpu]:
        """Due wakeups, in VCPU-key order (the reference scan order)."""
        heap = self.wake_heap
        if not heap or heap[0][0] > now:
            return []
        vcpus = self.machine.vcpus
        due: List[Vcpu] = []
        seen: Set[int] = set()
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            vcpu = vcpus[key]
            if (
                key not in seen
                and vcpu.state is VcpuState.BLOCKED
                and vcpu.wake_time <= now
            ):
                seen.add(key)
                due.append(vcpu)
        due.sort(key=lambda v: v.key)
        return due

    def push_wake(self, vcpu: Vcpu) -> None:
        """Track a VCPU that just blocked with a finite wake time."""
        if math.isfinite(vcpu.wake_time):
            heapq.heappush(self.wake_heap, (vcpu.wake_time, vcpu.key))

    def apply_phase_changes(self, end: float) -> None:
        """Apply all phase changes due by ``end``, in VCPU-key order."""
        heap = self.phase_heap
        if not heap or heap[0][0] > end:
            return
        machine = self.machine
        vcpus = machine.vcpus
        due: Set[int] = set()
        while heap and heap[0][0] <= end:
            _, key = heapq.heappop(heap)
            w = vcpus[key].workload
            # A finished or stale entry is simply dropped; live entries
            # always carry the workload's current next_phase_change.
            if w.active and not w.done and w.next_phase_change <= end:
                due.add(key)
        for key in sorted(due):
            vcpu = vcpus[key]
            w = vcpu.workload
            if w.maybe_phase_change(end):
                machine.log.emit(
                    end, "phase_change", vcpu=vcpu.name, slice=w.slice_id
                )
                self.refresh_vcpu(vcpu)
                nxt = w.next_phase_change
                if math.isfinite(nxt):
                    heapq.heappush(heap, (nxt, key))

    def all_finite_done(self) -> bool:
        """Countdown equivalent of ``Machine._all_finite_done``."""
        return self.has_finite and self.finite_remaining == 0

    def _gather_for(
        self,
        running_pcpus: list,
        running_vcpus: List[Vcpu],
        sig_keys: List[int],
        sig_pids: List[int],
    ) -> _Gather:
        """The per-assignment gather for this running set, memoised."""
        kg = self.key_gen
        sig_kp = (tuple(sig_keys), tuple(sig_pids))
        gens = tuple(kg[key] for key in sig_keys)
        sig = (sig_kp, gens)
        if sig == self._gather_sig:
            return self._gather
        cache = self._gather_cache
        entry = cache.get(sig_kp)
        if entry is None or entry[0] != gens:
            gather = _Gather(
                self, running_pcpus, running_vcpus, len(running_vcpus)
            )
            self.machine.profiler.count("gather_build")
            if len(cache) >= self._GATHER_CACHE_MAX:
                cache.clear()
            cache[sig_kp] = (gens, gather)
        else:
            gather = entry[1]
        self._gather = gather
        self._gather_sig = sig
        return gather

    # ------------------------------------------------------------------
    # Contention + progress (the vectorized _advance_running)
    # ------------------------------------------------------------------
    def advance_running(self, now: float, epoch: float) -> None:
        machine = self.machine

        running_pcpus = []
        running_vcpus = []
        sig_keys = []
        sig_pids = []
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is not None:
                running_pcpus.append(pcpu)
                running_vcpus.append(cur)
                sig_keys.append(cur.key)
                sig_pids.append(pcpu.pcpu_id)
        k = len(running_vcpus)
        if k == 0:
            # Nothing ran: warmth still decays on every LLC.
            for advance in self._cache_advance:
                advance(epoch, (), ())
            return

        gather = self._gather_for(
            running_pcpus, running_vcpus, sig_keys, sig_pids
        )

        # Per-LLC miss rates from the cached waterfill shares and the
        # current warmth (the only per-epoch input).  This is
        # CacheModel.miss_rates_from_shares unrolled over the gather's
        # flattened curve scalars — the op sequence per VCPU is exactly
        # CacheDemand.miss_rate's.
        miss = [0.0] * k
        for node_id, members in enumerate(gather.node_members):
            if not members:
                continue
            warmth = self._warmth_tables[node_id]
            positions = gather.node_positions[node_id]
            allocs, ws_l, minmr_l, span_l, shape_l = gather.node_solve[node_id]
            for j in range(len(members)):
                ws = ws_l[j]
                if ws <= 0:
                    f = 1.0
                else:
                    # In [0, 1] by construction (warmth and the capped
                    # share both are), so miss_rate's clamp is a no-op.
                    f = min(1.0, allocs[j] / ws) * warmth.get(members[j], 0.0)
                shape = shape_l[j]
                missing = 1.0 - f if shape == 1.0 else (1.0 - f) ** shape
                miss[positions[j]] = minmr_l[j] + span_l[j] * missing

        # Page mixes: each row is the reference's Domain.page_mix_for
        # (concentration blend, then row-normalise).
        mix = None
        if gather.mix_row_src is not None:
            # Dual-socket: scalar blend straight off the placement
            # mirrors — the same elementwise ops as the ufunc path,
            # without touching the (lazily synced) ndarrays.
            conc_l = gather.conc_l
            anti_l = gather.anti_l
            row_src = gather.mix_row_src
            over_src = gather.mix_over_src
            mix_rows = [None] * k
            for i in range(k):
                c = conc_l[i]
                a = anti_l[i]
                row = row_src[i]
                over = over_src[i]
                m0 = c * row[0] + a * over[0]
                m1 = c * row[1] + a * over[1]
                s = m0 + m1
                mix_rows[i] = [m0 / s, m1 / s]
        else:
            rows = self._rows_buf[:k]
            over = self._over_buf[:k]
            for placement, slices, positions in gather.mix_groups:
                rows[positions] = placement.matrix[slices]
                over[positions] = placement.overall
            mix = gather.conc_col * rows + gather.anti_conc_col * over
            mix /= mix.sum(axis=1)[:, None]
            mix_rows = mix.tolist()

        # Fixed point: rates -> traffic -> queueing -> rates.  Scalar
        # float64 expressions in the reference's exact op order; at the
        # machine's scale (co-runners == PCPUs) this beats ufunc
        # dispatch while producing identical bits.
        lat = machine.config.latency
        hit_ns = lat.llc_hit_ns
        node_of = gather.node_of
        rpi = gather.rpi
        cpi_base = gather.cpi_base
        mlp = gather.mlp
        clock = gather.clock
        ns2c = gather.ns2c
        penalty = [lat.local_dram_ns] * k
        rates = [0.0] * k
        traffic = [0.0] * k
        for _ in range(machine.config.contention_iterations - 1):
            for i in range(k):
                mr = miss[i]
                per_ref_ns = (1.0 - mr) * hit_ns + mr * penalty[i]
                stall = rpi[i] * per_ref_ns * ns2c[i] / mlp[i]
                rate = clock[i] / (cpi_base[i] + stall)
                rates[i] = rate
                traffic[i] = rate * rpi[i] * mr * BYTES_PER_MISS
            penalty = machine.memsys.solve_compact(traffic, node_of, mix_rows)
        # Last iteration: the reference recomputes rates and then makes
        # one more (pure, side-effect-free) solve call whose result it
        # discards — so only the rates are computed here.
        for i in range(k):
            mr = miss[i]
            per_ref_ns = (1.0 - mr) * hit_ns + mr * penalty[i]
            stall = rpi[i] * per_ref_ns * ns2c[i] / mlp[i]
            rates[i] = clock[i] / (cpi_base[i] + stall)

        # Progress pass 1: instruction budgets in PCPU order (overhead
        # consumption and busy-time accumulation are ordered effects).
        totals = gather.totals
        instructions = [0.0] * k
        refs = [0.0] * k
        misses = [0.0] * k
        for i in range(k):
            pcpu = running_pcpus[i]
            # Inlined Pcpu.consume_overhead with an overhead-free fast
            # path (identical arithmetic when overhead is pending).
            pending = pcpu.overhead_pending_s
            if pending > 0.0:
                used = pending if pending < epoch else epoch
                pcpu.overhead_pending_s = pending - used
                compute = epoch - used
            else:
                compute = epoch
            pcpu.busy_time_s += epoch
            machine.busy_time_s += epoch
            done = rates[i] * compute
            total = totals[i]
            if total is not None:
                remaining = total - running_vcpus[i].workload.instructions_done
                if remaining < 0.0:
                    remaining = 0.0
                if remaining < done:
                    done = remaining
            instructions[i] = done
            r = done * rpi[i]
            refs[i] = r
            misses[i] = r * miss[i]

        # PMU charges, batched: the access matrix is elementwise
        # (misses x page mix), the per-bank accumulation stays ordered.
        if mix is None:
            accesses = [
                [misses[i] * mix_rows[i][0], misses[i] * mix_rows[i][1]]
                for i in range(k)
            ]
        else:
            accesses = np.array(misses)[:, None] * mix
        machine.pmu.charge_epoch(
            gather.keys,
            instructions,
            refs,
            misses,
            accesses,
            node_of,
            rows=gather.pmu_rows,
        )

        # Progress pass 2: retire work, drift placement, handle
        # completion and blocking (same order, same transitions).
        end = now + epoch
        policy = machine.policy
        log = machine.log
        drift = gather.drift
        for i in range(k):
            pcpu = running_pcpus[i]
            vcpu = running_vcpus[i]
            w = vcpu.workload
            w.instructions_done += instructions[i]
            vcpu.slice_used_s += epoch
            vcpu.run_burst_remaining_s -= epoch

            if drift[i] > 0:
                vcpu.domain.placement.drift_slice_fast(
                    w.slice_id, pcpu.node, drift[i]
                )

            total = totals[i]
            if total is not None and w.instructions_done >= total:
                vcpu.mark_done(end)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)
                log.emit(end, "finish", vcpu=vcpu.name)
                self.finite_remaining -= 1
            elif vcpu.run_burst_remaining_s <= 0:
                vcpu.block_until(end + w.draw_block_time())
                self.push_wake(vcpu)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)

        # LLC warmth: charge running sets, decay everyone else, using
        # the per-VCPU charge factors cached at phase boundaries.
        for node_id, members in enumerate(gather.node_members):
            self._cache_advance[node_id](
                epoch,
                members,
                gather.node_charge[node_id],
                gather.node_member_sets[node_id],
            )


class _FusedState:
    """Hoisted per-batch state for the fused scalar replay.

    Carries the seeded accumulator lists (shared, mutated in place by
    :meth:`BatchedEngine._fused_epochs`) plus the gather/plan handles
    the commit needs.  ``mbusy`` is the one plain-float accumulator —
    the epoch loop reads it into a local and writes the final back.
    Everything between seed and commit is private to the batch, so the
    state is the complete hand-off between the three phases of
    :meth:`BatchedEngine._advance_replay_fused`.
    """

    __slots__ = (
        "gather",
        "plan",
        "k",
        "running_pcpus",
        "running_vcpus",
        "pend",
        "busy",
        "mbusy",
        "idone",
        "sused",
        "burst",
        "bi",
        "br",
        "bm",
        "bl",
        "bx",
        "m0",
        "m1",
    )


class BatchedEngine(VectorEngine):
    """Macro-stepping engine: one replay call per quiet-epoch run.

    Extends :class:`VectorEngine` with an *event horizon*: the number of
    upcoming epochs guaranteed free of discrete events — scheduler
    ticks, sampling boundaries, wakeups, phase changes, finite-work
    completions, run-burst expiries, fault stalls/crashes, the epoch cap
    and the run's time limit.  All ``K`` quiet epochs advance in one
    :meth:`advance_batch` call.

    The bitwise contract survives batching because a batch runs the
    singleton path's per-epoch arithmetic in its exact order; only the
    event checks the horizon proved are no-ops are skipped.  The fused
    scalar replay (:meth:`_advance_replay_fused`, native kernel or its
    Python oracle) additionally hoists the running-set scan, gather
    lookup and every state commit out of the epoch loop.  Batches it
    cannot take — fused ticks, idle PCPUs — replay the inherited
    single-epoch advance epoch by epoch (:meth:`_advance_replay`),
    making the real tick calls and the (no-op) idle-PCPU steal attempts
    at their exact epochs, which keeps scheduler RNG parity.

    Topologies other than the paper's dual-socket host fall back to
    singleton stepping (``compute_horizon`` returns 1), which is the
    inherited :class:`VectorEngine` path.
    """

    supports_batch = True

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine)
        self._cache_advance_batch = [
            cache.state.advance_compact_batch for cache in machine.caches
        ]
        #: pending fused-boundary plan for the batch compute_horizon just
        #: sized: a list of ``(j, time, slice_proj, repicks)`` tuples, one
        #: per provably-quiescent Credit tick inside the horizon.
        self._fuse_plan: Optional[list] = None
        self._horizon_hist: Dict[int, int] = {}
        self._batch_calls = 0
        self._fused_tick_total = 0
        self._repick_total = 0
        #: fused-replay batches run by the native kernel / by Python.
        self._replay_native = 0
        self._replay_python = 0
        #: hoisted latency/topology constants for the fused replay,
        #: built on first use (see _build_fused_plan).
        self._fused_scalars: Optional[tuple] = None
        #: run-static constants for _horizon_fused, built on first call
        #: (policy params and latency floors never change mid-run).
        self._fh_const: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------
    def compute_horizon(self, now: float, limit: float) -> int:
        """Quiet epochs (including the current one) safe to macro-step.

        Called after the stepper has run this epoch's fault, tick, wake
        and scheduling phases; returns 1 whenever any discrete event
        could fire before the batch would end.  A horizon may span
        Credit ticks the policy's quiescence projection proves are
        no-ops — the plan of fused boundaries is left in ``_fuse_plan``
        for advance_batch.
        """
        self._fuse_plan = None
        faults = self.machine.faults
        if not self.two_node:
            kb = 1
        elif faults is not None and faults.plan.stall_rate > 0:
            # Pending stall overhead lands at arbitrary epochs and is
            # invisible to the quiescence projection — keep the classic
            # stall-capped sizing for these runs.
            kb = self._horizon_classic(now, limit)
        else:
            kb = self._horizon_fused(now, limit)
        hist = self._horizon_hist
        hist[kb] = hist.get(kb, 0) + 1
        return kb

    def _horizon_classic(self, now: float, limit: float) -> int:
        """Tick-capped horizon sizing: every Credit tick ends the batch."""
        machine = self.machine
        e0 = machine.epoch_index
        epoch = self.epoch
        kb = machine._epochs_per_tick - (e0 % machine._epochs_per_tick)
        ks = machine._epochs_per_sample - (e0 % machine._epochs_per_sample)
        if ks < kb:
            kb = ks
        cap = machine.config.max_epochs
        if cap is not None and cap - e0 < kb:
            kb = cap - e0
        crash_time = math.inf
        faults = machine.faults
        if faults is not None:
            if faults.plan.stall_rate > 0:
                next_stall = faults.next_stall_epoch()
                if next_stall is None:
                    return 1
                if next_stall - e0 < kb:
                    kb = next_stall - e0
            next_crash = faults.next_crash_time()
            if next_crash is not None:
                crash_time = next_crash
        if kb <= 1:
            return 1

        # Running-set floors.  Completions stay *exclusive*: with rates
        # bounded by clock / cpi_base (the queueing stall is
        # non-negative), a one-epoch margin under each finite-work
        # budget guarantees no completion fires at any batch epoch.
        # Run-burst expiries are *inclusive*: the budget drains by
        # exactly one epoch per step regardless of contention, so the
        # expiry epoch is known in advance — the batch may end ON it and
        # fire the block transition at the batch boundary.
        idle = False
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is None:
                idle = True
                continue
            key = cur.key
            w = cur.workload
            total = w.profile.total_instructions
            if total is not None:
                remaining = total - w.instructions_done
                rate_max = self.node_clock[pcpu.node] / self.cpi_base[key]
                floor = int(remaining / (rate_max * epoch)) - 1
                if floor < kb:
                    kb = floor
            burst = cur.run_burst_remaining_s
            if burst <= (kb + 1) * epoch:
                # Expiry may land inside the window: replay the exact
                # per-epoch subtraction chain (`x -= epoch`, the same
                # sequential float ops the progress pass performs) to
                # find the first epoch whose end leaves the budget at
                # or below zero, and end the batch there.
                x = burst
                for j in range(kb):
                    x -= epoch
                    if x <= 0.0:
                        kb = j + 1
                        break
            if kb <= 1:
                return 1
        if idle:
            # After a scheduling pass an idle PCPU implies every queue
            # is empty (the pass steals unconditionally); guard the
            # invariant anyway — queued work next to an idle PCPU means
            # rescheduling activity every epoch.
            for pcpu in machine.pcpus:
                if pcpu.queue.head_rank() is not None:
                    return 1

        # Time-driven events: walk the exact epoch-end trajectory (the
        # same sequential float adds the stepper performs) against the
        # wake heap, the phase heap, the crash schedule and the run
        # limit.  A phase change due at a batch-final epoch end is fine:
        # the stepper applies phase changes once at the batch end.
        wake = self.wake_heap[0][0] if self.wake_heap else math.inf
        phase = self.phase_heap[0][0] if self.phase_heap else math.inf
        t = now
        j = 0
        while j < kb:
            if j > 0 and (
                wake <= t or crash_time <= t or t >= limit - 1e-12
            ):
                kb = j
                break
            t_next = t + epoch
            if phase <= t_next:
                kb = j + 1
                break
            t = t_next
            j += 1
        return kb if kb > 1 else 1

    def _horizon_fused(self, now: float, limit: float) -> int:
        """Horizon sizing that spans provably-quiescent Credit ticks.

        One merged walk along the epoch axis checks, per epoch, the same
        caps as :meth:`_horizon_classic` (wakes, crashes, the run limit,
        phase changes, inclusive run-burst expiries) *plus*, at every
        tick boundary, a quiescence projection of the tick's arithmetic:

        * the policy must promise stock Credit behaviour for that tick
          (:meth:`SchedulerPolicy.tick_is_quiescent`);
        * the projected debit/refill must not tickle-preempt anyone (no
          queue head outranking a running VCPU's post-tick priority) and
          must not flip a *queued* VCPU across the UNDER/OVER line (a
          flip reorders its queue at ``_requeue_for_priority``, which can
          change every later pick);
        * a projected slice expiry is fusable only as a *re-pick*: no
          idle PCPU, every queue empty machine-wide, and the policy's
          ``fused_repick_steals_none`` licence in force — then the
          expiry provably re-selects the incumbent and the boundary's
          real calls replay at commit time (RNG draws included).

        Ticks that pass are recorded in ``self._fuse_plan`` as
        ``(j, time, slice_proj, repicks)`` and committed by
        advance_batch; the first tick that fails terminates the horizon
        exactly where the classic sizing would.

        The finite-work completion floor is tightened relative to the
        classic one: every LLC reference costs at least
        ``min(llc_hit_ns, local_dram_ns)`` (remote latency is local plus
        a non-negative premium, and queueing only inflates penalties),
        so ``clock / (cpi_base + rpi * floor_ns * ns2c / mlp)`` is still
        a true upper bound on the retire rate while sitting far below
        ``clock / cpi_base`` for memory-bound keys.
        """
        machine = self.machine
        e0 = machine.epoch_index
        epoch = self.epoch
        kmax = machine._epochs_per_sample - (e0 % machine._epochs_per_sample)
        cap = machine.config.max_epochs
        if cap is not None and cap - e0 < kmax:
            kmax = cap - e0
        crash_time = math.inf
        faults = machine.faults
        if faults is not None:
            # stall_rate > 0 routes to _horizon_classic before this point
            next_crash = faults.next_crash_time()
            if next_crash is not None:
                crash_time = next_crash
        if kmax <= 1:
            return 1

        fh = self._fh_const
        if fh is None:
            lat = machine.config.latency
            params = machine.policy.params
            fh = self._fh_const = (
                # every LLC reference costs at least the cheaper of a
                # hit and local DRAM; remote is local plus a premium
                lat.llc_hit_ns
                if lat.llc_hit_ns < lat.local_dram_ns
                else lat.local_dram_ns,
                machine._epochs_per_tick,
                params.credits_per_tick,
                params.credit_floor,
                params.credit_cap,
                params.ticks_per_acct,
                params.slice_s,
                bool(
                    machine.policy.fused_repick_steals_none
                    and params.cache_hot_s > 0.0
                ),
            )
        (
            floor_ns,
            ept,
            cpt,
            cfloor,
            ccap,
            tpa,
            slice_s,
            repick_base,
        ) = fh
        running_pcpus = []
        running_vcpus = []
        idle = False
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is None:
                idle = True
                continue
            running_pcpus.append(pcpu)
            running_vcpus.append(cur)
            w = cur.workload
            total = w.profile.total_instructions
            if total is not None:
                key = cur.key
                node = pcpu.node
                rate_ub = self.node_clock[node] / (
                    self.cpi_base[key]
                    + self.rpi[key]
                    * floor_ns
                    * self.node_ns2c[node]
                    / self.mlp[key]
                )
                floor = int((total - w.instructions_done) / (rate_ub * epoch)) - 1
                if floor < kmax:
                    kmax = floor
        if kmax <= 1:
            return 1
        if idle:
            # Same invariant guard as the classic sizing: an idle PCPU
            # next to queued work means rescheduling every epoch.
            for pcpu in machine.pcpus:
                if pcpu.queue.head_rank() is not None:
                    return 1

        policy = machine.policy
        k = len(running_vcpus)
        wake = self.wake_heap[0][0] if self.wake_heap else math.inf
        phase = self.phase_heap[0][0] if self.phase_heap else math.inf

        # Armed run-burst chains: exact per-epoch `x -= epoch` replicas
        # for every budget that could drain inside the window; budgets
        # beyond (kmax + 1) epochs cannot reach zero in it.
        arm_limit = (kmax + 1) * epoch
        bursts = [
            v.run_burst_remaining_s
            for v in running_vcpus
            if v.run_burst_remaining_s <= arm_limit
        ]
        nb = len(bursts)

        # Tick-quiescence projection state.  slice_w lazily catches up
        # to the current epoch (scalar adds, the same float ops the
        # progress chain performs); credits_w replays the exact
        # debit/refill arithmetic; queued VCPU credits move only at
        # projected refills and are tracked on demand.
        slice_w = [v.slice_used_s for v in running_vcpus]
        synced = 0
        credits_w = [v.credits for v in running_vcpus]
        queued_credits: Dict[int, float] = {}
        refill_active: Optional[list] = None
        pos_of: Optional[Dict[int, int]] = None
        total_weight = 0.0
        supply = 0.0
        tick_base = machine.tick_index
        next_tick = ept - (e0 % ept)
        repick_ok = repick_base and not idle
        plan: list = []

        kb = kmax
        t = now
        j = 0
        while j < kb:
            if j > 0:
                if wake <= t or crash_time <= t or t >= limit - 1e-12:
                    kb = j
                    break
                if j == next_tick:
                    T = tick_base + len(plan)
                    fusable = policy.tick_is_quiescent(T)
                    repicks: Tuple[int, ...] = ()
                    if fusable:
                        # Projected debit (+BOOST clear) on running VCPUs:
                        # value-identical to max(floor, c - debit).
                        new_credits = []
                        for c in credits_w:
                            nc = c - cpt
                            if nc < cfloor:
                                nc = cfloor
                            new_credits.append(nc)
                        if T % tpa == 0:
                            if refill_active is None:
                                refill_active = [
                                    v for v in machine.vcpus if v.runnable
                                ]
                                total_weight = sum(
                                    v.domain.weight for v in refill_active
                                )
                                supply = cpt * tpa * len(machine.pcpus)
                                pos_of = {
                                    v.key: i
                                    for i, v in enumerate(running_vcpus)
                                }
                            # Refill in machine order, value-identical to
                            # min(cap, c + share).  The runnable set is
                            # frozen inside a batch, so the active list,
                            # weight sum and supply are loop-invariant.
                            for v in refill_active:
                                i = pos_of.get(v.key)
                                if i is not None:
                                    c = new_credits[i]
                                else:
                                    c = queued_credits.get(v.key, v.credits)
                                share = supply * (
                                    v.domain.weight / total_weight
                                )
                                nc = c + share
                                if nc > ccap:
                                    nc = ccap
                                if i is not None:
                                    new_credits[i] = nc
                                elif not v.boosted and c < 0.0 <= nc:
                                    # Queued OVER->UNDER flip: requeue
                                    # reorders and may newly tickle.
                                    fusable = False
                                    break
                                else:
                                    queued_credits[v.key] = nc
                    if fusable:
                        gap = j - synced
                        if gap:
                            for i in range(k):
                                x = slice_w[i]
                                for _ in range(gap):
                                    x = x + epoch
                                slice_w[i] = x
                            synced = j
                        expire = []
                        for i in range(k):
                            rank = 1 if new_credits[i] >= 0.0 else 2
                            head = running_pcpus[i].queue.head_rank()
                            if head is not None and head < rank:
                                # Queue head would tickle-preempt: a real
                                # context switch, not a no-op boundary.
                                fusable = False
                                break
                            if slice_w[i] >= slice_s - 1e-12:
                                expire.append(i)
                        if fusable and expire:
                            if repick_ok and not any(
                                p.queue for p in machine.pcpus
                            ):
                                repicks = tuple(expire)
                            else:
                                fusable = False
                    if not fusable:
                        kb = j
                        break
                    slice_proj = list(slice_w)
                    for i in repicks:
                        # switch-in resets the slice before this epoch's
                        # progress add
                        slice_w[i] = 0.0
                    credits_w = new_credits
                    plan.append((j, t, slice_proj, repicks))
                    next_tick += ept
            t_next = t + epoch
            if phase <= t_next:
                kb = j + 1
                break
            expired = False
            for bi in range(nb):
                x = bursts[bi] - epoch
                bursts[bi] = x
                if x <= 0.0:
                    expired = True
            if expired:
                kb = j + 1
                break
            t = t_next
            j += 1

        if kb <= 1:
            return 1
        if plan:
            # Every entry precedes the final cut by construction (breaks
            # set kb to the current epoch or one past it, and entries are
            # appended strictly before either).
            self._fuse_plan = plan
        return kb

    # ------------------------------------------------------------------
    # Batched advance
    # ------------------------------------------------------------------
    def advance_batch(self, now: float, epoch: float, kb: int) -> float:
        """Advance ``kb`` quiet epochs in one batch; returns the batch end.

        The caller (the stepper) has already run this epoch's pre-solve
        phases and guarantees — via :meth:`compute_horizon` — that no
        discrete event fires strictly inside the batch.  Batches with
        fused ticks, an idle PCPU (its per-epoch steal attempts), a
        non-default contention depth or a topology other than the
        dual-socket host replay the generic per-epoch path; every other
        batch takes the fused scalar replay.
        """
        machine = self.machine
        plan = self._fuse_plan
        self._fuse_plan = None
        self._batch_calls += 1
        if (
            plan
            or not self.two_node
            or machine.config.contention_iterations != 2
        ):
            return self._advance_replay(now, epoch, kb, plan)

        running_pcpus = []
        running_vcpus = []
        sig_keys = []
        sig_pids = []
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is None:
                return self._advance_replay(now, epoch, kb, None)
            running_pcpus.append(pcpu)
            running_vcpus.append(cur)
            sig_keys.append(cur.key)
            sig_pids.append(pcpu.pcpu_id)
        gather = self._gather_for(
            running_pcpus, running_vcpus, sig_keys, sig_pids
        )
        return self._advance_replay_fused(
            now, epoch, kb, gather, running_pcpus, running_vcpus
        )

    def _advance_replay(
        self, now: float, epoch: float, kb: int, plan: Optional[list]
    ) -> float:
        """Generic batch: replay the per-epoch path directly.

        Each interior epoch runs the (no-op) idle-PCPU steal attempts
        the reference's scheduling pass would make — or, at a fused tick
        boundary, the *real* tick plus a full scheduling pass — then the
        inherited singleton advance.  The same calls in the same order,
        so equality is by construction; per-epoch live state makes
        slice projections unnecessary.
        """
        machine = self.machine
        profiler = machine.profiler
        policy = machine.policy
        ticks = {ft[0]: ft for ft in plan} if plan else None
        t = now
        for j in range(kb):
            if j > 0:
                ft = ticks.get(j) if ticks else None
                if ft is not None:
                    t0 = profiler.start()
                    machine._run_tick(t)
                    machine._schedule_pass(t)
                    profiler.stop("tick_fuse", t0)
                    self._fused_tick_total += 1
                    self._repick_total += len(ft[3])
                else:
                    for pcpu in machine.pcpus:
                        if pcpu.current is None:
                            t0 = profiler.start()
                            policy.steal(pcpu, t, under_only=False)
                            profiler.stop("balance", t0)
            self.advance_running(t, epoch)
            t = t + epoch
        return t

    def _build_fused_plan(
        self, gather: _Gather, running_vcpus: List[Vcpu], k: int
    ) -> tuple:
        """Assignment-static structures for :meth:`_advance_replay_fused`.

        Everything here depends only on the (keys, pcpus, generations)
        signature the gather is memoised under, so it is built once and
        cached on ``gather.fused``; per batch only the warmth lists and
        the placement mirrors are reseeded from live state.  Returns
        ``(flat_plan, flat_charge, row_a, row_b, miss, mix_rows,
        reseed_w, row_pairs, over_pairs, rloc, oloc, w_by_node,
        scalars)``:

        * ``flat_plan`` — per-member miss-curve tuples ``(w_l, j, pos,
          share, minmr, span, shape, bad)`` in node-then-member order;
          ``share`` is the same precomputed ``min(1.0, alloc / ws)``
          the per-epoch path multiplies in, ``bad`` flags ``ws <= 0``.
        * ``flat_charge`` — ``(w_l, j, charge_factor)`` warmth-charge
          tuples in the same order.
        * ``row_a`` / ``row_b`` — zipped per-VCPU constant tuples for
          the two epoch passes (one ``UNPACK_SEQUENCE`` per iteration
          instead of a pile of list subscripts).
        * ``miss`` / ``mix_rows`` — scratch lists fully overwritten
          each epoch.
        * ``reseed_w`` — ``(warmth_table, members, w_l)`` per node.
        * ``row_pairs`` / ``over_pairs`` — distinct ``(live, mirror)``
          list pairs; aliased readers share one mirror so intra-epoch
          interleavings replay exactly.
        * ``w_by_node`` — node id → warmth list for the final commit.
        * ``scalars`` — hoisted latency/topology constants for the
          inlined dual-socket solve.
        """
        reseed_w = []
        w_by_node: Dict[int, list] = {}
        flat_plan = []
        flat_charge = []
        for node_id, members in enumerate(gather.node_members):
            if not members:
                continue
            positions = gather.node_positions[node_id]
            w_l = [0.0] * len(members)
            reseed_w.append((self._warmth_tables[node_id], members, w_l))
            w_by_node[node_id] = w_l
            for j, (share, minmr, span, shape, bad) in enumerate(
                gather.node_miss_tuples[node_id]
            ):
                flat_plan.append(
                    (w_l, j, positions[j], share, minmr, span, shape, bad)
                )
            for j, cf in enumerate(gather.node_charge[node_id]):
                flat_charge.append((w_l, j, cf))

        row_src = gather.mix_row_src
        over_src = gather.mix_over_src
        rloc_by_id: Dict[int, list] = {}
        oloc_by_id: Dict[int, list] = {}
        rloc: list = [None] * k
        oloc: list = [None] * k
        ns_l = [0] * k
        row_pairs = []
        over_pairs = []
        for i in range(k):
            row = row_src[i]
            loc = rloc_by_id.get(id(row))
            if loc is None:
                loc = [0.0, 0.0]
                rloc_by_id[id(row)] = loc
                row_pairs.append((row, loc))
            rloc[i] = loc
            over = over_src[i]
            loc = oloc_by_id.get(id(over))
            if loc is None:
                loc = [0.0, 0.0]
                oloc_by_id[id(over)] = loc
                over_pairs.append((over, loc))
            oloc[i] = loc
            ns_l[i] = running_vcpus[i].domain.placement.num_slices

        node_of = gather.node_of
        miss = [0.0] * k
        mix_rows = [[0.0, 0.0] for _ in range(k)]
        node0_l = [node_of[i] == 0 for i in range(k)]
        # One merged per-VCPU tuple list serves both epoch passes: a
        # single UNPACK_SEQUENCE per iteration replaces a pile of list
        # subscripts, and one zip build (horizons are short, p50 ~3, so
        # build cost matters more than unpack width).
        rows = list(
            zip(
                gather.conc_l,
                gather.anti_l,
                rloc,
                oloc,
                gather.rpi,
                gather.cpi_base,
                gather.mlp,
                gather.clock,
                gather.ns2c,
                mix_rows,
                node0_l,
                gather.totals,
                gather.drift,
                ns_l,
            )
        )

        scalars = self._fused_scalars
        if scalars is None:
            machine = self.machine
            lat = machine.config.latency
            memsys = machine.memsys
            mnodes = memsys.topology.nodes
            cap = 8.0
            scalars = self._fused_scalars = (
                lat.llc_hit_ns,
                lat.local_dram_ns,
                mnodes[0].imc_bandwidth,
                mnodes[1].imc_bandwidth,
                memsys.topology.qpi_bandwidth,
                memsys.latency.local_dram_ns,
                memsys.latency.remote_extra_ns,
                cap,
                1.0 - 1.0 / cap,
                BYTES_PER_MISS,
            )
        return (
            flat_plan,
            flat_charge,
            rows,
            miss,
            mix_rows,
            reseed_w,
            row_pairs,
            over_pairs,
            rloc,
            oloc,
            w_by_node,
            scalars,
        )

    def _fused_seed(
        self,
        gather: _Gather,
        running_pcpus: list,
        running_vcpus: List[Vcpu],
        k: int,
    ) -> "_FusedState":
        """Seed the hoisted per-batch state for the fused replay.

        Reseeds the assignment-static plan's warmth and placement
        mirrors from live state and snapshots every accumulator chain
        (busy time, PMU banks, progress, placement mixes) into Python
        locals — the lists the epoch loop then evolves in place.
        """
        machine = self.machine

        # --- Assignment-static plan, cached on the gather --------------
        plan = gather.fused
        if plan is None:
            plan = gather.fused = self._build_fused_plan(
                gather, running_vcpus, k
            )
        (
            flat_plan,
            flat_charge,
            rows,
            miss,
            mix_rows,
            reseed_w,
            row_pairs,
            over_pairs,
            rloc,
            oloc,
            w_by_node,
            scalars,
        ) = plan

        # Reseed the state-dependent inputs: member warmth from the live
        # tables, placement-row / `overall` mirrors from the live lists
        # (aliased readers share one mirror, so intra-epoch
        # interleavings replay exactly).
        for table, members, w_l in reseed_w:
            for j, key in enumerate(members):
                w_l[j] = table.get(key, 0.0)
        for src, loc in row_pairs:
            loc[0] = src[0]
            loc[1] = src[1]
        for src, loc in over_pairs:
            loc[0] = src[0]
            loc[1] = src[1]

        # Accumulator seeds (live values in, finals out).
        pmu = machine.pmu
        banks = gather.pmu_banks
        rows_arr = gather.pmu_rows
        matrix = pmu._node_matrix
        state = _FusedState()
        state.gather = gather
        state.plan = plan
        state.k = k
        state.running_pcpus = running_pcpus
        state.running_vcpus = running_vcpus
        state.pend = [p.overhead_pending_s for p in running_pcpus]
        state.busy = [p.busy_time_s for p in running_pcpus]
        state.mbusy = machine.busy_time_s
        state.idone = [v.workload.instructions_done for v in running_vcpus]
        state.sused = [v.slice_used_s for v in running_vcpus]
        state.burst = [v.run_burst_remaining_s for v in running_vcpus]
        state.bi = [b.instructions for b in banks]
        state.br = [b.llc_refs for b in banks]
        state.bm = [b.llc_misses for b in banks]
        state.bl = [b.local_accesses for b in banks]
        state.bx = [b.remote_accesses for b in banks]
        state.m0 = [float(matrix[r, 0]) for r in rows_arr.tolist()]
        state.m1 = [float(matrix[r, 1]) for r in rows_arr.tolist()]
        return state

    def _advance_replay_fused(
        self,
        now: float,
        epoch: float,
        kb: int,
        gather: _Gather,
        running_pcpus: list,
        running_vcpus: List[Vcpu],
    ) -> float:
        """Event-free batch: scalar replay with hoisted state.

        Runs :meth:`advance_running`'s exact arithmetic — same Python-
        float expressions, same accumulation order — for ``kb`` epochs,
        but performs the running-set scan, gather lookup, warmth/PMU/
        placement reads and every state commit once per batch instead
        of once per epoch.  All accumulator chains (busy time, PMU
        banks, placement drift, page-mix rows, the shared `overall`
        vectors) evolve on Python locals seeded from live state; the
        finals are written back after the last epoch, which is bitwise
        neutral because nothing else reads them mid-batch (the caller
        guarantees no fused tick, no idle PCPU and an event-free
        interior).  Dual-socket only.

        Split into seed / epochs / commit phases: the epoch loop is the
        pure accumulator evolution over a :class:`_FusedState`, so it
        can be swapped for a bitwise-equal kernel without touching the
        seeding or the write-back: the native kernel
        (:mod:`repro.xen.native`) runs it when it is available, and
        hands the batch back to :meth:`_fused_epochs` whenever Python
        could raise or differ.
        """
        # Batch end time: exactly the `end = now + epoch` chain the
        # singleton stepper would accumulate.
        end_batch = now
        for _ in range(kb):
            end_batch = end_batch + epoch
        state = self._fused_seed(
            gather, running_pcpus, running_vcpus, len(running_vcpus)
        )
        self._fused_replay(state, epoch, kb)
        return self._fused_commit(state, end_batch, epoch, kb)

    def _fused_replay(
        self, state: "_FusedState", epoch: float, kb: int
    ) -> None:
        """Run the fused epochs natively when possible, else in Python.

        The kernel returns None, having written nothing, whenever the
        Python loop could raise or differ; the Python loop then runs
        and raises (or not) exactly as it would alone.
        """
        kernel = native.fused_kernel()
        if kernel is not None and kernel(state, epoch, kb) is not None:
            self._replay_native += 1
        else:
            self._replay_python += 1
            self._fused_epochs(state, epoch, kb)

    def _fused_epochs(
        self, state: "_FusedState", epoch: float, kb: int
    ) -> None:
        """Run ``kb`` epochs of the fused scalar replay over ``state``.

        Pure accumulator evolution — every read and write goes through
        ``state``'s lists (shared with the seeded plan), so running the
        loop in chunks (``kb = a`` then ``kb = b``) is bitwise the
        single ``kb = a + b`` call.
        """
        (
            flat_plan,
            flat_charge,
            rows,
            miss,
            mix_rows,
            reseed_w,
            row_pairs,
            over_pairs,
            rloc,
            oloc,
            w_by_node,
            scalars,
        ) = state.plan
        (
            hit_ns,
            local_dram,
            bw0,
            bw1,
            qpi_bw,
            s_dram,
            s_remote,
            cap,
            knee,
            bpm,
        ) = scalars
        pend_l = state.pend
        busy_l = state.busy
        mbusy = state.mbusy
        id_l = state.idone
        slice_l = state.sused
        burst_l = state.burst
        bi_l = state.bi
        br_l = state.br
        bm_l = state.bm
        bl_l = state.bl
        bx_l = state.bx
        m0_l = state.m0
        m1_l = state.m1

        # --- Per-epoch replay ------------------------------------------
        # Each epoch preserves the reference phase order: miss curves,
        # then page mix + first contention round (rates feed traffic,
        # traffic feeds the inlined dual-socket solve), then penalties +
        # final rates + progress/PMU/drift, then warmth charge.  Merging
        # the per-i loops is bitwise neutral because no merged statement
        # reads another VCPU's output from the same pass; every
        # cross-VCPU accumulator (imc/qpi flows, machine busy time)
        # still folds in ascending VCPU order.
        for _tt in range(kb):
            for w_l, j, pos, share, minmr, span, shape, bad in flat_plan:
                f = 1.0 if bad else share * w_l[j]
                missing = 1.0 - f if shape == 1.0 else (1.0 - f) ** shape
                miss[pos] = minmr + span * missing

            imc0 = 0.0
            imc1 = 0.0
            qpi_t = 0.0
            i = 0
            for (
                c, a, row, over, rp, cb, ml, ck, n2, mrow, nd0, _t, _d, _n
            ) in rows:
                m0 = c * row[0] + a * over[0]
                m1 = c * row[1] + a * over[1]
                s = m0 + m1
                x0 = m0 / s
                x1 = m1 / s
                mrow[0] = x0
                mrow[1] = x1
                mr = miss[i]
                i += 1
                per_ref_ns = (1.0 - mr) * hit_ns + mr * local_dram
                stall = rp * per_ref_ns * n2 / ml
                rate = ck / (cb + stall)
                t = rate * rp * mr * bpm
                flow0 = t * x0
                flow1 = t * x1
                imc0 += flow0
                imc1 += flow1
                if nd0:
                    qpi_t += flow1
                else:
                    qpi_t += flow0

            rho0 = imc0 / bw0
            rho1 = imc1 / bw1
            factor0 = cap if rho0 >= knee else 1.0 / (1.0 - rho0)
            factor1 = cap if rho1 >= knee else 1.0 / (1.0 - rho1)
            qpi_rho = qpi_t / qpi_bw
            qpi_factor = cap if qpi_rho >= knee else 1.0 / (1.0 - qpi_rho)
            dram0 = s_dram * factor0
            dram1 = s_dram * factor1
            remote_add = s_remote * qpi_factor

            i = 0
            for (
                _c, _a, row, over, rp, cb, ml, ck, n2, mrow, nd0, total,
                d, nsl,
            ) in rows:
                penalty = 0.0
                frac = mrow[0]
                if frac > 0:
                    penalty += (
                        frac * dram0 if nd0 else frac * (dram0 + remote_add)
                    )
                frac = mrow[1]
                if frac > 0:
                    penalty += (
                        frac * (dram1 + remote_add) if nd0 else frac * dram1
                    )
                mr = miss[i]
                per_ref_ns = (1.0 - mr) * hit_ns + mr * penalty
                stall = rp * per_ref_ns * n2 / ml
                rate = ck / (cb + stall)

                pending = pend_l[i]
                if pending > 0.0:
                    used = pending if pending < epoch else epoch
                    pend_l[i] = pending - used
                    compute = epoch - used
                else:
                    compute = epoch
                busy_l[i] += epoch
                mbusy += epoch
                done = rate * compute
                if total is not None:
                    remaining = total - id_l[i]
                    if remaining < 0.0:
                        remaining = 0.0
                    if remaining < done:
                        done = remaining
                r = done * rp
                mi = r * mr
                a0 = mi * mrow[0]
                a1 = mi * mrow[1]
                m0_l[i] += a0
                m1_l[i] += a1
                bi_l[i] += done
                br_l[i] += r
                bm_l[i] += mi
                local = a0 if nd0 else a1
                bl_l[i] += local
                bx_l[i] += (a0 + a1) - local

                id_l[i] += done
                slice_l[i] += epoch
                burst_l[i] -= epoch
                i += 1
                if d > 0:
                    r0 = row[0]
                    r1 = row[1]
                    keep = 1.0 - d
                    n0 = r0 * keep
                    n1 = r1 * keep
                    if nd0:
                        n0 = n0 + d
                    else:
                        n1 = n1 + d
                    row[0] = n0
                    row[1] = n1
                    over[0] += (n0 - r0) / nsl
                    over[1] += (n1 - r1) / nsl

            for w_l, j, cf in flat_charge:
                w_l[j] = 1.0 - (1.0 - w_l[j]) * cf

        state.mbusy = mbusy

    def _fused_commit(
        self, state: "_FusedState", end_batch: float, epoch: float, kb: int
    ) -> float:
        """Write a fused batch's finals back and run batch-final events."""
        machine = self.machine
        gather = state.gather
        k = state.k
        running_pcpus = state.running_pcpus
        running_vcpus = state.running_vcpus
        (
            flat_plan,
            flat_charge,
            rows,
            miss,
            mix_rows,
            reseed_w,
            row_pairs,
            over_pairs,
            rloc,
            oloc,
            w_by_node,
            scalars,
        ) = state.plan
        pend_l = state.pend
        busy_l = state.busy
        mbusy = state.mbusy
        id_l = state.idone
        slice_l = state.sused
        burst_l = state.burst
        bi_l = state.bi
        br_l = state.br
        bm_l = state.bm
        bl_l = state.bl
        bx_l = state.bx
        m0_l = state.m0
        m1_l = state.m1
        drift = gather.drift
        totals = gather.totals
        row_src = gather.mix_row_src
        over_src = gather.mix_over_src
        banks = gather.pmu_banks
        rows_arr = gather.pmu_rows
        matrix = machine.pmu._node_matrix

        # --- Commit ----------------------------------------------------
        for i in range(k):
            pcpu = running_pcpus[i]
            pcpu.overhead_pending_s = pend_l[i]
            pcpu.busy_time_s = busy_l[i]
            vcpu = running_vcpus[i]
            vcpu.workload.instructions_done = id_l[i]
            vcpu.slice_used_s = slice_l[i]
            vcpu.run_burst_remaining_s = burst_l[i]
        machine.busy_time_s = mbusy

        rows_l = rows_arr.tolist()
        for i in range(k):
            b = banks[i]
            b.instructions = bi_l[i]
            b.llc_refs = br_l[i]
            b.llc_misses = bm_l[i]
            b.local_accesses = bl_l[i]
            b.remote_accesses = bx_l[i]
            r = rows_l[i]
            matrix[r, 0] = m0_l[i]
            matrix[r, 1] = m1_l[i]

        committed_rows: Set[int] = set()
        for i in range(k):
            if drift[i] <= 0:
                continue
            row = row_src[i]
            rid = id(row)
            if rid not in committed_rows:
                committed_rows.add(rid)
                loc = rloc[i]
                row[0] = loc[0]
                row[1] = loc[1]
            running_vcpus[i].domain.placement._np_stale = True
        for i in range(k):
            over = over_src[i]
            loc = oloc[i]
            over[0] = loc[0]
            over[1] = loc[1]

        # Batch-final transitions, in running order (interior epochs are
        # transition-free by the horizon contract; the burst cap is
        # inclusive, so a burst draining to zero blocks here).
        policy = machine.policy
        log = machine.log
        for i in range(k):
            vcpu = running_vcpus[i]
            w = vcpu.workload
            total = totals[i]
            if total is not None and w.instructions_done >= total:
                pcpu = running_pcpus[i]
                vcpu.mark_done(end_batch)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)
                log.emit(end_batch, "finish", vcpu=vcpu.name)
                self.finite_remaining -= 1
            elif vcpu.run_burst_remaining_s <= 0:
                pcpu = running_pcpus[i]
                vcpu.block_until(end_batch + w.draw_block_time())
                self.push_wake(vcpu)
                pcpu.current = None
                machine.context_switches += 1
                policy.on_context_switch(pcpu, vcpu, None)

        # --- LLC warmth commit -----------------------------------------
        # Every node advances (a member-less node still decays its
        # warm entries), exactly like the per-epoch path.
        for node_id, members in enumerate(gather.node_members):
            self._cache_advance_batch[node_id](
                epoch,
                kb,
                members,
                w_by_node.get(node_id, ()),
                gather.node_member_sets[node_id],
            )
        return end_batch

    # ------------------------------------------------------------------
    # Horizon statistics
    # ------------------------------------------------------------------
    def horizon_stats(self) -> Optional[dict]:
        """Horizon-length distribution and fusion counters for this run.

        Returns None before the first horizon decision.  ``p50``/``p90``
        are weighted percentiles over per-decision horizon lengths (the
        smallest length covering that fraction of decisions); ``epochs``
        is their weighted sum, ``batches`` counts advance_batch calls
        (horizons of length > 1), and ``replay_native`` /
        ``replay_python`` split the fused-replay batches by the path
        that ran their epochs.  Counters reset with the engine, so a
        run resumed from a checkpoint reports post-resume statistics
        only.
        """
        hist = self._horizon_hist
        if not hist:
            return None
        lengths = sorted(hist)
        steps = sum(hist.values())

        def pct(q: float) -> int:
            target = q * steps
            cum = 0
            for length in lengths:
                cum += hist[length]
                if cum >= target:
                    return length
            return lengths[-1]

        return {
            "horizons": steps,
            "epochs": sum(length * n for length, n in hist.items()),
            "batches": self._batch_calls,
            "fused_ticks": self._fused_tick_total,
            "fused_repicks": self._repick_total,
            "replay_native": self._replay_native,
            "replay_python": self._replay_python,
            "p50": pct(0.5),
            "p90": pct(0.9),
            "max": lengths[-1],
            "hist": [[length, hist[length]] for length in lengths],
        }
