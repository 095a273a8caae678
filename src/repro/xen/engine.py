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
from repro.xen.vcpu import Vcpu, VcpuState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xen.simulator import Machine

__all__ = ["VectorEngine", "BatchedEngine"]


class _KeyArrays:
    """Key-indexed ndarray mirrors of the engine's per-VCPU constants.

    Rebuilt lazily once per phase generation so `_BatchInvariants` can
    assemble its per-assignment vectors with a handful of fancy-index
    gathers instead of per-element Python loops.  Fancy indexing copies
    the exact float64 bits, so everything read from here is bitwise
    identical to the scalar lists it mirrors.
    """

    __slots__ = (
        "rpi", "cpi", "mlp", "conc", "anti", "drift", "keep",
        "clock", "ns2c", "packed", "node_packed",
    )

    def __init__(self, engine: "VectorEngine") -> None:
        n = len(engine.rpi)
        # Packed (7, n) mirror: one fancy index gathers every per-VCPU
        # constant a batch build needs.  Row views alias the packed
        # storage, so the named arrays stay available.
        packed = np.empty((7, n))
        packed[0] = engine.rpi
        packed[1] = engine.cpi_base
        packed[2] = engine.mlp
        packed[3] = engine.conc
        # Elementwise (1.0 - x): identical bits to the scalar form.
        np.subtract(1.0, packed[3], out=packed[4])
        packed[5] = engine.drift_amount
        np.subtract(1.0, packed[5], out=packed[6])
        self.packed = packed
        self.rpi = packed[0]
        self.cpi = packed[1]
        self.mlp = packed[2]
        self.conc = packed[3]
        self.anti = packed[4]
        self.drift = packed[5]
        self.keep = packed[6]
        node_packed = np.empty((2, len(engine.node_clock)))
        node_packed[0] = engine.node_clock
        node_packed[1] = engine.node_ns2c
        self.node_packed = node_packed
        self.clock = node_packed[0]
        self.ns2c = node_packed[1]


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
        "node_batch",
        "node_miss_tuples",
        "mix_groups",
        "binv",
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
        self.node_batch = []
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
                # Batch-kernel constants, member-ordered.  The capped
                # share `min(1.0, alloc / ws)` is exactly the scalar the
                # reference recomputes every epoch — same inputs, same
                # float — so it is safe to freeze per co-runner set.
                share_l = [
                    min(1.0, allocs[j] / ws_l[j]) if ws_l[j] > 0 else 0.0
                    for j in range(len(m))
                ]
                entry = (
                    frozenset(m),
                    charge_l,
                    (allocs, ws_l, minmr_l, span_l, shape_l),
                    (
                        np.array([share_l, minmr_l, span_l, charge_l]),
                        tuple(j for j, ws in enumerate(ws_l) if ws <= 0),
                        tuple(
                            (j, s) for j, s in enumerate(shape_l) if s != 1.0
                        ),
                    ),
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
            self.node_batch.append(entry[3])
            self.node_miss_tuples.append(entry[4])

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
        #: lazily-built macro-step constants (see _BatchInvariants);
        #: sharing the gather's cache slot keeps one memo per signature.
        self.binv = None
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
        self._generation = 0
        #: per-key phase generation: bumped by refresh_vcpu(), woven
        #: into the gather signature so a phase change invalidates only
        #: the cached assignments that include the changed VCPU —
        #: everyone else's memos survive.
        self.key_gen: List[int] = [0] * n
        # Cached per-running-set gathers (see _Gather).  Assignments
        # recur as queues rotate, so gathers are memoised by
        # (keys, pcpus) with the per-key generations stored alongside:
        # a phase change replaces the stale entry in place, so the dict
        # never grows past the number of distinct assignments (the size
        # cap is a safety valve only).
        self._gather: Optional[_Gather] = None
        self._gather_sig: Optional[Tuple] = None
        self._gather_cache: Dict[Tuple, Tuple[Tuple, _Gather]] = {}
        # Per-co-runner-set sub-memo shared across gathers (waterfill
        # shares recur as queues rotate).  Phase-dependent, so
        # refresh_vcpu() evicts entries mentioning the refreshed key.
        self._node_cache: Dict[Tuple, Tuple] = {}
        # ndarray mirrors of the per-key lists, rebuilt lazily when the
        # phase generation moves (see _KeyArrays / key_arrays()).
        self._key_arrays: Optional[_KeyArrays] = None
        self._key_arrays_gen = -1
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
        self._generation += 1
        self.key_gen[key] += 1
        # Selective eviction: only memos that embed this key's phase-
        # dependent data (demand, charge factor, slice id) are stale.
        # Gather-cache entries mentioning the key become unreachable
        # through their per-key-generation signatures; the size cap
        # reclaims them.
        node_cache = self._node_cache
        for nk in [nk for nk in node_cache if key in nk[1]]:
            del node_cache[nk]

    def key_arrays(self) -> _KeyArrays:
        """Current-generation ndarray mirrors of the per-key constants."""
        if self._key_arrays_gen != self._generation:
            self._key_arrays = _KeyArrays(self)
            self._key_arrays_gen = self._generation
        return self._key_arrays

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

        # Look up (or build) the per-assignment gather.
        kg = self.key_gen
        sig_kp = (tuple(sig_keys), tuple(sig_pids))
        gens = tuple(kg[key] for key in sig_keys)
        sig = (sig_kp, gens)
        if sig != self._gather_sig:
            cache = self._gather_cache
            entry = cache.get(sig_kp)
            if entry is None or entry[0] != gens:
                gather = _Gather(self, running_pcpus, running_vcpus, k)
                machine.profiler.count("gather_build")
                if len(cache) >= 1024:
                    cache.clear()
                cache[sig_kp] = (gens, gather)
            else:
                gather = entry[1]
            self._gather = gather
            self._gather_sig = sig
        else:
            gather = self._gather

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


#: Running-set-size-keyed cache of the constant inner-affine vectors of
#: the fused batch recurrence (see _BatchInvariants): i2 = [-1]*k +
#: [1]*2k, i1 = [1]*k + [0]*2k.  Read-only by construction.
_AFF_INNER_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _aff_inner(k: int) -> Tuple[np.ndarray, np.ndarray]:
    ent = _AFF_INNER_CACHE.get(k)
    if ent is None:
        k3 = 3 * k
        i1 = np.zeros(k3)
        i1[:k] = 1.0
        i2 = np.ones(k3)
        i2[:k] = -1.0
        ent = (i1, i2)
        _AFF_INNER_CACHE[k] = ent
    return ent


class _BatchInvariants:
    """Per-assignment constants of the macro-step kernels.

    Everything here is derivable from the :class:`_Gather` (plus the
    per-domain grouping of the running set), so it lives on the gather
    (``gather.binv``) and shares its lifetime and memoisation
    signature.  Assignment churn makes these builds frequent on busy
    machines, so every per-VCPU vector is gathered from the engine's
    key-indexed :class:`_KeyArrays` with fancy indexing — exact bit
    copies of the scalar constants — instead of Python-level loops.
    """

    __slots__ = (
        "rpi",
        "cpi",
        "mlp",
        "clock",
        "ns2c",
        "conc2",
        "anti2",
        "aff_o1",
        "aff_o2",
        "aff_i1",
        "aff_i2",
        "indep_drift",
        "alias_groups",
        "dom_groups",
        "mask0",
        "share",
        "minmr",
        "span",
        "cf",
        "ws_bad",
        "shaped",
        "node_pos_arr",
    )

    def __init__(
        self,
        engine: "VectorEngine",
        gather: _Gather,
        running_vcpus: List[Vcpu],
    ) -> None:
        k = len(running_vcpus)
        g = engine.key_arrays()
        idx = np.array(gather.keys)
        nd = np.array(gather.node_of)
        # One fancy gather pulls every per-VCPU constant (packed rows:
        # rpi, cpi, mlp, conc, anti, drift, keep); the result is a fresh
        # copy, so mutating its rows below never touches the mirrors.
        P = g.packed[:, idx]
        N = g.node_packed[:, nd]
        self.rpi = P[0]
        self.cpi = P[1]
        self.mlp = P[2]
        self.clock = N[0]
        self.ns2c = N[1]
        # Doubled columns ([node-0 | node-1] halves of the RR/OO mix
        # matrices) share each VCPU's concentration scalars.
        conc = P[3]
        anti = P[4]
        self.conc2 = np.concatenate((conc, conc))
        self.anti2 = np.concatenate((anti, anti))
        mask0 = nd == 0
        self.mask0 = mask0

        # Aliased placement rows: several running VCPUs reading (and
        # possibly drifting) the same row object.  Their columns cannot
        # evolve independently — the batch replays the row's exact
        # per-epoch update sequence on Python scalars instead.  `keep`
        # is precomputed as the same `1.0 - amount` the reference
        # evaluates inside drift_slice_fast.
        drift = gather.drift
        node_of = gather.node_of
        row_src = gather.mix_row_src
        self.alias_groups = []
        alias_cols: Set[int] = set()
        ids = [id(r) for r in row_src]
        if len(set(ids)) != k:
            by_row: Dict[int, List[int]] = {}
            for i in range(k):
                by_row.setdefault(ids[i], []).append(i)
            for cols in by_row.values():
                if len(cols) < 2:
                    continue
                upd = [
                    (i, 1.0 - drift[i], drift[i], node_of[i])
                    for i in cols
                    if drift[i] > 0.0
                ]
                if not upd:
                    continue  # nobody drifts it: the row is constant
                num_slices = running_vcpus[cols[0]].domain.placement.num_slices
                self.alias_groups.append((cols, upd, num_slices))
                alias_cols.update(cols)

        # Independently-owned rows as a linear per-epoch map: row' =
        # row * keep + add.  VCPUs without drift (and aliased columns,
        # overwritten by the scalar replay) get keep=1, add=0 — `x *
        # 1.0` and `x + 0.0` are bitwise identities for the
        # non-negative row values, so one fused update covers all
        # columns.  (`np.where` selects the stored drift floats
        # verbatim; a zero-drift VCPU contributes the same 0.0 either
        # way.)
        drift_v = P[5]
        keep_v = P[6]
        add0 = np.where(mask0, drift_v, 0.0)
        add1 = np.where(mask0, 0.0, drift_v)
        if alias_cols:
            cols = list(alias_cols)
            keep_v[cols] = 1.0
            add0[cols] = 0.0
            add1[cols] = 0.0
        self.indep_drift = bool((keep_v != 1.0).any())

        # Running VCPUs grouped by domain (the shared `overall` mix
        # they drift), in running order — the order the reference's
        # per-epoch progress pass applies their drift increments.  Each
        # group carries the overrides for its aliased columns: a
        # non-drifting reader contributes no increment even though its
        # row moves, and an aliased drifter's increments come from the
        # scalar replay (its row deltas interleave with its co-owners').
        col_override: Dict[int, Tuple[int, int]] = {}
        for gi, (cols, upd, _ns) in enumerate(self.alias_groups):
            upd_pos = {t[0]: ui for ui, t in enumerate(upd)}
            for c in cols:
                col_override[c] = (gi, upd_pos.get(c, -1))
        groups: Dict[int, list] = {}
        for i in range(k):
            over = gather.mix_over_src[i]
            group = groups.get(id(over))
            if group is None:
                placement = running_vcpus[i].domain.placement
                group = [over, [], placement, placement.num_slices, False]
                groups[id(over)] = group
            group[1].append(i)
            if drift[i] > 0.0:
                group[4] = True
        self.dom_groups = []
        for over, idxs, placement, num_slices, has_drift in groups.values():
            ovr = tuple(
                (p, *col_override[c])
                for p, c in enumerate(idxs)
                if c in col_override
            )
            idxs_arr = np.array(idxs)
            self.dom_groups.append(
                (over, idxs_arr, idxs_arr + k, placement, num_slices,
                 has_drift, ovr)
            )

        # Flattened miss-curve constants, gather-position-ordered so the
        # warmth/miss kernels run once over all nodes.  The member-
        # ordered (share, minmr, span, charge) rows are prebuilt per
        # co-runner set in the engine's node cache; scattering them to
        # gather positions is two fancy assignments.
        mc = np.empty((4, k))
        ws_bad = []
        shaped = []
        self.node_pos_arr = []
        for node_id, members in enumerate(gather.node_members):
            if not members:
                self.node_pos_arr.append(None)
                continue
            positions = gather.node_positions[node_id]
            pos = np.array(positions)
            self.node_pos_arr.append(pos)
            mcn, bad_j, shaped_j = gather.node_batch[node_id]
            mc[:, pos] = mcn
            for j in bad_j:
                ws_bad.append(positions[j])
            for j, shape in shaped_j:
                shaped.append((positions[j], shape))
        self.share = mc[0]
        self.minmr = mc[1]
        self.span = mc[2]
        self.cf = mc[3]
        self.ws_bad = tuple(ws_bad)
        self.shaped = tuple(shaped)

        # Fused per-epoch recurrence x' = o + o2*(i1 + i2*x) over the
        # packed state [warmth | row-0 | row-1] (see advance_batch).
        # Warmth columns: i1+i2*x = 1 + (-1)*w == 1 - w, and o1+o2*u =
        # 1 + (-cf)*u == 1 - cf*u — IEEE negation is exact and x - y
        # == x + (-y), (-a)*b == -(a*b) bit for bit, so these are the
        # reference's three warmth ops verbatim.  Row columns: the
        # inner pass is the identity (1*x is exact; 0.0 + x is exact
        # because placement fractions are sums/products of non-negative
        # floats, so -0.0 never occurs) and the outer pass is the
        # drift map add + keep*x (addition commutes bitwise).
        k3 = 3 * k
        o1 = np.empty(k3)
        o1[:k] = 1.0
        o1[k : 2 * k] = add0
        o1[2 * k :] = add1
        o2 = np.empty(k3)
        np.negative(self.cf, out=o2[:k])
        o2[k : 2 * k] = keep_v
        o2[2 * k :] = keep_v
        self.aff_o1 = o1
        self.aff_o2 = o2
        self.aff_i1, self.aff_i2 = _aff_inner(k)


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
    """Macro-stepping engine: one 2D kernel pass per quiet-epoch run.

    Extends :class:`VectorEngine` with an *event horizon*: the number of
    upcoming epochs guaranteed free of discrete events — scheduler
    ticks, sampling boundaries, wakeups, phase changes, finite-work
    completions, run-burst expiries, fault stalls/crashes, the epoch cap
    and the run's time limit.  All ``K`` quiet epochs advance in one
    batch of (epochs x running VCPUs) array kernels.

    The bitwise contract survives batching because inside the horizon
    every epoch applies the *same* elementwise recurrences to the same
    running set: per-VCPU trajectories (warmth, placement drift, page
    mix, miss rate, fixed-point rates) vectorize along the epoch axis,
    while every ordered reduction — IMC/QPI traffic, busy time, PMU bank
    accumulation, the per-domain `overall` drift chain — is reproduced
    as a sequential ``cumsum`` in the reference's exact accumulation
    order.  Scheduler RNG parity is kept by replaying the (no-op) steal
    calls idle PCPUs would make each interior epoch.

    Topologies other than the paper's dual-socket host fall back to
    singleton stepping (``compute_horizon`` returns 1), which is the
    inherited :class:`VectorEngine` path.
    """

    supports_batch = True

    #: horizons at or below this replay the singleton path instead of
    #: launching the 2D kernels: a short batch cannot amortise the
    #: kernels' fixed dispatch cost, and the replay is bitwise-exact by
    #: construction (it *is* the singleton path, minus event checks the
    #: horizon already proved are no-ops).  The fused scalar replay
    #: (hoisted scans/commits + inlined dual-socket solve) moved the
    #: measured break-even on the loaded SPEC scenario from ~5 epochs
    #: out to ~16: at the paper's k=8 running set the 2D kernels are
    #: dispatch-bound, so they only win on long quiet runs (lightly
    #: loaded machines routinely see horizons in the hundreds).
    _REPLAY_MAX = 16

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine)
        self._cache_advance_batch = [
            cache.state.advance_compact_batch for cache in machine.caches
        ]
        config = machine.config
        # getattr: a machine restored from a pre-fusion checkpoint pickles
        # a SimConfig without the new knobs.
        self._fuse_ticks = getattr(config, "fuse_ticks", True)
        self._speculative = getattr(config, "speculative", False)
        #: pending fused-boundary plan for the batch compute_horizon just
        #: sized: a list of ``(j, time, slice_proj, repicks)`` tuples, one
        #: per provably-quiescent Credit tick inside the horizon.
        self._fuse_plan: Optional[list] = None
        self._horizon_hist: Dict[int, int] = {}
        self._batch_calls = 0
        self._fused_tick_total = 0
        self._repick_total = 0
        self._spec_attempts = 0
        self._spec_misses = 0
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
        could fire before the batch would end.  With tick fusion enabled
        (the default) a horizon may additionally span Credit ticks the
        policy's quiescence projection proves are no-ops — the plan of
        fused boundaries is left in ``_fuse_plan`` for advance_batch.
        """
        self._fuse_plan = None
        machine = self.machine
        if not self.two_node:
            kb = 1
        else:
            fuse = self._fuse_ticks
            if fuse:
                faults = machine.faults
                if faults is not None and faults.plan.stall_rate > 0:
                    # Pending stall overhead lands at arbitrary epochs and
                    # is invisible to the quiescence projection — keep the
                    # classic stall-capped sizing for these runs.
                    fuse = False
            if fuse:
                kb = self._horizon_fused(now, limit)
            else:
                kb = self._horizon_classic(now, limit)
        hist = self._horizon_hist
        hist[kb] = hist.get(kb, 0) + 1
        return kb

    def _horizon_classic(self, now: float, limit: float) -> int:
        """PR 5 horizon sizing: every Credit tick terminates the batch."""
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
        ``clock / cpi_base`` for memory-bound keys.  Under
        ``speculative=True`` the floor is skipped entirely and the
        post-kernel validation in advance_batch truncates mis-speculated
        batches instead.
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
        speculative = self._speculative
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
            if speculative:
                continue
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
        discrete event fires strictly inside the batch.
        """
        machine = self.machine
        profiler = machine.profiler
        policy = machine.policy
        plan = self._fuse_plan
        self._fuse_plan = None
        self._batch_calls += 1

        if kb <= self._REPLAY_MAX and (
            plan or self._speculative or not self.two_node
        ):
            # Short horizon with fused ticks, speculation, or an exotic
            # topology: replay through the full per-epoch path.
            return self._advance_replay(now, epoch, kb, plan)

        # Batch end time: exactly the `end = now + epoch` chain the
        # singleton stepper would accumulate (the full per-epoch list is
        # only materialised on the paths that replay interior epochs).
        t = now
        for _ in range(kb):
            t = t + epoch
        end_batch = t
        times: Optional[List[float]] = None

        running_pcpus = []
        running_vcpus = []
        sig_keys = []
        sig_pids = []
        idle_pcpus = []
        for pcpu in machine.pcpus:
            cur = pcpu.current
            if cur is not None:
                running_pcpus.append(pcpu)
                running_vcpus.append(cur)
                sig_keys.append(cur.key)
                sig_pids.append(pcpu.pcpu_id)
            else:
                idle_pcpus.append(pcpu)
        k = len(running_vcpus)

        if k == 0 and kb <= self._REPLAY_MAX:
            return self._advance_replay(now, epoch, kb, plan)

        if k == 0:
            # Nothing ran.  Fused ticks still advance tick_index (with
            # every queue empty the real call touches no credits), the
            # idle PCPUs replay their per-epoch steal attempts, and
            # warmth decays epoch by epoch on every LLC.
            if plan:
                t0 = profiler.start()
                for ft in plan:
                    machine._run_tick(ft[1])
                profiler.stop("tick_fuse", t0)
                self._fused_tick_total += len(plan)
            t = now
            for _ in range(1, kb):
                t = t + epoch
                tj = t
                for pcpu in idle_pcpus:
                    t0 = profiler.start()
                    policy.steal(pcpu, tj, under_only=False)
                    profiler.stop("balance", t0)
            for _ in range(kb):
                for advance in self._cache_advance:
                    advance(epoch, (), ())
            return end_batch

        kg = self.key_gen
        sig_kp = (tuple(sig_keys), tuple(sig_pids))
        gens = tuple(kg[key] for key in sig_keys)
        sig = (sig_kp, gens)
        if sig != self._gather_sig:
            cache = self._gather_cache
            entry = cache.get(sig_kp)
            if entry is None or entry[0] != gens:
                gather = _Gather(self, running_pcpus, running_vcpus, k)
                machine.profiler.count("gather_build")
                if len(cache) >= 1024:
                    cache.clear()
                cache[sig_kp] = (gens, gather)
            else:
                gather = entry[1]
            self._gather = gather
            self._gather_sig = sig
        else:
            gather = self._gather

        if kb <= self._REPLAY_MAX:
            # Short horizon, event-free interior: the fused scalar
            # replay runs the exact per-epoch arithmetic with the
            # running-set scan, gather lookup and all state commits
            # hoisted out of the epoch loop.  Idle PCPUs (per-epoch
            # steal attempts) and non-default contention depths take
            # the generic replay.
            if idle_pcpus or machine.config.contention_iterations != 2:
                return self._advance_replay(now, epoch, kb, plan)
            return self._advance_replay_fused(
                end_batch, epoch, kb, gather, running_pcpus,
                running_vcpus, k
            )

        # The kernel path replays interior-epoch times (fused-tick and
        # idle-steal boundaries), so materialise the full chain here.
        times = [now]
        t = now
        for _ in range(kb):
            t = t + epoch
            times.append(t)

        inv = gather.binv
        if inv is None:
            inv = _BatchInvariants(self, gather, running_vcpus)
            gather.binv = inv

        # --- Warmth + drift trajectories -------------------------------
        # X[t] packs the whole per-epoch state [warmth | row-0 | row-1]:
        # W[t, i] is VCPU i's warmth entering batch epoch t (the
        # reference reads warmth *before* each epoch's end-of-epoch
        # charge, so row t uses t charge applications) and the row
        # halves hold each VCPU's placement-row components.  One nested
        # affine update — x' = o1 + o2*(i1 + i2*x), constants built in
        # _BatchInvariants with a bitwise-identity proof per block —
        # advances everything with four ufunc calls per epoch.
        warmth_tables = self._warmth_tables
        k2 = 2 * k
        k3 = 3 * k
        X = np.empty((kb + 1, k3))
        x0 = X[0]
        for node_id, members in enumerate(gather.node_members):
            if members:
                table = warmth_tables[node_id]
                x0[inv.node_pos_arr[node_id]] = [
                    table.get(key, 0.0) for key in members
                ]
        row_src = gather.mix_row_src
        x0[k:k2] = [row[0] for row in row_src]
        x0[k2:] = [row[1] for row in row_src]
        o1 = inv.aff_o1
        o2 = inv.aff_o2
        i1 = inv.aff_i1
        i2 = inv.aff_i2
        tmp = np.empty(k3)
        # In-place updates (ufuncs with out=) are the same ufunc
        # applications as the expression forms, per element.
        for tt in range(kb):
            np.multiply(i2, X[tt], out=tmp)
            np.add(i1, tmp, out=tmp)
            np.multiply(o2, tmp, out=tmp)
            np.add(o1, tmp, out=X[tt + 1])
        W = X[:kb, :k]
        RR = X[:, k:]
        F = inv.share * W
        for pos in inv.ws_bad:
            F[:, pos] = 1.0
        missing = 1.0 - F
        for pos, shape in inv.shaped:
            # Python-float pow only: ndarray ** float rounds
            # differently from the scalar `(1 - f) ** shape`.
            missing[:, pos] = [
                base ** shape for base in missing[:, pos].tolist()
            ]
        M = inv.minmr + inv.span * missing
        R0 = RR[:, :k]
        R1 = RR[:, k:]

        # Aliased rows: replay the exact per-epoch update sequence in
        # running order on Python scalars (the same ops
        # drift_slice_fast performs); every reader column shares the
        # row's trajectory and every drifter records its own `overall`
        # increments, already divided by num_slices.
        alias_inc = []
        for cols, upd, num_slices in inv.alias_groups:
            row = row_src[cols[0]]
            r0 = row[0]
            r1 = row[1]
            traj0 = [r0]
            traj1 = [r1]
            inc0 = [[] for _ in upd]
            inc1 = [[] for _ in upd]
            for _tt in range(kb):
                for u, (_ci, keep, amount, node) in enumerate(upd):
                    n0 = r0 * keep
                    n1 = r1 * keep
                    if node == 0:
                        n0 = n0 + amount
                    else:
                        n1 = n1 + amount
                    inc0[u].append((n0 - r0) / num_slices)
                    inc1[u].append((n1 - r1) / num_slices)
                    r0 = n0
                    r1 = n1
                traj0.append(r0)
                traj1.append(r1)
            for ci in cols:
                R0[:, ci] = traj0
                R1[:, ci] = traj1
            alias_inc.append((inc0, inc1))

        OO = np.empty((kb, 2 * k))
        O0 = OO[:, :k]
        O1 = OO[:, k:]
        over_chains = []
        DR = None
        for over, idxs, idxs_k, placement, num_slices, has_drift, ovr in (
            inv.dom_groups
        ):
            if not has_drift:
                O0[:, idxs] = over[0]
                O1[:, idxs] = over[1]
                continue
            m = idxs.size
            # Per-epoch, per-member `overall += (new - old) / num_slices`
            # increments, flattened epoch-major in running order — the
            # exact sequence of adds the reference's progress pass makes
            # — then one cumsum gives every intermediate chain state.
            # Aliased columns are overridden: non-drifting readers add
            # nothing, aliased drifters use their replayed increments.
            # The row deltas are hoisted across groups (one subtraction
            # over the packed RR matrix).
            if DR is None:
                DR = RR[1:] - RR[:-1]
            D0 = DR[:, idxs] / num_slices
            D1 = DR[:, idxs_k] / num_slices
            for p, gi, ui in ovr:
                if ui < 0:
                    D0[:, p] = 0.0
                    D1[:, p] = 0.0
                else:
                    g_inc0, g_inc1 = alias_inc[gi]
                    D0[:, p] = g_inc0[ui]
                    D1[:, p] = g_inc1[ui]
            chains = np.empty((2, kb * m + 1))
            chains[0, 0] = over[0]
            chains[0, 1:] = D0.ravel()
            chains[1, 0] = over[1]
            chains[1, 1:] = D1.ravel()
            ch = chains.cumsum(axis=1)
            O0[:, idxs] = ch[0, ::m][:kb, None]
            O1[:, idxs] = ch[1, ::m][:kb, None]
            # The full cumsum is kept (not just its last element): a
            # speculative truncation commits the chain state after the
            # shortened batch, a prefix of the same array.
            over_chains.append((over, placement, ch, m))

        mm = inv.conc2 * RR[:kb] + inv.anti2 * OO
        s = mm[:, :k] + mm[:, k:]
        mix0 = mm[:, :k] / s
        mix1 = mm[:, k:] / s

        # --- Fixed point: rates -> traffic -> queueing -> rates --------
        lat = machine.config.latency
        rpi = inv.rpi
        node_of = gather.node_of
        mask0 = inv.mask0
        # (1 - M) * hit_ns is round-invariant; hoisting it keeps the
        # reference's op order (it is the same first two ops).
        base_ref = (1.0 - M) * lat.llc_hit_ns
        penalty = np.full((kb, k), lat.local_dram_ns)
        memsolve = machine.memsys.solve_compact_batch
        for _ in range(machine.config.contention_iterations - 1):
            per_ref_ns = base_ref + M * penalty
            rates = inv.clock / (
                inv.cpi + rpi * per_ref_ns * inv.ns2c / inv.mlp
            )
            traffic = rates * rpi * M * BYTES_PER_MISS
            penalty = memsolve(traffic, node_of, mix0, mix1, local_mask=mask0)
        per_ref_ns = base_ref + M * penalty
        rates = inv.clock / (inv.cpi + rpi * per_ref_ns * inv.ns2c / inv.mlp)

        # --- Speculative validation ------------------------------------
        # With the completion floor waived, find the earliest epoch at
        # which an *optimistic* seeded budget chain (rates * epoch — the
        # real per-epoch budget never exceeds it, and float adds are
        # monotone) could cross a finite-work total, and truncate the
        # batch there before anything is committed.  The real crossing
        # lands at or after the optimistic one, so the shortened batch's
        # interior epochs stay clamp-free and only the final epoch needs
        # the reference's remaining-work clamp (applied below).
        if self._speculative:
            self._spec_attempts += 1
            t0s = profiler.start()
            totals = gather.totals
            cut = kb
            col = np.empty(kb + 1)
            for i in range(k):
                total = totals[i]
                if total is None:
                    continue
                col[0] = running_vcpus[i].workload.instructions_done
                np.multiply(rates[:, i], epoch, out=col[1:])
                crossed = np.nonzero(col.cumsum()[1:] >= total)[0]
                if crossed.size:
                    c = int(crossed[0]) + 1
                    if c < cut:
                        cut = c
            profiler.stop("speculate", t0s)
            if cut < kb:
                t0r = profiler.start()
                self._spec_misses += 1
                kb = cut
                end_batch = times[kb]
                if plan:
                    plan = [ft for ft in plan if ft[0] < kb]
                profiler.stop("rollback", t0r)
                if kb <= self._REPLAY_MAX:
                    # Below kernel break-even: nothing was committed, so
                    # fall back to singleton replay of the short batch.
                    return self._advance_replay(now, epoch, kb, plan)
                rates = rates[:kb]
                M = M[:kb]
                mix0 = mix0[:kb]
                mix1 = mix1[:kb]

        # --- Fused-boundary commit -------------------------------------
        # Seeds for the progress chains and the overhead walk are read
        # *before* the boundary calls mutate live state.
        slice_seed = [v.slice_used_s for v in running_vcpus]
        init_pending = [p.overhead_pending_s for p in running_pcpus]
        pend_events: list = []
        repick_reset: Dict[int, int] = {}
        if plan:
            # Commit each fused tick with the *real* calls — on_tick,
            # refresh charges, and (for re-picks) the scheduling pass —
            # so debit/refill arithmetic, preemption bookkeeping and RNG
            # draws replay exactly.  slice_used is pre-set to its
            # projected chain value so the expiry check fires on the
            # same floats the singleton path would see; the packed chain
            # below overwrites the finals from the captured seeds.
            # Hypervisor charges are intercepted (machine.charge_overhead
            # is shadowed for the duration) so the overhead walk can
            # replay the exact add/drain interleaving.
            t0f = profiler.start()
            col_of = {p.pcpu_id: i for i, p in enumerate(running_pcpus)}
            cur_j = 0
            real_charge = machine.charge_overhead

            def _recording_charge(source, pcpu, seconds):
                real_charge(source, pcpu, seconds)
                if seconds > 0.0:
                    ci = col_of.get(pcpu.pcpu_id)
                    if ci is not None:
                        pend_events.append((ci, cur_j, seconds))

            machine.charge_overhead = _recording_charge
            try:
                for ft in plan:
                    cur_j = ft[0]
                    proj = ft[2]
                    for i in range(k):
                        running_vcpus[i].slice_used_s = proj[i]
                    machine._run_tick(ft[1])
                    repicks = ft[3]
                    if repicks:
                        machine._schedule_pass(ft[1])
                        for i in repicks:
                            if running_pcpus[i].current is not running_vcpus[i]:
                                raise AssertionError(
                                    "fused slice expiry re-picked a "
                                    "different VCPU"
                                )
                            repick_reset[i] = cur_j
                    for pcpu in running_pcpus:
                        if pcpu.current is None:
                            raise AssertionError(
                                "fused tick preempted outside the plan"
                            )
            finally:
                del machine.charge_overhead
            self._fused_tick_total += len(plan)
            self._repick_total += sum(len(ft[3]) for ft in plan)
            profiler.stop("tick_fuse", t0f)

        # Interior scheduling passes: running PCPUs are untouched (their
        # VCPU stays runnable all batch), but each idle PCPU makes one
        # steal attempt per epoch.  With every queue empty those calls
        # cannot succeed or mutate queues — they exist to keep the
        # scheduler's RNG draw sequence (e.g. credit.steal's
        # permutation) aligned with the reference, epoch by epoch.
        # (Idle PCPUs and fused re-picks are mutually exclusive, and
        # quiescent ticks draw nothing, so committing the plan first
        # leaves every RNG stream's draw order identical.)
        if idle_pcpus:
            for j in range(1, kb):
                tj = times[j]
                for pcpu in idle_pcpus:
                    t0 = profiler.start()
                    policy.steal(pcpu, tj, under_only=False)
                    profiler.stop("balance", t0)

        # --- Progress pass 1: compute budgets and busy time ------------
        # Pending hypervisor overhead is rare inside a batch; the common
        # case multiplies by the scalar epoch (bitwise identical to a
        # full matrix of epochs).  Fused refresh/switch charges are
        # replayed as adds at their exact epoch, interleaved with the
        # per-epoch drain in reference order (charge phases precede the
        # progress drain within an epoch).
        compute = None
        ev_by_col: Optional[Dict[int, list]] = None
        if pend_events:
            ev_by_col = {}
            for ci, ej, cost in pend_events:
                ev_by_col.setdefault(ci, []).append((ej, cost))
        for i in range(k):
            pending = init_pending[i]
            evs = ev_by_col.get(i) if ev_by_col else None
            if pending <= 0.0 and not evs:
                continue
            if compute is None:
                compute = np.full((kb, k), epoch)
            col = compute[:, i]
            ei = 0
            ne = len(evs) if evs else 0
            tt = 0
            while tt < kb:
                while ei < ne and evs[ei][0] == tt:
                    pending = pending + evs[ei][1]
                    ei += 1
                if pending > 0.0:
                    used = pending if pending < epoch else epoch
                    pending = pending - used
                    col[tt] = epoch - used
                    tt += 1
                elif ei < ne:
                    tt = evs[ei][0]
                else:
                    break
            running_pcpus[i].overhead_pending_s = pending

        # The horizon's one-epoch margin guarantees the reference's
        # remaining-work clamp never binds inside the batch.
        done = rates * epoch if compute is None else rates * compute
        if self._speculative:
            # Exact-final clamp: replay the reference's remaining-work
            # clamp on the batch-final epoch for any finite column that
            # crosses there.  Interior rows cannot cross — the
            # validation cut the batch at the earliest optimistic
            # crossing and real budgets never exceed the optimistic.
            totals = gather.totals
            ccol = np.empty(kb + 1)
            for i in range(k):
                total = totals[i]
                if total is None:
                    continue
                dcol = done[:, i]
                ccol[0] = running_vcpus[i].workload.instructions_done
                ccol[1:] = dcol
                entry = float(ccol.cumsum()[kb - 1])
                remaining = total - entry
                if remaining < 0.0:
                    remaining = 0.0
                if remaining < float(dcol[kb - 1]):
                    dcol[kb - 1] = remaining
        refs = done * rpi
        misses = refs * M

        # --- PMU charges + progress chains -----------------------------
        # One seeded cumsum covers every per-column accumulator chain:
        # busy time, instructions, slice usage, burst budget, plus the
        # seven PMU blocks (instructions, refs, misses, local, remote,
        # node-0, node-1 — seeded and committed by the PMU's packed-
        # chain halves).  Columns are independent, so packing them side
        # by side is bitwise neutral, `x - epoch == x + (-epoch)`
        # exactly, and the local/remote split reuses the scalar path's
        # expressions elementwise.
        acc0 = misses * mix0
        acc1 = misses * mix1
        local = np.where(mask0, acc0, acc1)
        pmu = machine.pmu
        k4 = 4 * k
        chain = np.empty((kb + 1, k4 + 7 * k))
        c0 = chain[0]
        c0[:k] = [p.busy_time_s for p in running_pcpus]
        c0[k : 2 * k] = [
            v.workload.instructions_done for v in running_vcpus
        ]
        c0[2 * k : 3 * k] = slice_seed
        c0[3 * k : k4] = [v.run_burst_remaining_s for v in running_vcpus]
        pmu.batch_seed_into(gather.pmu_banks, gather.pmu_rows, c0[k4:])
        body = chain[1:]
        body[:, :k] = epoch
        body[:, k : 2 * k] = done
        body[:, 2 * k : 3 * k] = epoch
        body[:, 3 * k : k4] = -epoch
        body[:, k4 : 5 * k] = done
        body[:, 5 * k : 6 * k] = refs
        body[:, 6 * k : 7 * k] = misses
        body[:, 7 * k : 8 * k] = local
        body[:, 8 * k : 9 * k] = (acc0 + acc1) - local
        body[:, 9 * k : 10 * k] = acc0
        body[:, 10 * k :] = acc1
        tot = chain.cumsum(axis=0)[-1]
        pmu.batch_commit(gather.pmu_banks, gather.pmu_rows, tot[k4:])
        final = tot[:k4].tolist()
        for i in range(k):
            running_pcpus[i].busy_time_s = final[i]
            vcpu = running_vcpus[i]
            vcpu.workload.instructions_done = final[k + i]
            vcpu.slice_used_s = final[2 * k + i]
            vcpu.run_burst_remaining_s = final[3 * k + i]
        for i, jr in repick_reset.items():
            # A fused re-pick reset the slice at epoch jr; the final is
            # the same scalar add chain the singleton path accumulates
            # from that reset.
            x = 0.0
            for _ in range(kb - jr):
                x = x + epoch
            running_vcpus[i].slice_used_s = x
        machine_busy = np.empty(kb * k + 1)
        machine_busy[0] = machine.busy_time_s
        machine_busy[1:] = epoch
        machine.busy_time_s = float(machine_busy.cumsum()[-1])

        if inv.indep_drift or inv.alias_groups:
            drift = gather.drift
            r0_final = R0[kb].tolist()
            r1_final = R1[kb].tolist()
            for i in range(k):
                if drift[i] > 0.0:
                    row = row_src[i]
                    row[0] = r0_final[i]
                    row[1] = r1_final[i]
            for over, placement, ch, m in over_chains:
                over[0] = float(ch[0, kb * m])
                over[1] = float(ch[1, kb * m])
                placement._np_stale = True

        # --- Batch-final transitions -----------------------------------
        # The horizon's burst cap is *inclusive*: a run-burst that
        # drains to zero at the batch-final epoch blocks here, with the
        # same transition sequence (and per-VCPU order) the reference's
        # progress pass applies at that epoch.  Completions cannot fire
        # inside a batch (the horizon's exclusive finite-work floor),
        # so the mirrored `if` arm is a guard, not a live path.
        totals = gather.totals
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
        warm = X[kb, :k]
        for node_id, members in enumerate(gather.node_members):
            pos = inv.node_pos_arr[node_id]
            self._cache_advance_batch[node_id](
                epoch,
                kb,
                members,
                warm[pos].tolist() if pos is not None else (),
                gather.node_member_sets[node_id],
            )
        return end_batch

    def _advance_replay(
        self, now: float, epoch: float, kb: int, plan: Optional[list]
    ) -> float:
        """Short horizon: replay the per-epoch path directly.

        Each interior epoch runs the (no-op) idle-PCPU steal attempts
        the reference's scheduling pass would make — or, at a fused tick
        boundary, the *real* tick plus a full scheduling pass — then the
        inherited singleton advance.  The same calls in the same order,
        so equality is by construction rather than by kernel proof;
        per-epoch live state makes slice projections unnecessary.
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
        end_batch: float,
        epoch: float,
        kb: int,
        gather: _Gather,
        running_pcpus: list,
        running_vcpus: List[Vcpu],
        k: int,
    ) -> float:
        """Short event-free horizon: scalar replay with hoisted state.

        Runs :meth:`advance_running`'s exact arithmetic — same Python-
        float expressions, same accumulation order — for ``kb`` epochs,
        but performs the running-set scan, gather lookup, warmth/PMU/
        placement reads and every state commit once per batch instead
        of once per epoch.  All accumulator chains (busy time, PMU
        banks, placement drift, page-mix rows, the shared `overall`
        vectors) evolve on Python locals seeded from live state; the
        finals are written back after the last epoch, which is bitwise
        neutral because nothing else reads them mid-batch (the caller
        guarantees no fused tick, no idle PCPU, no speculation and an
        event-free interior).  Dual-socket only.

        Split into seed / epochs / commit phases: the epoch loop is the
        pure accumulator evolution over a :class:`_FusedState`, so it
        can be swapped for a bitwise-equal kernel without touching the
        seeding or the write-back.
        """
        state = self._fused_seed(gather, running_pcpus, running_vcpus, k)
        self._fused_epochs(state, epoch, kb)
        return self._fused_commit(state, end_batch, epoch, kb)

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
        (horizons of length > 1).  Counters reset with the engine, so a
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
            "spec_attempts": self._spec_attempts,
            "spec_misses": self._spec_misses,
            "p50": pct(0.5),
            "p90": pct(0.9),
            "max": lengths[-1],
            "hist": [[length, hist[length]] for length in lengths],
        }
