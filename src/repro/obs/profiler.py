"""Scheduler-phase profiler: where does the epoch time go?

The paper attributes vProbe's runtime cost to three mechanisms — PMU
analysis, the partitioning pass and the NUMA-aware balancer — but the
Table III accounting only reports *simulated* hypervisor seconds.  This
profiler measures the other axis: host wall-clock per scheduler phase,
so a run can answer "the analyzer is 4x the partitioner" without an
external profiler attached.

Design constraints, in order:

1. **Zero effect on simulation.**  The profiler reads
   :func:`time.perf_counter_ns` and touches nothing else — no RNG, no
   machine state — so enabling or disabling it cannot change a single
   simulated bit (the determinism tests run with it on).
2. **Cheap enough to be always-on.**  One ``start``/``stop`` pair is
   two C-level clock reads and two dict updates; the benchmark guard
   (``benchmarks/bench_profiler.py``) pins the total cost below 3 % of
   the engine microbench.  When disabled, ``start`` returns 0 and
   ``stop`` returns immediately.
3. **Picklable results.**  A :meth:`snapshot` is a plain dict of frozen
   :class:`PhaseStat`, so profiles ride inside
   :class:`~repro.metrics.collectors.RunSummary` across
   :class:`~repro.experiments.parallel.ParallelRunner` workers.

The canonical phases (see :data:`SCHEDULER_PHASES`):

``analyzer``
    :meth:`PmuAnalyzer.analyze` — closing PMU windows, Eq. 1-3.
``partition``
    Algorithm 1 (:func:`~repro.core.partition.periodical_partition`).
``balance``
    One steal attempt (Algorithm 2 under vProbe, Credit's scan
    otherwise), timed at the machine's call site so every policy is
    covered.
``sample_period``
    The whole ``on_sample_period`` hook — the envelope the inner
    ``analyzer``/``partition`` phases must account for (the regression
    test pins their sum within 5 % of it).
``epoch``
    One engine advance (contention solve + progress) — a single epoch
    on the reference/vector engines, a whole macro-step on the batched
    engine.
``horizon``
    One :meth:`~repro.xen.engine.BatchedEngine.compute_horizon` call —
    sizing the event-free epoch run the batched engine may advance in
    one step.  Absent on the reference/vector engines.
``tick_fuse``
    Committing the fused boundaries of one batch — replaying the real
    tick (and, for fused slice-expiry re-picks, steal/context-switch)
    calls the horizon proved quiescent.  Batched engine only; absent
    when no tick fused (stall-fault runs, policies that refuse
    ``tick_is_quiescent``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List

__all__ = ["PhaseStat", "PhaseProfiler", "SCHEDULER_PHASES"]

#: The phases that make up "scheduler time" (as opposed to engine time).
SCHEDULER_PHASES = ("analyzer", "partition", "balance")


@dataclass(frozen=True, slots=True)
class PhaseStat:
    """Accumulated cost of one profiled phase."""

    phase: str
    calls: int
    wall_s: float

    @property
    def mean_us(self) -> float:
        """Mean wall-clock per invocation, in microseconds."""
        if self.calls <= 0:
            return 0.0
        return self.wall_s / self.calls * 1e6

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "phase": self.phase,
            "calls": self.calls,
            "wall_s": self.wall_s,
            "mean_us": self.mean_us,
        }


class PhaseProfiler:
    """Accumulates wall-clock and invocation counts per phase.

    Usage at a hook site::

        t0 = profiler.start()
        ...the phase...
        profiler.stop("analyzer", t0)

    ``start``/``stop`` with an explicit token (instead of a stack)
    keeps nested phases trivially correct: the ``sample_period``
    envelope and the ``analyzer`` phase inside it each hold their own
    token, and each accumulates its own full span.

    Event *counters* (:meth:`count`) track interesting occurrences that
    have no duration of their own — e.g. vector-engine gather rebuilds.
    """

    __slots__ = ("enabled", "_acc", "_counters")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # phase -> [total_ns, calls]: one dict lookup per stop() keeps
        # the hot path inside the <3% always-on budget.
        self._acc: Dict[str, List[int]] = {}
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start(self) -> int:
        """A phase-start token (0 when disabled)."""
        if not self.enabled:
            return 0
        return perf_counter_ns()

    def stop(self, phase: str, token: int) -> None:
        """Close the span opened by ``token`` and charge it to ``phase``."""
        if not self.enabled:
            return
        elapsed = perf_counter_ns() - token
        acc = self._acc.get(phase)
        if acc is None:
            self._acc[phase] = [elapsed, 1]
        else:
            acc[0] += elapsed
            acc[1] += 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a duration-less event counter."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def wall_s(self, phase: str) -> float:
        """Total wall-clock charged to a phase, in seconds."""
        acc = self._acc.get(phase)
        return acc[0] * 1e-9 if acc is not None else 0.0

    def calls(self, phase: str) -> int:
        """Invocations recorded for a phase."""
        acc = self._acc.get(phase)
        return acc[1] if acc is not None else 0

    def counter(self, name: str) -> int:
        """Current value of an event counter."""
        return self._counters.get(name, 0)

    def scheduler_wall_s(self) -> float:
        """Wall-clock across the scheduler phases (analyzer/partition/balance)."""
        return sum(self.wall_s(p) for p in SCHEDULER_PHASES)

    def snapshot(self) -> Dict[str, PhaseStat]:
        """Frozen per-phase stats, keyed by phase name."""
        return {
            phase: PhaseStat(phase=phase, calls=calls, wall_s=ns * 1e-9)
            for phase, (ns, calls) in sorted(self._acc.items())
        }

    def counters(self) -> Dict[str, int]:
        """All event counters (a copy)."""
        return dict(self._counters)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable report: phases + counters."""
        return {
            "phases": {p: s.to_dict() for p, s in self.snapshot().items()},
            "counters": self.counters(),
        }

    def format(self) -> str:
        """Render the phase table (import kept local: report is optional)."""
        from repro.metrics.report import format_table

        rows = [
            (s.phase, s.calls, s.wall_s * 1e3, s.mean_us)
            for s in self.snapshot().values()
        ]
        return format_table(
            ["phase", "calls", "wall (ms)", "mean (us)"], rows, float_fmt="{:.3f}"
        )

    def clear(self) -> None:
        """Reset all accumulated phases and counters."""
        self._acc.clear()
        self._counters.clear()
