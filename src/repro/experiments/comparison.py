"""Shared machinery for the scheduler-comparison figures (Figs. 4-7).

Each of those figures shows, per workload point, three panels over the
five scheduling approaches: (a) normalised execution time (or raw
throughput for redis), (b) normalised total memory accesses and (c)
normalised remote memory accesses, everything normalised to Credit.
This module runs the grid and holds the results; the per-figure
modules only define the workload axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.experiments.runner import ScenarioBuilder
from repro.experiments.scenarios import SCHEDULER_NAMES, ScenarioConfig
from repro.metrics.collectors import RunSummary
from repro.metrics.report import format_table, improvement_pct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ResultCache
    from repro.experiments.parallel import ParallelRunner

__all__ = ["WorkloadPoint", "ComparisonCell", "ComparisonResult", "run_grid"]


@dataclass(frozen=True, slots=True)
class WorkloadPoint:
    """One x-axis point of a comparison figure."""

    label: str  #: e.g. "soplex", "mix", "c=80"
    builder: ScenarioBuilder


@dataclass(frozen=True, slots=True)
class ComparisonCell:
    """One (workload, scheduler) measurement."""

    workload: str
    scheduler: str
    exec_time_s: float
    total_accesses: float
    remote_accesses: float
    instructions: float
    migrations: int
    cross_node_migrations: int
    overhead_fraction: float

    @classmethod
    def from_summary(cls, workload: str, summary: RunSummary) -> "ComparisonCell":
        """Extract the figure metrics from a run summary (VM1)."""
        d = summary.domain("vm1")
        return cls(
            workload=workload,
            scheduler=summary.policy,
            exec_time_s=d.mean_finish_time_s or float("nan"),
            total_accesses=d.total_accesses,
            remote_accesses=d.remote_accesses,
            instructions=d.instructions,
            migrations=summary.machine_stats.migrations,
            cross_node_migrations=summary.machine_stats.cross_node_migrations,
            overhead_fraction=summary.machine_stats.overhead_fraction,
        )


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """The full grid of one comparison figure."""

    name: str
    workloads: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    cells: Dict[Tuple[str, str], ComparisonCell]
    baseline: str = "credit"

    def cell(self, workload: str, scheduler: str) -> ComparisonCell:
        """One grid cell."""
        return self.cells[(workload, scheduler)]

    def _normalized(self, metric: str, workload: str, scheduler: str) -> float:
        base = getattr(self.cell(workload, self.baseline), metric)
        value = getattr(self.cell(workload, scheduler), metric)
        if base <= 0:
            return float("nan")
        return value / base

    def norm_exec_time(self, workload: str, scheduler: str) -> float:
        """Panel (a): execution time normalised to Credit."""
        return self._normalized("exec_time_s", workload, scheduler)

    def norm_total_accesses(self, workload: str, scheduler: str) -> float:
        """Panel (b): total memory accesses normalised to Credit."""
        return self._normalized("total_accesses", workload, scheduler)

    def norm_remote_accesses(self, workload: str, scheduler: str) -> float:
        """Panel (c): remote memory accesses normalised to Credit."""
        return self._normalized("remote_accesses", workload, scheduler)

    def improvement_over(
        self, workload: str, scheduler: str, reference: str
    ) -> float:
        """The paper's "X % improvement" of ``scheduler`` vs ``reference``."""
        return improvement_pct(
            self.cell(workload, scheduler).exec_time_s,
            self.cell(workload, reference).exec_time_s,
        )

    def best_improvement(self, scheduler: str = "vprobe") -> Tuple[str, float]:
        """(workload, %) where ``scheduler`` gains most over the baseline."""
        best = max(
            self.workloads,
            key=lambda w: self.improvement_over(w, scheduler, self.baseline),
        )
        return best, self.improvement_over(best, scheduler, self.baseline)

    def panel_table(self, metric: str) -> str:
        """Render one panel as a workload x scheduler table.

        ``metric`` is one of ``"time"``, ``"total"``, ``"remote"``.
        """
        fn = {
            "time": self.norm_exec_time,
            "total": self.norm_total_accesses,
            "remote": self.norm_remote_accesses,
        }[metric]
        rows = [
            [w] + [fn(w, s) for s in self.schedulers] for w in self.workloads
        ]
        return format_table(["workload"] + list(self.schedulers), rows)

    def format(self) -> str:
        """Render all three panels."""
        return "\n\n".join(
            f"{self.name} ({label})\n{self.panel_table(metric)}"
            for label, metric in (
                ("normalized execution time", "time"),
                ("normalized total memory accesses", "total"),
                ("normalized remote memory accesses", "remote"),
            )
        )

    def to_payload(self) -> dict:
        """The grid as a JSON-ready payload (raw cells + panels)."""
        panels = {
            metric: {
                w: {s: fn(w, s) for s in self.schedulers} for w in self.workloads
            }
            for metric, fn in (
                ("time", self.norm_exec_time),
                ("total", self.norm_total_accesses),
                ("remote", self.norm_remote_accesses),
            )
        }
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "schedulers": list(self.schedulers),
            "baseline": self.baseline,
            "cells": [
                {
                    "workload": c.workload,
                    "scheduler": c.scheduler,
                    "exec_time_s": c.exec_time_s,
                    "total_accesses": c.total_accesses,
                    "remote_accesses": c.remote_accesses,
                    "instructions": c.instructions,
                    "migrations": c.migrations,
                    "cross_node_migrations": c.cross_node_migrations,
                    "overhead_fraction": c.overhead_fraction,
                }
                for (_, _), c in sorted(self.cells.items())
            ],
            "normalized": panels,
        }

    def to_json(self) -> dict:
        """Schema-versioned machine-readable result."""
        from repro.experiments.jsonreport import report

        return report("comparison", self.to_payload())


def run_grid(
    name: str,
    points: Sequence[WorkloadPoint],
    cfg: Optional[ScenarioConfig] = None,
    schedulers: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache: Optional["ResultCache"] = None,
    runner: Optional["ParallelRunner"] = None,
) -> ComparisonResult:
    """Run every (workload, scheduler) pair of a comparison figure.

    ``jobs > 1`` fans the independent cells across worker processes
    (each cell reruns the same seeded scenario, so results are
    identical to the serial pass).  ``cache`` serves previously
    computed cells from disk; an explicit ``runner`` (which wins over
    ``jobs``/``cache``) lets ``report_all`` share one runner — and its
    hit/miss/retry accounting — across every figure.

    A comparison figure normalises every cell against the Credit
    baseline, so it cannot render with holes: if the runner quarantined
    any cell (deadline blown, epoch cap hit), this raises
    :class:`~repro.experiments.parallel.GridIncompleteError` naming
    them, and ``report_all`` quarantines the whole job rather than the
    whole report.
    """
    from repro.experiments.parallel import GridIncompleteError, ParallelRunner

    config = cfg or ScenarioConfig()
    names = tuple(schedulers) if schedulers is not None else SCHEDULER_NAMES
    cells: Dict[Tuple[str, str], ComparisonCell] = {}
    if runner is None:
        runner = ParallelRunner(jobs, cache=cache)
    flat = [(p.builder, sched, config) for p in points for sched in names]
    summaries = runner.run_cells(flat)
    if any(s is None for s in summaries):
        raise GridIncompleteError(runner.quarantined, total=len(flat))
    rows = iter(summaries)
    for point in points:
        for sched in names:
            cells[(point.label, sched)] = ComparisonCell.from_summary(
                point.label, next(rows)
            )
    return ComparisonResult(
        name=name,
        workloads=tuple(p.label for p in points),
        schedulers=names,
        cells=cells,
    )
