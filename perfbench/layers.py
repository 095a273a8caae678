"""Per-layer metrics: which public calls are wrapped, and what they yield.

:func:`install` wraps the simulator's layer boundaries with a
:class:`~tracer.Tracer`; :func:`layer_metrics` turns the recorded spans
and the counts gathered alongside them into the ``per_layer`` metrics
of ``BENCHMARK.json``.  Every metric is emitted on every workload; a
layer a workload does not run reads 0.

Pool workers are forked from the traced process and record nothing
(their spans would die with them), so engine and scheduler layers are
measured on the in-process runs, and the pooled passes contribute
parent-side spans plus worker CPU time from ``getrusage``.
"""

from __future__ import annotations

import collections
import importlib
import math
import os
import pickle
from typing import Dict, List, Tuple

from tracer import Tracer, aggregate
from workloads import REPORT_JOBS, Run, dir_bytes

SCHEDULERS = ("credit", "vprobe", "vcpu-p", "lb", "brm")
PROFILE_PHASES = (
    "analyzer",
    "balance",
    "epoch",
    "horizon",
    "partition",
    "sample_period",
    "tick_fuse",
)

#: Spans reported as ``<name>.calls``/``.s`` (and ``.self_s`` when the
#: layer has wrapped children).
SPANS: Tuple[Tuple[str, bool], ...] = (
    ("xen.engine.compute_horizon", False),
    ("xen.engine.advance_batch", True),
    ("xen.engine.advance_running", False),
    ("sched.on_tick", False),
    ("sched.steal", False),
    ("sched.on_sample_period", True),
    ("core.analyze", False),
    ("core.periodical_partition", False),
    ("experiments.execute_cell", False),
    ("metrics.summarize", False),
    ("parallel.run_cells", True),
    ("cache.get", False),
    ("cache.put", False),
    ("cache.result_key", False),
    ("cache.scenario_key", False),
    ("recovery.journal.record_cell", False),
    ("recovery.journal.record_job", False),
    ("report.dump_report", False),
)


def _names() -> List[Tuple[str, str]]:
    out = [
        ("xen.run.calls", "count"),
        ("xen.run.s", "s"),
        ("xen.run.self_s", "s"),
        *((f"xen.run.{s}.s", "s") for s in SCHEDULERS),
        ("xen.epochs", "count"),
    ]
    for name, has_children in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
        if has_children:
            out.append((f"{name}.self_s", "s"))
    out += [
        ("xen.engine.epochs_per_batch", "epochs"),
        ("xen.engine.horizon_p50", "epochs"),
        ("xen.engine.horizon_p90", "epochs"),
        ("xen.engine.fused_ticks", "count"),
        ("sched.steal.hit_ratio", "ratio"),
        *((f"obs.profile.{p}.s", "s") for p in PROFILE_PHASES),
        ("experiments.cell_ms.p50", "ms"),
        ("experiments.cell_ms.ptail", "ms"),
        ("experiments.cell_ms.ptail_q", "%"),
        ("experiments.cell_ms.samples", "count"),
        ("parallel.tasks", "count"),
        ("parallel.parent_cpu_s", "s"),
        ("parallel.worker_cpu_s", "s"),
        ("parallel.worker_busy_frac", "ratio"),
        ("parallel.pickle_out_bytes", "bytes"),
        ("parallel.pickle_in_bytes", "bytes"),
        ("cache.hit_ratio", "ratio"),
        ("cache.disk_bytes", "bytes"),
        ("cache.get.warm_s", "s"),
        ("recovery.journal.bytes_written", "bytes"),
        ("recovery.journal.final_bytes", "bytes"),
        ("recovery.journal.record_cell.warm_s", "s"),
        *(
            (f"report.job.{job}.{phase}.s", "s")
            for job, _, _ in REPORT_JOBS
            for phase in ("cold", "warm")
        ),
        ("warm_wall_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead.wall_s", "s"),
        ("trace.overhead.parallel_wall_s", "s"),
        ("trace.overhead.warm_wall_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = _names()


class Counts:
    """Counts gathered at the wrapped boundaries, beside the spans."""

    def __init__(self) -> None:
        self.steal_hits = 0
        self.cache_hits = 0
        self.journal_bytes = 0
        self.pickle_out: List[int] = []
        self.pickle_in: List[int] = []
        self.hist: collections.Counter = collections.Counter()
        self.batches = 0
        self.fused_ticks = 0
        self.epochs = 0
        self.profile: Dict[str, float] = collections.defaultdict(float)

    def steal(self, result, *args, **kwargs) -> None:
        if result is not None:
            self.steal_hits += 1

    def cache_get(self, result, *args, **kwargs) -> None:
        if result is not None:
            self.cache_hits += 1

    def journal_write(self, result, journal, *args, **kwargs) -> None:
        try:
            self.journal_bytes += os.path.getsize(journal.path)
        except OSError:
            pass

    def submitted(self, future, pool, fn, *args, **kwargs) -> None:
        self.pickle_out.append(len(pickle.dumps((fn, args, kwargs))))

        def returned(done) -> None:
            if not done.cancelled() and done.exception() is None:
                self.pickle_in.append(len(pickle.dumps(done.result())))

        future.add_done_callback(returned)

    def summary(self, summary, *args, **kwargs) -> None:
        from workloads import sim_epochs

        self.epochs += sim_epochs([summary])
        stats = summary.horizon_stats
        if stats:
            self.hist.update({length: n for length, n in stats["hist"]})
            self.batches += stats["batches"]
            self.fused_ticks += stats["fused_ticks"]
        for phase, stat in (summary.phase_profile or {}).items():
            self.profile[phase] += stat.wall_s


def install(tracer: Tracer) -> Counts:
    """Wrap every layer boundary the per-layer metrics read."""
    import concurrent.futures

    import repro  # noqa: F401  (loads every subpackage)
    import repro.cli  # noqa: F401
    import repro.experiments.report_all  # noqa: F401
    from repro.cache import keys
    from repro.cache.store import ResultCache
    from repro.core import analyzer, partition
    from repro.experiments import jsonreport, parallel, runner
    from repro.metrics import collectors
    from repro.recovery.journal import GridJournal
    from repro.xen import credit, engine, simulator

    counts = Counts()
    tracer.patch_method(
        simulator.Machine, "run", lambda machine, *a, **k: f"xen.run.{machine.policy.name}"
    )
    tracer.patch_method(engine.BatchedEngine, "compute_horizon", "xen.engine.compute_horizon")
    tracer.patch_method(engine.BatchedEngine, "advance_batch", "xen.engine.advance_batch")
    tracer.patch_method(engine.VectorEngine, "advance_running", "xen.engine.advance_running")
    tracer.patch_method(credit.SchedulerPolicy, "on_tick", "sched.on_tick")
    tracer.patch_method(credit.SchedulerPolicy, "steal", "sched.steal", counts.steal)
    tracer.patch_method(credit.SchedulerPolicy, "on_sample_period", "sched.on_sample_period")
    tracer.patch_method(analyzer.PmuAnalyzer, "analyze", "core.analyze")
    tracer.patch_function(partition, "periodical_partition", "core.periodical_partition")
    tracer.patch_function(runner, "execute_cell", "experiments.execute_cell")
    tracer.patch_function(collectors, "summarize", "metrics.summarize", counts.summary)
    tracer.patch_method(parallel.ParallelRunner, "run_cells", "parallel.run_cells")
    tracer.patch_method(
        concurrent.futures.ProcessPoolExecutor, "submit", "parallel.submit", counts.submitted
    )
    tracer.patch_method(ResultCache, "get", "cache.get", counts.cache_get)
    tracer.patch_method(ResultCache, "put", "cache.put")
    tracer.patch_function(keys, "result_key", "cache.result_key")
    tracer.patch_function(keys, "scenario_key", "cache.scenario_key")
    tracer.patch_method(
        GridJournal, "record_cell", "recovery.journal.record_cell", counts.journal_write
    )
    tracer.patch_method(
        GridJournal, "record_job", "recovery.journal.record_job", counts.journal_write
    )
    tracer.patch_function(jsonreport, "dump_report", "report.dump_report")
    for job, module, attr in REPORT_JOBS:
        mod = importlib.import_module(f"repro.experiments.{module}")
        tracer.patch_function(mod, attr, f"report.job.{job}")
    return counts


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_quantile(samples: int) -> float:
    """Highest of p99/p95/p90/p80/p75 with at least ten samples above it."""
    for q in (0.99, 0.95, 0.90, 0.80, 0.75):
        if samples * (1.0 - q) >= 10:
            return q
    return 0.0


def _weighted_percentile(hist: collections.Counter, q: float) -> int:
    total = sum(hist.values())
    if not total:
        return 0
    cum = 0
    for length in sorted(hist):
        cum += hist[length]
        if cum >= q * total:
            return length
    return max(hist)


def layer_metrics(
    run: Run,
    tracer: Tracer,
    counts: Counts,
    untraced: Dict[str, float],
    traced: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced round."""
    agg = aggregate(tracer)
    totals: Dict[str, List[float]] = {}
    for (name, phase), (calls, total, self_s) in agg.items():
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_s

    def span(name: str) -> List[float]:
        return totals.get(name, [0, 0.0, 0.0])

    def in_phase(name: str, phase: str) -> float:
        return agg.get((name, phase), [0, 0.0, 0.0])[1]

    out: Dict[str, float] = {}
    runs = [row for name, row in totals.items() if name.startswith("xen.run.")]
    out["xen.run.calls"] = sum(r[0] for r in runs)
    out["xen.run.s"] = sum(r[1] for r in runs)
    out["xen.run.self_s"] = sum(r[2] for r in runs)
    for sched in SCHEDULERS:
        out[f"xen.run.{sched}.s"] = span(f"xen.run.{sched}")[1]
    out["xen.epochs"] = counts.epochs
    for name, has_children in SPANS:
        calls, total, self_s = span(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        if has_children:
            out[f"{name}.self_s"] = self_s

    batch_epochs = sum(length * n for length, n in counts.hist.items() if length > 1)
    out["xen.engine.epochs_per_batch"] = batch_epochs / counts.batches if counts.batches else 0.0
    out["xen.engine.horizon_p50"] = _weighted_percentile(counts.hist, 0.5)
    out["xen.engine.horizon_p90"] = _weighted_percentile(counts.hist, 0.9)
    out["xen.engine.fused_ticks"] = counts.fused_ticks
    steals = span("sched.steal")[0]
    out["sched.steal.hit_ratio"] = counts.steal_hits / steals if steals else 0.0
    for phase in PROFILE_PHASES:
        out[f"obs.profile.{phase}.s"] = counts.profile.get(phase, 0.0)

    cell_ms = sorted(_durations(tracer, "experiments.execute_cell"))
    q = tail_quantile(len(cell_ms))
    out["experiments.cell_ms.p50"] = _percentile(cell_ms, 0.5) if cell_ms else 0.0
    out["experiments.cell_ms.ptail"] = _percentile(cell_ms, q) if cell_ms and q else 0.0
    out["experiments.cell_ms.ptail_q"] = q * 100.0
    out["experiments.cell_ms.samples"] = len(cell_ms)

    out["parallel.tasks"] = span("parallel.submit")[0]
    out["parallel.parent_cpu_s"] = run.parallel_parent_cpu
    out["parallel.worker_cpu_s"] = run.parallel_worker_cpu
    out["parallel.worker_busy_frac"] = (
        run.parallel_worker_cpu / (run.jobs * run.parallel_wall) if run.parallel_wall else 0.0
    )
    out["parallel.pickle_out_bytes"] = sum(counts.pickle_out)
    out["parallel.pickle_in_bytes"] = sum(counts.pickle_in)

    gets = span("cache.get")[0]
    out["cache.hit_ratio"] = counts.cache_hits / gets if gets else 0.0
    out["cache.disk_bytes"] = dir_bytes(run.cache_dirs)
    out["cache.get.warm_s"] = in_phase("cache.get", "warm")
    out["recovery.journal.bytes_written"] = counts.journal_bytes
    out["recovery.journal.final_bytes"] = run.journal_final_bytes
    out["recovery.journal.record_cell.warm_s"] = in_phase("recovery.journal.record_cell", "warm")
    for job, _, _ in REPORT_JOBS:
        for phase in ("cold", "warm"):
            out[f"report.job.{job}.{phase}.s"] = in_phase(f"report.job.{job}", phase)

    # Unbounded, so it is reported here rather than end to end (README).
    out["warm_wall_s"] = untraced["warm_wall_s"]
    out["trace.spans"] = len(tracer)
    for metric in ("wall_s", "parallel_wall_s", "warm_wall_s"):
        out[f"trace.overhead.{metric}"] = traced[metric] - untraced[metric]
    out["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return out


def _durations(tracer: Tracer, name: str) -> List[float]:
    """Milliseconds of every span called ``name``."""
    if name not in tracer.names:
        return []
    target = tracer.names.index(name)
    return [
        (tracer.end[i] - tracer.start[i]) * 1e-6
        for i in range(len(tracer))
        if tracer.name_idx[i] == target
    ]
