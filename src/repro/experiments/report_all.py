"""Regenerate every table and figure in one command.

``python -m repro.experiments.report_all [outdir] [--fast] [--jobs N]
[--cache-dir DIR | --no-cache] [--chunksize N] [--resume]
[--deadline S] [--only PREFIX ...]`` runs the whole evaluation
(Figs. 1, 3-8 and Table III plus the ablations) and writes each
rendered table to ``outdir`` (default ``./results``).  ``--fast`` uses
very small scales for a minutes-long smoke pass; the default scales
match the benchmark harness.  ``--jobs N`` fans each comparison grid's
cells across N worker processes (results are identical — every cell
reruns the same seeded scenario); the default is one worker per core.
With a cache directory (``--cache-dir`` or ``REPRO_CACHE_DIR``)
previously computed cells are served from disk and a warm rerun does
no simulation at all.

**Crash safety.**  Every run keeps a write-ahead journal at
``<outdir>/journal.jsonl``: each completed cell (and each finished
job) is recorded atomically the moment it lands.  SIGINT/SIGTERM exit
with code 75 (:data:`~repro.recovery.shutdown.EXIT_RESUMABLE`) after
flushing the journal and checkpointing any in-flight serial cell to
``<outdir>/checkpoints/``; relaunching with ``--resume`` replays
journaled cells without recomputation and skips jobs whose outputs are
already on disk, so the final report is byte-identical to an
uninterrupted run.  ``--deadline S`` arms a per-cell wall-clock
deadline: overrunning cells are retried with backoff and eventually
*quarantined* (recorded in the journal and ``recovery.json``) instead
of failing the report.

This is the scripted equivalent of
``pytest benchmarks/ --benchmark-only`` without the timing machinery —
useful on machines where pytest-benchmark is unavailable.
"""

from __future__ import annotations

import pathlib
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    ScenarioConfig,
    ablation,
    fig1,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9_faults,
    table3,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ResultCache
    from repro.experiments.parallel import ParallelRunner
    from repro.recovery.deadline import DeadlinePolicy
    from repro.recovery.shutdown import GracefulShutdown

__all__ = ["regenerate_all", "main"]

#: Schema of the <outdir>/recovery.json run summary.
RECOVERY_SCHEMA = "repro.recovery-report/v1"


def _jobs(
    fast: bool,
    jobs: int = 1,
    runner: "Optional[ParallelRunner]" = None,
    cache: "Optional[ResultCache]" = None,
) -> Tuple[Tuple[str, Callable[[], object]], ...]:
    scale = 0.05 if fast else 0.18
    svc_scale = 0.04 if fast else 0.1
    cfg = lambda ws, seed: ScenarioConfig(work_scale=ws, seed=seed)
    return (
        ("fig1_remote_ratios", lambda: fig1.run(cfg(scale * 0.8, 0), cache=cache)),
        ("fig3_llc_missrate_rpti", lambda: fig3.run(cfg(0.05, 0), cache=cache)),
        (
            "fig4_spec_cpu2006",
            lambda: fig4.run(cfg(scale, 1), jobs=jobs, cache=cache, runner=runner),
        ),
        (
            "fig5_npb",
            lambda: fig5.run(cfg(scale, 2), jobs=jobs, cache=cache, runner=runner),
        ),
        (
            "fig6_memcached",
            lambda: fig6.run(
                cfg(svc_scale, 3),
                concurrencies=(16, 48, 80, 112),
                jobs=jobs,
                cache=cache,
                runner=runner,
            ),
        ),
        (
            "fig7_redis",
            lambda: fig7.run(
                cfg(scale, 4),
                connections=(2000, 6000, 10000),
                jobs=jobs,
                cache=cache,
                runner=runner,
            ),
        ),
        ("fig8_sampling_period", lambda: fig8.run(cfg(scale, 0), cache=cache)),
        (
            "fig9_fault_degradation",
            lambda: fig9_faults.run(
                cfg(scale, 0),
                seeds=3 if fast else 5,
                jobs=jobs,
                cache=cache,
                runner=runner,
            ),
        ),
        ("table3_overhead", lambda: table3.run(cfg(scale, 0), cache=cache)),
        (
            "ablation_dynamic_bounds",
            lambda: ablation.run_bounds_ablation(cfg(scale, 5), cache=cache),
        ),
        (
            "ablation_page_migration",
            lambda: ablation.run_page_migration_ablation(cfg(scale, 5), cache=cache),
        ),
    )


def _write_recovery_report(
    outdir: pathlib.Path,
    runner: "ParallelRunner",
    job_status: Dict[str, str],
    resumed_jobs: List[str],
    interrupted: bool,
    extra_journal_hits: int = 0,
) -> None:
    """Publish <outdir>/recovery.json (best effort, never fatal)."""
    from repro import __version__
    from repro.obs.manifest import canonical_dumps

    payload = {
        "schema": RECOVERY_SCHEMA,
        "version": __version__,
        "interrupted": interrupted,
        "jobs": job_status,
        "resumed_jobs": sorted(resumed_jobs),
        "quarantined_cells": [q.to_dict() for q in runner.total_quarantined],
        "counters": {
            "cache_hits": runner.total_cache_hits,
            "cache_misses": runner.total_cache_misses,
            "journal_hits": runner.total_journal_hits + extra_journal_hits,
            "retried_cells": len(runner.total_retried_cells),
        },
    }
    try:
        (outdir / "recovery.json").write_text(
            canonical_dumps(payload) + "\n", encoding="utf-8"
        )
    except OSError:  # pragma: no cover - defensive
        pass


def regenerate_all(
    outdir: pathlib.Path,
    fast: bool = False,
    only: "tuple[str, ...] | None" = None,
    jobs: int = 1,
    cache: "Optional[ResultCache]" = None,
    chunksize: Optional[int] = None,
    resume: bool = False,
    deadline: "DeadlinePolicy | float | None" = None,
    shutdown: "Optional[GracefulShutdown]" = None,
) -> Dict[str, int]:
    """Run every experiment; write one .txt and one .json per result.

    The ``.txt`` is the rendered table (unchanged); the ``.json`` is
    the schema-versioned ``to_json()`` envelope for machine consumers.
    ``only`` optionally restricts to jobs whose name starts with one of
    the given prefixes (used by smoke tests).  ``jobs > 1`` fans each
    comparison grid's cells across worker processes; every grid shares
    one :class:`~repro.experiments.parallel.ParallelRunner` so cache
    hit/miss and crash-retry counts aggregate across the whole report.
    ``cache`` serves previously computed cells from disk — the cached
    payload round-trips exactly, so the ``.json`` outputs of a warm run
    are byte-identical to a cold one.

    Recovery behaviour: the run journals every completed cell and job
    to ``<outdir>/journal.jsonl``; ``resume=True`` replays that journal
    (journaled cells resolve without simulation; jobs that already
    finished — journaled *and* with their output files on disk — are
    skipped outright, and previously quarantined jobs stay
    quarantined).  A ``deadline`` policy quarantines pathological cells
    rather than failing the run: the affected *job* is recorded as
    quarantined (its outputs are withheld — a comparison figure cannot
    render with holes) and every other job still completes.  When a
    :class:`~repro.recovery.shutdown.GracefulShutdown` is supplied the
    run stops at a clean point on SIGINT/SIGTERM, writes
    ``recovery.json`` and lets
    :class:`~repro.recovery.shutdown.ShutdownRequested` propagate so
    the CLI can exit with code 75.

    Returns the run's accounting: ``cache_hits``, ``cache_misses``,
    ``retried_cells``, ``journal_hits``, ``quarantined_cells``,
    ``resumed_jobs`` and ``quarantined_jobs``.
    """
    from repro.experiments.jsonreport import dump_report
    from repro.experiments.parallel import GridIncompleteError, ParallelRunner
    from repro.recovery.journal import GridJournal, JournalCache

    outdir.mkdir(parents=True, exist_ok=True)
    journal = GridJournal(outdir / "journal.jsonl", resume=resume)
    # The serial jobs reach their cells through run_one(cache=...);
    # wrapping the cache in the journal makes them resume-covered too.
    job_cache = JournalCache(journal, cache)
    runner = ParallelRunner(
        jobs,
        cache=cache,
        chunksize=chunksize,
        journal=journal,
        deadline=deadline,
        shutdown=shutdown,
        checkpoint_dir=outdir / "checkpoints",
    )
    if resume and (journal.loaded_cells or journal.loaded_jobs):
        print(
            f"resuming: journal has {journal.loaded_cells} cells, "
            f"{journal.loaded_jobs} jobs "
            f"({journal.loaded_quarantines} quarantined cells)"
        )
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    job_status: Dict[str, str] = {}
    resumed_jobs: List[str] = []
    interrupted = False
    try:
        for name, job in _jobs(fast, jobs, runner=runner, cache=job_cache):
            if only is not None and not any(name.startswith(p) for p in only):
                continue
            if resume:
                status = journal.job_status(name)
                if (
                    status == "done"
                    and (outdir / f"{name}.txt").exists()
                    and (outdir / f"{name}.json").exists()
                ):
                    resumed_jobs.append(name)
                    job_status[name] = "done"
                    print(f"[  resumed] {name}")
                    continue
                if status == "quarantined":
                    job_status[name] = "quarantined"
                    print(f"[quarantine] {name} (from journal; not retried)")
                    continue
            start = time.perf_counter()
            try:
                result = job()
            except GridIncompleteError as exc:
                journal.record_job(name, status="quarantined")
                job_status[name] = "quarantined"
                print(f"[quarantine] {name}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            text = result.format()
            (outdir / f"{name}.txt").write_text(text + "\n")
            (outdir / f"{name}.json").write_text(dump_report(result.to_json()) + "\n")
            journal.record_job(name, status="done")
            job_status[name] = "done"
            print(f"[{elapsed:7.1f}s] {name}")
            print(text)
            print()
    except BaseException:
        interrupted = True
        raise
    finally:
        _write_recovery_report(
            outdir,
            runner,
            job_status,
            resumed_jobs,
            interrupted,
            extra_journal_hits=job_cache.journal_hits,
        )
    stats = {
        "cache_hits": (cache.hits - hits0) if cache is not None else 0,
        "cache_misses": (cache.misses - misses0) if cache is not None else 0,
        "retried_cells": len(runner.total_retried_cells),
        "journal_hits": runner.total_journal_hits + job_cache.journal_hits,
        "quarantined_cells": len(runner.total_quarantined),
        "resumed_jobs": len(resumed_jobs),
        "quarantined_jobs": sum(
            1 for s in job_status.values() if s == "quarantined"
        ),
    }
    if cache is not None or stats["retried_cells"]:
        print(
            f"cache: {stats['cache_hits']} hits, "
            f"{stats['cache_misses']} misses; "
            f"retried cells: {stats['retried_cells']}"
        )
    if stats["journal_hits"] or stats["resumed_jobs"]:
        print(
            f"journal: {stats['journal_hits']} cells replayed, "
            f"{stats['resumed_jobs']} jobs skipped"
        )
    if stats["quarantined_cells"]:
        print(
            f"quarantined: {stats['quarantined_cells']} cells "
            f"({stats['quarantined_jobs']} jobs withheld) — see recovery.json"
        )
    return stats


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    import argparse

    from repro.cache.store import resolve_cache
    from repro.experiments.parallel import default_jobs
    from repro.recovery.deadline import DeadlinePolicy
    from repro.recovery.shutdown import (
        EXIT_RESUMABLE,
        GracefulShutdown,
        ShutdownRequested,
    )

    parser = argparse.ArgumentParser(
        description="Regenerate every table and figure."
    )
    parser.add_argument(
        "outdir", nargs="?", default="results", type=pathlib.Path
    )
    parser.add_argument("--fast", action="store_true")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per grid (default: one per core)",
    )
    parser.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="cells per worker submission (default: auto)",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any cache directory, even $REPRO_CACHE_DIR",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay <outdir>/journal.jsonl; recompute nothing that finished",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-cell wall-clock deadline in seconds "
        "(overruns retry with backoff, then quarantine)",
    )
    parser.add_argument(
        "--deadline-strikes",
        type=int,
        default=3,
        metavar="N",
        help="attempts before an overrunning cell is quarantined (default 3)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="PREFIX",
        help="run only jobs whose name starts with PREFIX (repeatable)",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    cache = resolve_cache(args.cache_dir, args.no_cache)
    deadline = (
        DeadlinePolicy(deadline_s=args.deadline, max_strikes=args.deadline_strikes)
        if args.deadline is not None
        else None
    )
    shutdown = GracefulShutdown()
    try:
        with shutdown:
            regenerate_all(
                args.outdir,
                fast=args.fast,
                only=tuple(args.only) if args.only else None,
                jobs=max(1, jobs),
                cache=cache,
                chunksize=args.chunksize,
                resume=args.resume,
                deadline=deadline,
                shutdown=shutdown,
            )
    except ShutdownRequested as exc:
        print(
            f"\ninterrupted ({exc}); journal flushed — "
            f"relaunch with --resume to continue (exit {EXIT_RESUMABLE})"
        )
        return EXIT_RESUMABLE
    print(f"all tables written to {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
