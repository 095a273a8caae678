"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``compare``
    Run one workload under several schedulers and print the comparison::

        python -m repro compare soplex --schedulers credit vprobe lb
        python -m repro compare sp --work-scale 0.3 --seed 7
        python -m repro compare mcf --faults chaos --schedulers credit vprobe vprobe-h

``solo``
    The §IV-A calibration run for one application (miss rate, RPTI,
    class)::

        python -m repro solo libquantum

``report``
    Regenerate every table/figure into a directory (same as
    ``python -m repro.experiments.report_all``)::

        python -m repro report results/ --fast

``trace``
    Run one workload and export the full JSONL trace (manifest, event
    stream, window snapshots, end-of-run summary) plus the scheduler
    phase profile::

        python -m repro trace soplex --out run.jsonl
        python -m repro trace mcf --out run.jsonl --scheduler vprobe --engine reference

``validate``
    Check trace files (``.jsonl``) and report files (``.json``)
    against the shipped schemas; exits non-zero on any error::

        python -m repro validate run.jsonl compare.json

``audit``
    Fuzz the engine-parity contract: seeded random scenarios run under
    all three engines with every runtime invariant enabled, summaries
    diffed, metamorphic relations checked, failures shrunk to minimal
    pytest repros; exits non-zero on any finding::

        python -m repro audit --seeds 25
        python -m repro audit --seeds 5 --budget 120 --out audit.json

``bench``
    Re-run the committed benchmark suites and rewrite their
    ``benchmarks/BENCH_*.json`` records (requires a source checkout)::

        python -m repro bench
        python -m repro bench --suite engine

``cache``
    Inspect or maintain a result-cache directory (``--cache-dir`` or
    ``$REPRO_CACHE_DIR``)::

        python -m repro cache stats --cache-dir .repro-cache
        python -m repro cache prune
        python -m repro cache clear

``checkpoint``
    Inspect simulation checkpoint files (``.ckpt``) written by an
    interrupted run; validates schema, version and payload digest the
    same way ``validate`` checks traces and reports::

        python -m repro checkpoint inspect results/checkpoints/*.ckpt

Recovery
--------
``report`` journals per-cell outcomes to ``<outdir>/journal.jsonl``
and exits with code 75 on SIGINT/SIGTERM after flushing it (and
checkpointing any in-flight serial cell); rerunning with ``--resume``
recomputes nothing that already finished.  ``--deadline S`` quarantines
pathological cells instead of failing the report.

Caching
-------
``compare`` and ``report`` accept ``--cache-dir DIR`` (or the
``REPRO_CACHE_DIR`` environment variable) to serve previously computed
cells from a content-addressed on-disk cache; ``--no-cache`` disables
it even when the variable is set.  With neither given, nothing is
cached and results are bitwise those of the original pipeline.
"""

from __future__ import annotations

import argparse
import pathlib
from functools import partial
from typing import List, Optional

from repro.core.classify import Bounds, classify
from repro.experiments import (
    ScenarioConfig,
    compare,
    npb_scenario,
    solo_scenario,
    spec_scenario,
)
from repro.experiments.runner import run_one
from repro.experiments.scenarios import SCHEDULER_NAMES
from repro.faults.plan import FAULT_PRESETS, fault_preset
from repro.metrics.report import format_table, improvement_pct
from repro.workloads.suites import NPB_PROFILES, profile_names
from repro.xen.simulator import ENGINES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vProbe (CLUSTER 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmp_p = sub.add_parser("compare", help="compare schedulers on a workload")
    cmp_p.add_argument("app", help=f"one of: {', '.join(profile_names())}")
    cmp_p.add_argument(
        "--schedulers",
        nargs="+",
        default=["credit", "vprobe"],
        choices=list(SCHEDULER_NAMES) + ["vprobe-h"],
        help="schedulers to run (paired seeds)",
    )
    cmp_p.add_argument("--work-scale", type=float, default=0.15)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument(
        "--faults",
        choices=sorted(FAULT_PRESETS),
        default=None,
        metavar="PRESET",
        help=(
            "inject a named fault preset into every run "
            f"(one of: {', '.join(sorted(FAULT_PRESETS))})"
        ),
    )
    cmp_p.add_argument(
        "--sample-period", type=float, default=1.0, help="vProbe sampling period (s)"
    )
    cmp_p.add_argument(
        "--engine",
        default="batched",
        choices=list(ENGINES),
        help="simulator engine (results are bitwise-identical across all three)",
    )
    cmp_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (one scheduler run per cell; 1 = serial)",
    )
    cmp_p.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="OUT",
        help="also write the comparison as a schema-versioned JSON report",
    )
    _add_cache_flags(cmp_p)

    trace_p = sub.add_parser(
        "trace", help="run one workload and export its JSONL trace"
    )
    trace_p.add_argument("app", help=f"one of: {', '.join(profile_names())}")
    trace_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("run.jsonl"),
        help="trace output path (JSONL)",
    )
    trace_p.add_argument(
        "--scheduler",
        default="vprobe",
        choices=list(SCHEDULER_NAMES) + ["vprobe-h"],
    )
    trace_p.add_argument("--work-scale", type=float, default=0.15)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument(
        "--interval", type=float, default=0.25, help="snapshot interval (s)"
    )
    trace_p.add_argument(
        "--engine",
        default="batched",
        choices=list(ENGINES),
        help="simulator engine (traces are byte-identical across all three)",
    )
    trace_p.add_argument(
        "--faults",
        choices=sorted(FAULT_PRESETS),
        default=None,
        metavar="PRESET",
        help="inject a named fault preset",
    )

    val_p = sub.add_parser(
        "validate", help="validate trace (.jsonl) / report (.json) files"
    )
    val_p.add_argument("files", nargs="+", type=pathlib.Path)

    audit_p = sub.add_parser(
        "audit",
        help="differential-fuzz the engines with runtime invariants on",
    )
    audit_p.add_argument(
        "--seeds", type=int, default=25, help="number of generated scenarios"
    )
    audit_p.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget in seconds; remaining seeds are skipped "
        "(and reported as skipped) once exceeded",
    )
    audit_p.add_argument(
        "--base-seed", type=int, default=0, help="first scenario seed"
    )
    audit_p.add_argument(
        "--engines",
        nargs="+",
        default=None,
        choices=["reference", "vector", "batched"],
        help="engines to diff (default: all three; first is the baseline)",
    )
    audit_p.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic relations (differential only)",
    )
    audit_p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures raw instead of shrinking them",
    )
    audit_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="OUT",
        help="write the repro.audit/v1 JSON report here",
    )
    audit_p.add_argument(
        "--write-repros",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="write each shrunken failure as a pytest file under DIR",
    )

    solo_p = sub.add_parser("solo", help="solo calibration run (Fig. 3)")
    solo_p.add_argument("app")
    solo_p.add_argument("--work-scale", type=float, default=0.05)

    rep_p = sub.add_parser("report", help="regenerate all tables/figures")
    rep_p.add_argument("outdir", nargs="?", default="results")
    rep_p.add_argument("--fast", action="store_true")
    rep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for the comparison grids "
            "(default: one per usable core; 1 forces serial)"
        ),
    )
    rep_p.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="cells per worker submission (default: auto)",
    )
    rep_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay <outdir>/journal.jsonl from an interrupted run; "
            "recompute nothing that already finished"
        ),
    )
    rep_p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help=(
            "per-cell wall-clock deadline in seconds; overruns retry "
            "with backoff, then quarantine instead of failing the report"
        ),
    )
    rep_p.add_argument(
        "--deadline-strikes",
        type=int,
        default=3,
        metavar="N",
        help="attempts before an overrunning cell is quarantined (default 3)",
    )
    rep_p.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="PREFIX",
        help="run only jobs whose name starts with PREFIX (repeatable)",
    )
    _add_cache_flags(rep_p)

    bench_p = sub.add_parser(
        "bench",
        help="run the committed benchmarks and rewrite BENCH_*.json",
    )
    bench_p.add_argument(
        "--suite",
        nargs="+",
        default=["engine", "grid", "profiler", "audit"],
        choices=["engine", "grid", "profiler", "audit"],
        help="which benchmark suites to run (default: all of them)",
    )

    cache_p = sub.add_parser(
        "cache", help="inspect or maintain a result-cache directory"
    )
    cache_p.add_argument(
        "action",
        choices=["stats", "prune", "clear"],
        help=(
            "stats: count entries; prune: delete stale/corrupt entries; "
            "clear: delete everything"
        ),
    )
    cache_p.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )

    ckpt_p = sub.add_parser(
        "checkpoint", help="inspect simulation checkpoint files"
    )
    ckpt_p.add_argument(
        "action",
        choices=["inspect"],
        help="inspect: validate header, version and payload digest",
    )
    ckpt_p.add_argument("files", nargs="+", type=pathlib.Path)

    return parser


def _add_cache_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR if set)",
    )
    sub_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any cache directory, even $REPRO_CACHE_DIR",
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    plan = fault_preset(args.faults) if args.faults else None
    cfg = ScenarioConfig(
        work_scale=args.work_scale,
        seed=args.seed,
        sample_period_s=args.sample_period,
        engine=args.engine,
        faults=None if plan is None or plan.is_null() else plan,
        label=f"compare {args.app}",
    )
    if args.app in NPB_PROFILES:
        builder = partial(npb_scenario, args.app)
    else:
        builder = partial(spec_scenario, args.app)
    from repro.cache.store import resolve_cache

    cache = resolve_cache(args.cache_dir, args.no_cache)
    if args.jobs > 1 or cache is not None:
        from repro.experiments.parallel import ParallelRunner

        runner = ParallelRunner(max(1, args.jobs), cache=cache)
        results = runner.compare(builder, cfg, args.schedulers)
        cache_hits, cache_misses = runner.cache_hits, runner.cache_misses
        retried = list(runner.retried_cells)
    else:
        results = compare(builder, cfg, args.schedulers)
        cache_hits = cache_misses = 0
        retried = []

    baseline = args.schedulers[0]
    base_time = results[baseline].domain("vm1").mean_finish_time_s
    rows = []
    for name, summary in results.items():
        vm1 = summary.domain("vm1")
        rows.append(
            (
                name,
                vm1.mean_finish_time_s,
                vm1.mean_finish_time_s / base_time,
                vm1.remote_ratio * 100.0,
                summary.machine_stats.cross_node_migrations,
                summary.machine_stats.overhead_fraction * 100.0,
            )
        )
    print(
        format_table(
            [
                "scheduler",
                "runtime (s)",
                f"vs {baseline}",
                "remote (%)",
                "cross-migr",
                "overhead (%)",
            ],
            rows,
        )
    )
    if plan is not None and not plan.is_null():
        counts = ", ".join(
            f"{name}: {s.fault_stats.total_events if s.fault_stats else 0}"
            for name, s in results.items()
        )
        print(f"\ninjected fault events ({args.faults}) — {counts}")
    if "vprobe" in results and baseline != "vprobe":
        print(
            f"\nvprobe improvement over {baseline}: "
            f"{improvement_pct(results['vprobe'].domain('vm1').mean_finish_time_s, base_time):.1f}%"
        )
    if cache is not None or retried:
        print(
            f"\ncache: {cache_hits} hits, {cache_misses} misses; "
            f"retried cells: {len(retried)}"
        )
    if args.json is not None:
        from repro.experiments.jsonreport import dump_report, report

        envelope = report(
            "compare",
            {
                "app": args.app,
                "baseline": baseline,
                "schedulers": list(args.schedulers),
                "work_scale": args.work_scale,
                "seed": args.seed,
                "sample_period_s": args.sample_period,
                "faults": args.faults,
                "cache": (
                    {"hits": cache_hits, "misses": cache_misses}
                    if cache is not None
                    else None
                ),
                "retried_cells": retried,
                "summaries": {
                    name: summary.to_dict() for name, summary in results.items()
                },
            },
        )
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(dump_report(envelope) + "\n")
        print(f"\nJSON report written to {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import make_scheduler
    from repro.metrics.timeseries import trace_run
    from repro.obs.trace import write_trace

    plan = fault_preset(args.faults) if args.faults else None
    cfg = ScenarioConfig(
        work_scale=args.work_scale,
        seed=args.seed,
        log_events=True,
        engine=args.engine,
        faults=None if plan is None or plan.is_null() else plan,
        label=f"trace {args.app}",
    )
    if args.app in NPB_PROFILES:
        builder = partial(npb_scenario, args.app)
    else:
        builder = partial(spec_scenario, args.app)
    machine = builder(make_scheduler(args.scheduler), cfg)
    trace = trace_run(machine, interval_s=args.interval)
    lines = write_trace(machine, args.out, trace=trace, scenario=args.app)
    print(
        f"wrote {lines} trace lines to {args.out} "
        f"({len(machine.log)} events, {len(trace)} snapshots)"
    )
    if machine.profiler.enabled:
        print("\nscheduler phase profile (host wall-clock)")
        print(machine.profiler.format())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.schema import (
        AUDIT_SCHEMA,
        validate_audit_report,
        validate_report,
        validate_trace_file,
    )

    failures = 0
    for path in args.files:
        if path.suffix == ".jsonl":
            errors = validate_trace_file(path)
        else:
            try:
                obj = _json.loads(path.read_text())
            except (OSError, _json.JSONDecodeError) as exc:
                errors = [str(exc)]
            else:
                # Dispatch on the self-identifying schema field: audit
                # reports get the stricter audit schema, everything
                # else the report envelope.
                if isinstance(obj, dict) and obj.get("schema") == AUDIT_SCHEMA:
                    errors = validate_audit_report(obj)
                else:
                    errors = validate_report(obj)
        if errors:
            failures += 1
            print(f"{path}: INVALID")
            for err in errors:
                print(f"  {err}")
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import ENGINES, run_audit
    from repro.obs.schema import validate_audit_report

    engines = tuple(args.engines) if args.engines else ENGINES
    report = run_audit(
        seeds=args.seeds,
        budget_s=args.budget,
        base_seed=args.base_seed,
        engines=engines,
        metamorphic=not args.no_metamorphic,
        shrink_failures=not args.no_shrink,
        progress=print,
    )

    checked = len(report.results)
    rel_failed = sum(1 for _, m in report.metamorphic if not m.ok)
    print(
        f"\naudit: {checked}/{args.seeds} scenarios, "
        f"{len(report.failures)} differential failures, "
        f"{len(report.metamorphic)} metamorphic checks "
        f"({rel_failed} failed), {report.checks_run} invariant checks, "
        f"{report.elapsed_s:.1f}s"
    )
    if report.budget_exhausted:
        print(
            f"budget exhausted after {report.elapsed_s:.1f}s — "
            f"skipped seeds: {list(report.skipped_seeds)}"
        )
    for failure in report.failures:
        s = failure.shrunk
        print(
            f"\nFAIL seed {failure.original.scenario.seed} "
            f"[{s.kind} on {s.engine}]: {s.detail}"
        )
        print(f"  shrunken scenario: {s.scenario.to_dict()}")
    for seed, rel in report.metamorphic:
        if not rel.ok:
            print(f"\nFAIL seed {seed} [metamorphic {rel.relation}]: {rel.detail}")

    envelope = report.to_dict()
    errors = validate_audit_report(envelope)
    if errors:  # pragma: no cover - guards the report writer itself
        for err in errors:
            print(f"schema error: {err}")
        return 2
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report.to_json() + "\n")
        print(f"\naudit report written to {args.out}")
    if args.write_repros is not None and report.failures:
        args.write_repros.mkdir(parents=True, exist_ok=True)
        header = (
            "# Auto-written by `repro audit --write-repros`.\n"
            "from repro.audit import FuzzScenario, run_differential\n\n\n"
        )
        for failure in report.failures:
            seed = failure.original.scenario.seed
            path = args.write_repros / f"test_fuzz_repro_seed_{seed}.py"
            path.write_text(header + failure.repro)
            print(f"repro written to {path}")
    return 0 if report.ok else 1


def _cmd_solo(args: argparse.Namespace) -> int:
    cfg = ScenarioConfig(work_scale=args.work_scale, seed=0)
    builder = partial(solo_scenario, args.app)
    summary = run_one(builder, "credit", cfg)
    stats = summary.domain("vm1")
    vtype = classify(stats.rpti, Bounds())
    print(
        format_table(
            ["application", "miss rate (%)", "RPTI", "class"],
            [(args.app, stats.llc_miss_rate * 100.0, stats.rpti, vtype.value)],
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.cache.store import resolve_cache
    from repro.experiments.parallel import default_jobs
    from repro.experiments.report_all import regenerate_all
    from repro.recovery import (
        EXIT_RESUMABLE,
        DeadlinePolicy,
        GracefulShutdown,
        ShutdownRequested,
    )

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
                pathlib.Path(args.outdir),
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
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Re-run the committed benchmark suites through pytest.

    Each suite's measuring test rewrites its ``benchmarks/BENCH_*.json``
    record in place, so a successful run leaves the committed numbers
    refreshed: ``engine`` covers the reference/vector/batched per-epoch
    and cold-run comparison, ``grid`` the cache-aware report dispatch,
    ``profiler`` the always-on profiling overhead guard, ``audit`` the
    runtime-invariant and differential-fuzz overhead record.
    """
    import pytest as _pytest

    bench_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        print(
            "benchmarks/ not found next to src/ — `repro bench` needs a "
            "source checkout (the benchmark suite is not installed)"
        )
        return 2
    targets = [str(bench_dir / f"bench_{suite}.py") for suite in args.suite]
    code = _pytest.main(["-q", "--benchmark-disable", *targets])
    if code == 0:
        names = ", ".join(f"BENCH_{suite}.json" for suite in args.suite)
        print(f"rewrote {names} in {bench_dir}")
    return int(code)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache.store import resolve_cache

    cache = resolve_cache(args.cache_dir, no_cache=False)
    if cache is None:
        print("no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR")
        return 2
    if args.action == "stats":
        print(f"{cache.root}: {cache.scan().format()}")
    elif args.action == "prune":
        stale, corrupt = cache.prune()
        print(f"{cache.root}: pruned {stale} stale, {corrupt} corrupt")
    else:  # clear
        removed = cache.clear()
        print(f"{cache.root}: removed {removed} entries")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Validate checkpoint files; mirrors ``repro validate`` in spirit."""
    from repro.recovery.checkpoint import CheckpointError, inspect_checkpoint

    failures = 0
    for path in args.files:
        try:
            header = inspect_checkpoint(path, verify_payload=True)
        except (CheckpointError, OSError) as exc:
            failures += 1
            print(f"{path}: INVALID")
            print(f"  {exc}")
            continue
        print(
            f"{path}: ok — {header['policy']}/{header['engine']} "
            f"seed={header['seed']} epoch={header['epoch_index']} "
            f"t={header['sim_time_s']:.3f}s "
            f"({header['domains']} domains, {header['vcpus']} vcpus, "
            f"{header['payload_bytes']} payload bytes)"
        )
        print(f"  config_hash: {header['config_hash']}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "solo":
        return _cmd_solo(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
