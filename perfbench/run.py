#!/usr/bin/env python3
"""Benchmark of the vProbe simulator's host cost, end to end and by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload soplex_loaded --seed 0 --seconds 20 --trace 0

Every run starts with an unmeasured smoke-sized warm-up round.
``--trace 0`` measures the end-to-end metrics: a run does as many
rounds of the workload as fill about ``--seconds`` on the reference
host (at least one), and each metric is the best of its samples: the
minimum of a time, the maximum of a rate (the warm report's sample is
composed from its jobs' fastest passes, see README.md).  ``--trace 1`` runs one
untraced round, then one round with every layer boundary wrapped by the
span recorder, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced end-to-end time).  ``--smoke`` shrinks
every workload to seconds, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print the same metrics with units, the host fingerprint and
the output digest.  A full record, with every sample, is written to
``.perfbench_out/``.  The exit code is 0 only when every output check
passed; it is 2 when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("parallel_wall_s", "s"),
    ("sim_epochs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Fresh interpreters timed for ``setup_s`` before the rounds and again
#: after them, so the samples span the run (the host's speed drifts).
SETUP_SAMPLES = 3
#: A round's duration on the host the benchmark was tuned on (2 vCPUs);
#: a run does round(--seconds / this) rounds, at least one, so the
#: amount of work per run does not depend on how fast the host is.
NOMINAL_ROUND_S = {"soplex_loaded": 10.0, "report_fast": 30.0}
#: Metrics where higher is better; every other metric is a time.
RATES = frozenset({"sim_epochs_per_s"})
#: Hard stop for one run, well inside the 180 s a run may take.
WATCHDOG_S = 170

_SETUP_SNIPPET = (
    "import pathlib, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.setup(sys.argv[3], pathlib.Path(sys.argv[4]), int(sys.argv[5]), "
    "sys.argv[6] == '1')"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["soplex_loaded", "report_fast"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def fingerprint(root: pathlib.Path, args) -> dict:
    """Host and run identity recorded beside every result."""
    import numpy

    import repro

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "commit": commit,
    }


def time_setup(args, run, src: pathlib.Path, tmp: pathlib.Path) -> None:
    """Time fresh interpreters doing the workload's set-up (``setup_s``)."""
    for _ in range(SETUP_SAMPLES):
        where = pathlib.Path(tempfile.mkdtemp(prefix="setup-", dir=tmp))
        cmd = [
            sys.executable, "-c", _SETUP_SNIPPET, str(src), str(HERE),
            args.workload, str(where), str(args.seed), "1" if args.smoke else "0",
        ]
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in sleeps of up to 50 ms,
        # which quantizes the measurement (the watchdog bounds the run).
        subprocess.run(cmd, check=True)
        run.record("setup_s", time.perf_counter() - t0)


def best(metric: str, samples) -> float:
    """A run's best sample: the fastest time, the highest rate.

    The host's speed drifts between plateaus up to 2x apart for seconds
    at a time, and a slow plateau only ever adds time, so the best of a
    run's samples is its steadiest summary (the ROADMAP's protocol for
    speed claims is likewise the minimum of several runs).
    """
    return max(samples) if metric in RATES else min(samples)


def measure(args, root: pathlib.Path, tmp: pathlib.Path):
    """Run the workload; returns (run, metrics, tracer or None)."""
    import layers
    import workloads as wl
    from tracer import Tracer

    jobs = len(os.sched_getaffinity(0))
    round_fn = wl.WORKLOADS[args.workload]
    # Warm-up: a smoke-sized round, unmeasured, so first-call costs
    # (imports, first forks, cold code paths) land in no sample.
    round_fn(wl.Run(args.workload, args.seed, tmp / "warmup", jobs, smoke=True))
    run = wl.Run(args.workload, args.seed, tmp / "run", jobs, smoke=args.smoke)
    if args.trace:
        round_fn(run)
        marks = {m: len(v) for m, v in run.samples.items()}
        run.parallel_wall = run.parallel_parent_cpu = run.parallel_worker_cpu = 0.0
        run.cache_dirs.clear()
        run.state.clear()
        tracer = Tracer()
        counts = layers.install(tracer)
        run.tracer = tracer
        try:
            round_fn(run)
        finally:
            tracer.unpatch()
        untraced = {m: best(m, run.samples[m][:n]) for m, n in marks.items()}
        traced = {m: best(m, run.samples[m][n:]) for m, n in marks.items()}
        return run, layers.layer_metrics(run, tracer, counts, untraced, traced), tracer

    time_setup(args, run, root / "src", tmp)
    for _ in range(max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))):
        round_fn(run)
    time_setup(args, run, root / "src", tmp)
    metrics = {m: best(m, v) for m, v in run.samples.items()}
    metrics["peak_rss_mb"] = wl.peak_rss_mb()
    return run, metrics, None


def _reap_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)


def _watchdog(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    os.environ["PYTHONPATH"] = str(src)
    os.environ.pop("REPRO_CACHE_DIR", None)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        run, metrics, tracer = measure(args, root, tmp)
        info = fingerprint(root, args)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        _reap_children()
        shutil.rmtree(tmp, ignore_errors=True)

    import layers

    spec = layers.PER_LAYER if args.trace else END_TO_END
    missing = [name for name, _ in spec if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    correct = run.failed == 0 and not run.problems
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_tsv(outdir / f"{stem}.spans.tsv")
    record = {
        "fingerprint": info,
        "digest": run.digest,
        "problems": run.problems,
        "samples": run.samples,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: metrics[name] for name, _ in spec},
    }
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, value in info.items():
        print(f"# {key}: {value}")
    print(f"# digest: {run.digest}")
    for problem in run.problems:
        print(f"# CHECK FAILED: {problem}")
    for name, unit in spec:
        print(f"{name:40s} {metrics[name]:>16.6f} {unit}")
    if not args.trace:
        # Measured on every run but unbounded, so not in the JSON line.
        print(f"{'warm_wall_s':40s} {metrics['warm_wall_s']:>16.6f} s")
    print(f"{'failed_frac':40s} {run.failed / max(run.attempted, 1):>16.6f} frac")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
