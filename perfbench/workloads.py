"""The benchmark's workloads, their output checks and set-up.

Each workload is one *round* of work driven through the simulator's
public entry points with the program's own defaults: no engine,
lane-stacking, speculation or tick-fusion argument is ever passed, so
the benchmark keeps measuring whatever the defaults become.

``soplex_loaded``
    Fig. 4's soplex cell at ``work_scale=1.0`` under the five
    schedulers: in-process through :func:`repro.experiments.runner.compare`
    (no runner, no cache), then the same five cells through a
    :class:`~repro.experiments.parallel.ParallelRunner` with ``nproc``
    workers and a fresh cache, then served again from that cache.
``report_fast``
    ``repro report --fast --jobs nproc`` into a fresh output directory
    with a fresh cache (cold), then the same command into fresh output
    directories against the filled cache (warm).

Every round checks its outputs: simulated results are hashed (host
wall-clock fields left out) and every pass of a round must agree with
the first, and with the digest recorded in ``digests.json`` when the
seed has one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import pathlib
import resource
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

#: Simulation knobs of each workload, full size and smoke size.
SOPLEX_SCALE = {False: 1.0, True: 0.02}
#: Smoke reports run two serial jobs and one pooled grid job.
SMOKE_REPORT_ONLY = ("fig3_", "fig7_", "table3_")
#: Warm passes after each unit of cold work (five in-process runs for
#: soplex_loaded, one cold report), so the warm samples are spread over
#: the round; the fastest is reported.
WARM_REPS = {"soplex_loaded": 5, "report_fast": 5}

#: ``repro report`` jobs and the public function each one calls.
REPORT_JOBS = (
    ("fig1_remote_ratios", "fig1", "run"),
    ("fig3_llc_missrate_rpti", "fig3", "run"),
    ("fig4_spec_cpu2006", "fig4", "run"),
    ("fig5_npb", "fig5", "run"),
    ("fig6_memcached", "fig6", "run"),
    ("fig7_redis", "fig7", "run"),
    ("fig8_sampling_period", "fig8", "run"),
    ("fig9_fault_degradation", "fig9_faults", "run"),
    ("table3_overhead", "table3", "run"),
    ("ablation_dynamic_bounds", "ablation", "run_bounds_ablation"),
    ("ablation_page_migration", "ablation", "run_page_migration_ablation"),
)

#: Report fields that carry host wall-clock, not simulated results.
HOST_FIELDS = frozenset({"phase_wall_ms", "phase_profile", "horizon_stats"})

DIGESTS_FILE = pathlib.Path(__file__).with_name("digests.json")


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def canonical(obj: object) -> str:
    """Canonical JSON: sorted keys, no whitespace, floats by repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summary_digest(summary) -> str:
    """Digest of a RunSummary's simulated results.

    ``to_dict(include_profile=False)`` leaves out exactly the fields the
    summary excludes from equality: the host wall-clock phase profile
    and the batched engine's horizon statistics.
    """
    return sha(canonical(summary.to_dict(include_profile=False)))


def combined_digest(digests: Sequence[str]) -> str:
    return sha("\n".join(digests))


def strip_host(obj: object) -> object:
    """A copy of a report payload without host wall-clock fields."""
    if isinstance(obj, dict):
        return {k: strip_host(v) for k, v in obj.items() if k not in HOST_FIELDS}
    if isinstance(obj, list):
        return [strip_host(v) for v in obj]
    return obj


def report_digest(outdir: pathlib.Path) -> str:
    """Digest of a report's ``*.json`` outputs, host fields stripped.

    ``recovery.json`` is run accounting (hit and miss counters), which
    differs between a cold and a warm run by design; it is checked
    separately.
    """
    parts = []
    for path in sorted(outdir.glob("*.json")):
        if path.name == "recovery.json":
            continue
        payload = strip_host(json.loads(path.read_text(encoding="utf-8")))
        parts.append(f"{path.name}:{sha(canonical(payload))}")
    return combined_digest(parts)


def recorded_digests() -> Dict[str, Dict[str, str]]:
    """Digests recorded for the default and the held-out seed."""
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Host-cost clocks
# ----------------------------------------------------------------------
def _cpu() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Stopwatch:
    """Wall time, own CPU and reaped-children CPU over a block."""

    wall = parent_cpu = child_cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._parent0, self._child0 = _cpu()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        parent, child = _cpu()
        self.parent_cpu = parent - self._parent0
        self.child_cpu = child - self._child0

    @property
    def cpu(self) -> float:
        return self.parent_cpu + self.child_cpu


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    Pages a forked worker shares copy-on-write with the parent count
    in both, so this is an upper bound on the memory both held at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@contextlib.contextmanager
def timed_method(owner: object, attr: str, on_call: Callable[..., None]):
    """Temporarily time every call of ``owner.attr`` (a class or a module).

    ``on_call(seconds, result, *args, **kwargs)`` runs after each call.  Used for
    the few end-to-end figures that sit inside a public command (the
    pooled grid passes and the jobs of ``repro report``); a few hundred
    calls per run, so it costs nothing measurable.
    """
    original = vars(owner)[attr]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        on_call(time.perf_counter() - t0, result, *args, **kwargs)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Run state
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Run:
    """What one benchmark invocation measures and checks."""

    workload: str
    seed: int
    tmp: pathlib.Path
    jobs: int
    smoke: bool = False
    tracer: object = None
    #: end-to-end samples per metric (one per round; one per pass for
    #: warm_wall_s)
    samples: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: cells whose outputs were checked, and how many of them failed
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: the first round's output digest; later rounds must match it
    digest: Optional[str] = None
    #: parallel-phase accounting for the per-layer report
    parallel_wall: float = 0.0
    parallel_parent_cpu: float = 0.0
    parallel_worker_cpu: float = 0.0
    cache_dirs: List[pathlib.Path] = dataclasses.field(default_factory=list)
    journal_final_bytes: int = 0
    #: what a workload's first round leaves for the later ones
    state: dict = dataclasses.field(default_factory=dict)
    _dirs: int = 0

    def fresh_dir(self, tag: str) -> pathlib.Path:
        self._dirs += 1
        path = self.tmp / f"{self._dirs:03d}-{tag}"
        path.mkdir(parents=True)
        return path

    def fresh_cache_dir(self) -> pathlib.Path:
        path = self.fresh_dir("cache")
        self.cache_dirs.append(path)
        return path

    def record(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def check_cells(self, what: str, expected: Sequence[str], got: Sequence[Optional[str]]) -> None:
        """Count cells of one pass; a missing or differing digest fails."""
        self.attempted += len(got)
        bad = sum(1 for e, g in zip(expected, got) if g is None or g != e)
        bad += abs(len(expected) - len(got))
        if bad:
            self.failed += bad
            self.problems.append(f"{what}: {bad} of {len(got)} cells differ")

    def check_digest(self, what: str, digest: str, cells: int) -> None:
        """Pin a round's digest to the first round and the recorded one."""
        if self.digest is None:
            self.digest = digest
            expected = None
            if not self.smoke:
                recorded = recorded_digests().get(self.workload, {})
                expected = recorded.get("any", recorded.get(str(self.seed)))
            if expected is not None and expected != digest:
                self.failed += cells
                self.problems.append(
                    f"{what}: digest {digest[:16]} != recorded {expected[:16]}"
                )
        elif digest != self.digest:
            self.failed += cells
            self.problems.append(f"{what}: digest differs from the first round")


def sim_epochs(summaries) -> int:
    """Simulated epochs (of the default 1 ms) across summaries."""
    from repro.experiments.scenarios import ScenarioConfig

    epoch_s = ScenarioConfig().epoch_s
    return sum(round(s.machine_stats.sim_time_s / epoch_s) for s in summaries)


def _digests(summaries) -> List[Optional[str]]:
    return [summary_digest(s) if s is not None else None for s in summaries]


def _runner_failures(runner) -> int:
    return len(runner.retried_cells) + len(runner.quarantined)


# ----------------------------------------------------------------------
# Set-up (also what the setup_s samples time in a fresh interpreter)
# ----------------------------------------------------------------------
def setup(workload: str, tmp: pathlib.Path, seed: int, smoke: bool) -> None:
    """Import the layers a workload drives and build its inputs.

    Builds the scenarios (machines for the first seed, not run), a
    runner, and the cache and output directories: the work a user pays
    before any simulation starts.  ``setup_s`` times this in fresh
    interpreters.
    """
    import repro  # noqa: F401
    from repro.cache.store import ResultCache
    from repro.experiments.parallel import ParallelRunner
    from repro.experiments.scenarios import (
        SCHEDULER_NAMES,
        ScenarioConfig,
        make_scheduler,
        spec_scenario,
    )

    if workload == "report_fast":
        import repro.cli  # noqa: F401
        import repro.experiments.report_all  # noqa: F401

        (tmp / "out").mkdir(parents=True, exist_ok=True)
        ResultCache(tmp / "cache")
        return
    builder = partial(spec_scenario, "soplex")
    cfg = ScenarioConfig(work_scale=SOPLEX_SCALE[smoke], seed=seed)
    for name in SCHEDULER_NAMES:
        builder(make_scheduler(name), cfg)
    ParallelRunner(1, cache=ResultCache(tmp / "cache"))


# ----------------------------------------------------------------------
# Workloads: one round each
# ----------------------------------------------------------------------
def soplex_loaded(run: Run) -> None:
    from repro.cache.store import ResultCache
    from repro.experiments import runner as serial
    from repro.experiments.parallel import ParallelRunner
    from repro.experiments.scenarios import SCHEDULER_NAMES, ScenarioConfig, spec_scenario

    builder = partial(spec_scenario, "soplex")
    cfg = ScenarioConfig(work_scale=SOPLEX_SCALE[run.smoke], seed=run.seed)

    # The pooled pass runs in a run's first round only: it fills the
    # cache the warm passes read, and later rounds spend their time on
    # the in-process runs this workload is about.
    if "pooled" not in run.state:
        run.phase("parallel")
        cache_dir = run.fresh_cache_dir()
        pool = ParallelRunner(run.jobs, cache=ResultCache(cache_dir))
        with Stopwatch() as sw:
            pooled = pool.compare(builder, cfg)
        _parallel_phase(run, sw)
        run.record("parallel_wall_s", sw.wall)
        run.failed += _runner_failures(pool)
        run.state["pooled"] = (cache_dir, _digests([pooled[n] for n in SCHEDULER_NAMES]))
    cache_dir, pooled_digests = run.state["pooled"]

    def warm_passes() -> None:
        run.phase("warm")
        for _ in range(WARM_REPS["soplex_loaded"]):
            warm = ParallelRunner(run.jobs, cache=ResultCache(cache_dir))
            with Stopwatch() as sw:
                served = warm.compare(builder, cfg)
            run.record("warm_wall_s", sw.wall)
            got = _digests([served[name] for name in SCHEDULER_NAMES])
            run.check_cells("soplex warm vs pooled", pooled_digests, got)
            if warm.cache_hits != len(SCHEDULER_NAMES):
                run.failed += 1
                run.problems.append(f"soplex warm pass: {warm.cache_hits} cache hits")

    # The in-process runs are compare()'s loop, one scheduler at a time,
    # so warm passes can sample the host between them.
    summaries = []
    wall = cpu = 0.0
    for name in SCHEDULER_NAMES:
        run.phase("cold")
        with Stopwatch() as sw:
            summaries.append(serial.run_one(builder, name, cfg))
        wall += sw.wall
        cpu += sw.cpu
        warm_passes()
    run.phase("")
    reference = _digests(summaries)
    run.record("wall_s", wall)
    run.record("cpu_s", cpu)
    run.record("sim_epochs_per_s", sim_epochs(summaries) / wall)
    run.attempted += len(summaries)
    run.check_digest("soplex in-process", combined_digest(reference), len(summaries))
    run.check_cells("soplex pooled vs in-process", reference, pooled_digests)


def report_fast(run: Run) -> None:
    import repro.cli
    from repro.cache.store import ResultCache
    from repro.experiments.parallel import ParallelRunner

    cache_dir = run.fresh_cache_dir()
    jobs = [name for name, _, _ in REPORT_JOBS]
    if run.smoke:
        jobs = [j for j in jobs if j.startswith(SMOKE_REPORT_ONLY)]
    only = [arg for prefix in SMOKE_REPORT_ONLY for arg in ("--only", prefix)] if run.smoke else []

    def report(outdir: pathlib.Path) -> Stopwatch:
        argv = ["report", "--fast", "--jobs", str(run.jobs), "--cache-dir", str(cache_dir), *only, str(outdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            with Stopwatch() as sw:
                code = repro.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"repro report exited {code}")
        return sw

    def recovery(outdir: pathlib.Path, warm: bool) -> int:
        """Check a report's run accounting; returns the cells it resolved."""
        info = json.loads((outdir / "recovery.json").read_text(encoding="utf-8"))
        counters = info["counters"]
        cells = counters["cache_hits"] + counters["cache_misses"] + counters["journal_hits"]
        run.attempted += cells
        bad = counters["retried_cells"] + len(info["quarantined_cells"])
        done = sorted(j for j, status in info["jobs"].items() if status == "done")
        if done != sorted(jobs):
            bad += 1
            run.problems.append(f"report: jobs done {len(done)} of {len(jobs)}")
        if warm and counters["cache_misses"]:
            bad += counters["cache_misses"]
            run.problems.append(f"warm report simulated {counters['cache_misses']} cells")
        run.failed += bad
        run.journal_final_bytes = max(
            run.journal_final_bytes, (outdir / "journal.jsonl").stat().st_size
        )
        return cells

    grid_wall: List[float] = []
    stored: List[object] = []

    def on_put(seconds, ok, cache, key, summary, *args, **kwargs):
        stored.append(summary)

    run.phase("cold")
    cold_out = run.fresh_dir("out")
    with timed_method(ParallelRunner, "run_cells", lambda s, *a, **k: grid_wall.append(s)):
        with timed_method(ResultCache, "put", on_put):
            sw = report(cold_out)
    _parallel_phase(run, sw)
    run.record("wall_s", sw.wall)
    run.record("cpu_s", sw.cpu)
    run.record("parallel_wall_s", sum(grid_wall))
    run.record("sim_epochs_per_s", sim_epochs(stored) / sw.wall)
    cells = recovery(cold_out, warm=False)
    cold_digest = report_digest(cold_out)
    run.check_digest("report cold", cold_digest, cells)

    run.phase("warm")
    # The sample is composed: each job's fastest call over the warm
    # reports so far, plus the fastest remainder (command start,
    # rendering, job records).  A short part is more likely than a whole
    # report to run entirely in one of the host's fast moments, so this
    # is steadier than the fastest whole report (README, "Noise").
    fastest: Dict[str, float] = {}
    parts: Dict[str, float] = {}

    def on_job(seconds, *args, _job, **kwargs):
        parts[_job] = seconds

    with contextlib.ExitStack() as stack:
        for job, module, attr in REPORT_JOBS:
            if job in jobs:
                mod = importlib.import_module(f"repro.experiments.{module}")
                stack.enter_context(timed_method(mod, attr, partial(on_job, _job=job)))
        for _ in range(WARM_REPS["report_fast"]):
            warm_out = run.fresh_dir("out")
            parts.clear()
            wall = report(warm_out).wall
            parts["rest"] = wall - sum(parts.values())
            for part, seconds in parts.items():
                fastest[part] = min(fastest.get(part, seconds), seconds)
            run.record("warm_report_s", wall)
            run.record("warm_wall_s", sum(fastest.values()))
            cells = recovery(warm_out, warm=True)
            if report_digest(warm_out) != cold_digest:
                run.failed += cells
                run.problems.append("report: warm outputs differ from cold")
    run.phase("")


def _parallel_phase(run: Run, sw: Stopwatch) -> None:
    run.parallel_wall += sw.wall
    run.parallel_parent_cpu += sw.parent_cpu
    run.parallel_worker_cpu += sw.child_cpu


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "soplex_loaded": soplex_loaded,
    "report_fast": report_fast,
}


def dir_bytes(paths: Sequence[pathlib.Path]) -> int:
    total = 0
    for root in paths:
        for dirpath, _, files in os.walk(root):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
    return total
