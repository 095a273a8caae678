"""Parallel experiment runner: grid cells across worker processes.

Every comparison in the evaluation is a grid of fully independent
simulations — (workload, scheduler) cells for the figure sweeps,
(seed, scheduler) cells for the averaged tables.  Each cell builds its
own :class:`Machine` from a picklable scenario builder and a seeded
config, so cells can run in separate processes with no shared state:
the pairing guarantee (every scheduler sees the identical workload
randomness for a given seed) is carried entirely by the config's seed,
not by execution order.

:class:`ParallelRunner` mirrors the serial API of
:mod:`repro.experiments.runner` — :meth:`ParallelRunner.compare` and
:meth:`ParallelRunner.compare_mean` return exactly what their serial
counterparts return, cell for cell.  With ``jobs <= 1`` it *is* the
serial path (no executor, no pickling), so callers can thread a
``--jobs N`` flag straight through.

**Cache awareness.**  Given a
:class:`~repro.cache.store.ResultCache`, the runner resolves hits *in
the parent process* before any executor exists: a fully warm grid
performs zero pickling and spawns zero workers.  Only misses are
dispatched, and each miss's result is stored back (by the parent, so
workers stay cache-blind and the worker protocol stays the plain
picklable cell).  Per-call hit/miss counts land in
:attr:`ParallelRunner.cache_hits` / :attr:`ParallelRunner.cache_misses`
and accumulate in the ``total_*`` counterparts for end-of-report
summary lines.

**Journal awareness.**  Given a
:class:`~repro.recovery.journal.GridJournal`, every completed cell is
appended to the write-ahead journal the moment its result lands, and
journaled cells resolve in the parent exactly like cache hits — this
is what lets a SIGTERM'd ``repro report`` relaunch with ``--resume``
and recompute nothing that already finished.  Cells the journal marks
*quarantined* are not retried either: their slots stay ``None``.

**Deadlines and quarantine.**  With a
:class:`~repro.recovery.deadline.DeadlinePolicy`, each attempt runs
under a wall-clock alarm in the process executing it; an overrun
cancels the cell, the parent retries with exponential backoff, and
after ``max_strikes`` attempts the cell is *quarantined* — recorded in
:attr:`ParallelRunner.quarantined` (and the journal) with its slot
left ``None`` instead of failing the grid.
:class:`~repro.xen.simulator.SimulationTimeout` (the simulated epoch
cap) rides the same path but quarantines immediately: it is a
deterministic outcome, so a retry — serial or otherwise — would only
reproduce it at full cost.

**Chunked dispatch.**  Misses are submitted in chunks
(``chunksize``; an adaptive default of ~4 chunks per worker) so a
large seed sweep pays one task-submission/result round-trip per chunk
instead of per cell — the executor's per-task IPC is the dominant cost
once cells are short.  ``chunksize=1`` reproduces the historical
one-future-per-cell dispatch exactly.  Workers report *per-cell
outcomes* (ok / timeout / error), so one bad cell no longer poisons
its chunk-mates.

Worker crashes don't lose the grid: any chunk whose future fails —
including the :class:`BrokenProcessPool` cascade when one worker dies
and takes every pending future with it — has its cells retried once,
serially, in the parent process.  Because cells are deterministic
functions of (builder, scheduler, config), a serial re-run produces
the exact summary the worker would have; only cells that *also* fail
serially surface, aggregated into one :class:`ParallelExecutionError`
naming them (keyed by cell name *and grid index*, so two lambdas that
render identically cannot silently merge).  Retried cells are recorded
in :attr:`ParallelRunner.retried_cells` so a flaky pool never passes
silently.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import pathlib

    from repro.cache.store import ResultCache
    from repro.recovery.journal import GridJournal
    from repro.recovery.shutdown import GracefulShutdown

from repro.experiments.runner import (
    MeanStats,
    ScenarioBuilder,
    aggregate_mean_stats,
    execute_cell,
)
from repro.experiments.scenarios import SCHEDULER_NAMES, ScenarioConfig
from repro.metrics.collectors import RunSummary
from repro.recovery.deadline import (
    CellDeadlineExceeded,
    DeadlinePolicy,
    Quarantine,
    alarm_guard,
    run_cell_batch_guarded,
)
from repro.xen.simulator import ENGINES, SimulationTimeout

__all__ = [
    "ParallelRunner",
    "ParallelExecutionError",
    "GridIncompleteError",
    "default_jobs",
    "run_packed_batch_guarded",
]

#: One grid cell: (builder, scheduler name, config).
Cell = Tuple[ScenarioBuilder, str, ScenarioConfig]

#: Distinguishes "not memoized yet" from a memoized ``None``.
_UNSET = object()

#: Failures spelled out in a ParallelExecutionError message before the
#: rest collapse into "... and N more" (each repeats the cell name and
#: exception text; hundreds of them would bury the signal).
_MAX_FAILURE_DETAIL = 8


def default_jobs() -> int:
    """A sensible ``--jobs`` default: all *usable* cores, at least one.

    Containers and batch schedulers often pin the process to a subset
    of the machine (cgroup cpusets, ``taskset``); ``os.cpu_count()``
    ignores that and would oversubscribe the allowance, so the affinity
    mask wins where the platform exposes one.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


def cell_name(cell: Cell) -> str:
    """A stable human-readable id: ``builder(args)/scheduler/seed=N``.

    Not guaranteed unique — distinct lambda/closure builders all render
    as ``<lambda>`` — so anything that *keys* on cells must combine
    this with the grid index (see :func:`indexed_cell_name`).
    """
    builder, scheduler, cfg = cell
    fn = builder
    bound: List[str] = []
    while isinstance(fn, partial):
        bound.extend(str(a) for a in fn.args)
        bound.extend(f"{k}={v}" for k, v in sorted(fn.keywords.items()))
        fn = fn.func
    base = getattr(fn, "__name__", repr(fn))
    label = f"{base}({', '.join(bound)})" if bound else base
    return f"{label}/{scheduler}/seed={cfg.seed}"


def indexed_cell_name(cell: Cell, index: int) -> str:
    """Collision-proof cell id: the readable name plus the grid index."""
    return f"{cell_name(cell)}#{index}"


def run_cell_batch(cells: Sequence[Cell]) -> List[RunSummary]:
    """Worker-side entry: run a chunk of cells serially, in order.

    Module-level (picklable) and cache-blind by design; the parent owns
    all cache traffic.  The runner itself now dispatches through the
    outcome-reporting
    :func:`~repro.recovery.deadline.run_cell_batch_guarded`; this plain
    variant remains the raise-on-error building block.
    """
    return [execute_cell(b, s, c) for b, s, c in cells]


def run_packed_batch_guarded(
    builders: Sequence[ScenarioBuilder],
    packed: Sequence[Tuple[int, str, ScenarioConfig]],
    deadline_s: Optional[float] = None,
) -> List[Tuple[str, object]]:
    """Worker entry for builder-deduplicated chunks.

    ``packed`` cells reference their builder by index into
    ``builders``, so a chunk whose cells share one scenario builder
    ships (and unpickles) that builder exactly once per chunk instead
    of once per cell — the pickle-memo guarantee extended across
    distinct-but-equal ``partial`` objects, which the figure modules
    create one per grid point.
    """
    cells = [(builders[j], scheduler, cfg) for j, scheduler, cfg in packed]
    return run_cell_batch_guarded(cells, deadline_s)


def _auto_chunksize(cells: int, workers: int) -> int:
    """~2 chunks per worker, at most 64 cells per chunk.

    The executor round-trip (submit + result pickling) costs ~1 ms per
    task while even the smallest grid cells simulate for ~5 ms, so
    fewer, larger chunks win: two per worker halves the round-trips of
    the old ~4-per-worker rule and still leaves one rebalance
    opportunity when cell costs are uneven.  The 64-cell cap keeps a
    single slow mega-chunk from serializing a huge sweep.
    ``benchmarks/BENCH_grid.json`` records the measured effect.
    """
    return max(1, min(64, math.ceil(cells / (workers * 2))))


class ParallelExecutionError(RuntimeError):
    """Cells that failed both in a worker and on the serial retry.

    ``failures`` maps each failing cell's :func:`indexed_cell_name` to
    the exception its serial retry raised (the worker-side error is
    often just the pool-collapse cascade; the serial one is the real
    cause).  The rendered message lists at most
    ``_MAX_FAILURE_DETAIL`` of them; the full mapping is always on the
    exception object.
    """

    def __init__(self, failures: Dict[str, BaseException], total: int) -> None:
        self.failures = dict(failures)
        shown = list(failures.items())[:_MAX_FAILURE_DETAIL]
        detail = "; ".join(
            f"{name}: {type(exc).__name__}: {exc}" for name, exc in shown
        )
        if len(failures) > len(shown):
            detail += f"; ... and {len(failures) - len(shown)} more"
        super().__init__(
            f"{len(failures)} of {total} cells failed even after serial retry: {detail}"
        )


class GridIncompleteError(RuntimeError):
    """A grid finished with quarantined (hence missing) cells.

    Raised by consumers that need *every* cell to render their result
    (:func:`repro.experiments.comparison.run_grid`); ``report_all``
    catches it, records the whole job as quarantined in the journal and
    carries on with the remaining jobs.
    """

    def __init__(self, quarantined: Sequence[Quarantine], total: int) -> None:
        self.quarantined = list(quarantined)
        shown = [q.cell for q in self.quarantined[:_MAX_FAILURE_DETAIL]]
        detail = ", ".join(shown)
        if len(self.quarantined) > len(shown):
            detail += f", ... and {len(self.quarantined) - len(shown)} more"
        super().__init__(
            f"{len(self.quarantined)} of {total} cells quarantined: {detail}"
        )


class ParallelRunner:
    """Fans independent experiment cells across a process pool.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs every cell in
        this process, bit-for-bit the serial runner.
    cache:
        Optional :class:`~repro.cache.store.ResultCache`; hits resolve
        in the parent, misses run (and are stored back) as usual.
        ``None`` disables caching entirely.
    chunksize:
        Cells per submitted task when dispatching misses.  ``None``
        picks :func:`_auto_chunksize`; ``1`` forces the historical
        one-future-per-cell dispatch.
    engine:
        Optional engine selector (one of
        :data:`~repro.xen.simulator.ENGINES`).  When set, every
        dispatched cell's config is rewritten to run on that engine —
        the selector travels inside the pickled
        :class:`ScenarioConfig`, so workers need no extra plumbing.
        ``None`` (default) respects each cell's own config.  Because
        the engines are bitwise-identical, the selector can never
        change results, only wall time (``tests/test_parallel.py``
        pins this).
    journal:
        Optional :class:`~repro.recovery.journal.GridJournal`.
        Journaled cells resolve without recomputation (counted in
        :attr:`journal_hits`), completed cells are appended as they
        land, and quarantines persist across a resume.
    deadline:
        Optional :class:`~repro.recovery.deadline.DeadlinePolicy` (or
        bare seconds).  Overrunning attempts are cancelled, retried
        with exponential backoff and eventually quarantined.
    shutdown:
        Optional :class:`~repro.recovery.shutdown.GracefulShutdown`.
        The runner checks it between cells/chunks so a SIGTERM exits
        at a clean point, and serial cells run in its *deferred* mode
        so they can checkpoint at an epoch boundary first.
    checkpoint_dir:
        Directory for in-flight serial-cell snapshots.  Only consulted
        on the serial path (workers are sacrificial — their cells are
        simply re-dispatched on resume); an interrupted serial cell is
        checkpointed there and resumed by the next run.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional["ResultCache"] = None,
        chunksize: Optional[int] = None,
        engine: Optional[str] = None,
        journal: Optional["GridJournal"] = None,
        deadline: "DeadlinePolicy | float | None" = None,
        shutdown: Optional["GracefulShutdown"] = None,
        checkpoint_dir: "pathlib.Path | str | None" = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        if engine is not None and engine not in ENGINES:
            raise ValueError(
                "engine must be 'batched', 'vector', 'reference' or None, "
                f"got {engine!r}"
            )
        self.jobs = jobs
        self.cache = cache
        self.chunksize = chunksize
        self.engine = engine
        self.journal = journal
        self.deadline = DeadlinePolicy.coerce(deadline)
        self.shutdown = shutdown
        self.checkpoint_dir = checkpoint_dir
        #: cell names recovered by serial retry in the latest
        #: :meth:`run_cells` call (empty on a clean parallel run)
        self.retried_cells: List[str] = []
        #: cache hits/misses of the latest :meth:`run_cells` call
        self.cache_hits = 0
        self.cache_misses = 0
        #: journaled cells served without recomputation (latest call)
        self.journal_hits = 0
        #: cells quarantined (or already quarantined in the journal)
        #: during the latest :meth:`run_cells` call
        self.quarantined: List[Quarantine] = []
        #: per-run_cells memos: builder fingerprints keyed by object
        #: identity (one hash per distinct builder per grid — not one
        #: per cell) and full cache keys keyed by (fingerprint,
        #: scheduler, config identity)
        self._fid_memo: Dict[int, Optional[str]] = {}
        self._key_memo: Dict[Tuple[str, str, int], str] = {}
        #: lifetime accumulators across every :meth:`run_cells` call
        self.total_retried_cells: List[str] = []
        self.total_cache_hits = 0
        self.total_cache_misses = 0
        self.total_journal_hits = 0
        self.total_quarantined: List[Quarantine] = []

    # ------------------------------------------------------------------
    # Cache + journal plumbing
    # ------------------------------------------------------------------
    def _builder_fid(self, builder: ScenarioBuilder) -> Optional[str]:
        """Memoized :func:`~repro.cache.keys.builder_fingerprint`.

        Keyed by object identity, which is stable for the duration of
        one :meth:`run_cells` call (the cells hold the references): a
        grid of N seeds × M schedulers over one builder fingerprints it
        once, not N×M times.
        """
        from repro.cache.keys import builder_fingerprint

        marker = self._fid_memo.get(id(builder), _UNSET)
        if marker is _UNSET:
            marker = builder_fingerprint(builder)
            self._fid_memo[id(builder)] = marker
        return marker

    def _cell_key(self, cell: Cell) -> Optional[str]:
        """Memoized :func:`~repro.cache.keys.result_key` for one cell.

        The config hash is likewise deduplicated by object identity —
        ``compare_mean`` shares one config object across a seed's
        scheduler row, so the row pays one config hash, not one per
        scheduler.
        """
        from repro.cache.keys import scenario_key

        builder, scheduler, cfg = cell
        fid = self._builder_fid(builder)
        if fid is None:
            return None
        memo_key = (fid, scheduler, id(cfg))
        key = self._key_memo.get(memo_key)
        if key is None:
            key = scenario_key(fid, scheduler, cfg)
            self._key_memo[memo_key] = key
        return key

    def _lookup(
        self, cells: Sequence[Cell], results: List[Optional[RunSummary]]
    ) -> Tuple[List[Optional[str]], List[int]]:
        """Resolve journal/cache hits in-place; returns (keys, misses).

        Resolution order per cell: journal ``done`` record, journal
        quarantine (slot stays ``None`` — no recomputation), cache
        entry, then miss.  Cache hits on a journaled run are also
        written through to the journal so a later ``--resume`` does not
        depend on the cache still being warm.
        """
        keys: List[Optional[str]] = [None] * len(cells)
        if self.cache is None and self.journal is None:
            return keys, list(range(len(cells)))

        misses: List[int] = []
        for index, cell in enumerate(cells):
            key = self._cell_key(cell)
            keys[index] = key
            if key is not None and self.journal is not None:
                hit = self.journal.get_cell(key)
                if hit is not None:
                    results[index] = hit
                    self.journal_hits += 1
                    continue
                info = self.journal.get_quarantine(key)
                if info is not None:
                    self.quarantined.append(
                        Quarantine(
                            cell=str(info.get("cell", indexed_cell_name(cell, index))),
                            key=key,
                            reason=str(info.get("reason", "unknown")),
                            strikes=int(info.get("strikes", 0)),
                            detail=str(info.get("detail", "")),
                        )
                    )
                    continue
            if self.cache is not None:
                hit = self.cache.get(key) if key is not None else None
                if hit is not None:
                    results[index] = hit
                    self.cache_hits += 1
                    if self.journal is not None and key is not None:
                        self.journal.record_cell(
                            key, indexed_cell_name(cell, index), hit
                        )
                    continue
                self.cache_misses += 1
            misses.append(index)
        return keys, misses

    def _store(self, key: Optional[str], cell: Cell, summary: RunSummary) -> None:
        if self.cache is None or key is None:
            return
        _, scheduler, cfg = cell
        self.cache.put(
            key,
            summary,
            meta={
                "cell": cell_name(cell),
                "scheduler": scheduler,
                "seed": cfg.seed,
            },
        )

    def _finish(
        self,
        index: int,
        cell: Cell,
        key: Optional[str],
        summary: RunSummary,
        results: List[Optional[RunSummary]],
    ) -> None:
        """Land one computed summary: result slot, cache, journal."""
        results[index] = summary
        self._store(key, cell, summary)
        if self.journal is not None and key is not None:
            self.journal.record_cell(key, indexed_cell_name(cell, index), summary)

    def _quarantine(
        self,
        index: int,
        cell: Cell,
        key: Optional[str],
        reason: str,
        strikes: int,
        detail: str,
    ) -> None:
        """Remove one cell from the grid instead of failing it."""
        record = Quarantine(
            cell=indexed_cell_name(cell, index),
            key=key,
            reason=reason,
            strikes=strikes,
            detail=detail,
        )
        self.quarantined.append(record)
        if self.journal is not None and key is not None:
            self.journal.record_quarantine(key, record.cell, record.to_dict())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell]) -> List[Optional[RunSummary]]:
        """Run cells (in order); parallel when jobs and cells allow.

        Builders must be picklable for ``jobs > 1`` — module-level
        functions or :func:`functools.partial` over them, which is what
        every figure module provides.

        Cells whose worker fails (an exception in the cell, or a crash
        that breaks the whole pool) are re-run serially in this process
        — determinism makes the retry result identical to what the
        worker would have produced.  Cells failing the retry too raise
        one aggregated :class:`ParallelExecutionError`.

        Timeout-class failures never take that path: a cell that blew
        the simulated epoch cap (:class:`SimulationTimeout`) or
        repeatedly blew its wall-clock deadline is *quarantined* — its
        slot in the returned list is ``None`` and the details land in
        :attr:`quarantined` (and the journal, when one is attached).
        Grids without deadlines, caps or faults keep the historical
        all-summaries guarantee.
        """
        self.retried_cells = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.journal_hits = 0
        self.quarantined = []
        self._fid_memo = {}
        self._key_memo = {}
        if self.engine is not None:
            cells = [
                (builder, scheduler, dataclasses.replace(cfg, engine=self.engine))
                for builder, scheduler, cfg in cells
            ]
        results: List[Optional[RunSummary]] = [None] * len(cells)
        try:
            keys, misses = self._lookup(cells, results)
            if self.jobs <= 1 or len(misses) <= 1:
                for index in misses:
                    self._check_shutdown()
                    summary = self._attempt_cell(index, cells[index], keys[index])
                    if summary is not None:
                        self._finish(index, cells[index], keys[index], summary, results)
            else:
                self._run_parallel(cells, keys, misses, results)
        finally:
            self.total_cache_hits += self.cache_hits
            self.total_cache_misses += self.cache_misses
            self.total_journal_hits += self.journal_hits
            self.total_retried_cells.extend(self.retried_cells)
            self.total_quarantined.extend(self.quarantined)
        return results

    def _check_shutdown(self) -> None:
        if self.shutdown is not None:
            self.shutdown.check()

    def _execute_attempt(self, cell: Cell, key: Optional[str]) -> RunSummary:
        """One in-parent attempt at a cell, deadline- and shutdown-aware."""
        builder, scheduler, cfg = cell
        deadline_s = self.deadline.deadline_s if self.deadline is not None else None
        if self.checkpoint_dir is not None:
            from repro.recovery.checkpoint import execute_cell_resumable
            from repro.recovery.shutdown import ShutdownRequested

            if self.shutdown is not None:
                # Deferred: a signal sets the flag, the run loop stops
                # at the next epoch boundary, and the cell checkpoints
                # itself before we surface the shutdown.
                with self.shutdown.deferred():
                    with alarm_guard(deadline_s):
                        summary = execute_cell_resumable(
                            builder,
                            scheduler,
                            cfg,
                            self.checkpoint_dir,
                            key,
                            stop_check=self.shutdown.is_requested,
                        )
                if summary is None:  # interrupted; snapshot is on disk
                    raise ShutdownRequested(self.shutdown.signum or 15)
                return summary
            with alarm_guard(deadline_s):
                summary = execute_cell_resumable(
                    builder, scheduler, cfg, self.checkpoint_dir, key
                )
            assert summary is not None  # no stop_check: cannot interrupt
            return summary
        with alarm_guard(deadline_s):
            return execute_cell(builder, scheduler, cfg)

    def _attempt_cell(
        self,
        index: int,
        cell: Cell,
        key: Optional[str],
        prior_strikes: int = 0,
    ) -> Optional[RunSummary]:
        """Run one cell in the parent with the full strike discipline.

        Returns the summary, or ``None`` after quarantining the cell.
        Non-timeout exceptions propagate (callers decide whether that
        is fatal or feeds the crash-retry bookkeeping).
        """
        policy = self.deadline
        max_strikes = policy.max_strikes if policy is not None else 1
        strikes = prior_strikes
        while True:
            try:
                return self._execute_attempt(cell, key)
            except SimulationTimeout as exc:
                self._quarantine(
                    index, cell, key, "sim_timeout", strikes + 1, str(exc)
                )
                return None
            except CellDeadlineExceeded as exc:
                strikes += 1
                if strikes >= max_strikes:
                    self._quarantine(index, cell, key, "deadline", strikes, str(exc))
                    return None
                time.sleep(policy.backoff_s(strikes))
                self._check_shutdown()

    def _pack_chunk(
        self, cells: Sequence[Cell], chunk: Sequence[int]
    ) -> Tuple[List[ScenarioBuilder], List[Tuple[int, str, ScenarioConfig]]]:
        """Dedupe builders for one chunk's submission payload.

        Builders are deduplicated by fingerprint when provable (two
        equal ``partial`` objects collapse onto the first instance —
        the fingerprint guarantees the same code path and bound
        arguments) and by object identity otherwise, so the chunk
        pickles each distinct builder once.
        """
        builders: List[ScenarioBuilder] = []
        slots: Dict[object, int] = {}
        packed: List[Tuple[int, str, ScenarioConfig]] = []
        for index in chunk:
            builder, scheduler, cfg = cells[index]
            fid = self._builder_fid(builder)
            dedupe_key: object = fid if fid is not None else id(builder)
            slot = slots.get(dedupe_key)
            if slot is None:
                slot = slots[dedupe_key] = len(builders)
                builders.append(builder)
            packed.append((slot, scheduler, cfg))
        return builders, packed

    def _run_parallel(
        self,
        cells: Sequence[Cell],
        keys: List[Optional[str]],
        misses: List[int],
        results: List[Optional[RunSummary]],
    ) -> None:
        """Dispatch chunks over one pool; fill ``results``.

        Misses go out as builder-deduplicated chunks
        (:func:`run_packed_batch_guarded`) that report per-cell
        outcomes, so quarantine, deadline retries and crash retries
        all act on single cells.
        """
        workers = min(self.jobs, len(misses))
        size = self.chunksize or _auto_chunksize(len(misses), workers)
        chunks = [misses[i : i + size] for i in range(0, len(misses), size)]
        deadline_s = self.deadline.deadline_s if self.deadline is not None else None
        failed: List[int] = []
        timeouts: Dict[int, Tuple[str, str]] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures: Dict[int, object] = {}
            for chunk_id, chunk in enumerate(chunks):
                builders, packed = self._pack_chunk(cells, chunk)
                try:
                    futures[chunk_id] = pool.submit(
                        run_packed_batch_guarded, builders, packed, deadline_s
                    )
                except BrokenProcessPool:
                    # The pool died while we were still submitting;
                    # everything not yet submitted goes to the retry.
                    failed.extend(chunk)
            for chunk_id, future in futures.items():
                chunk = chunks[chunk_id]
                try:
                    outcomes = future.result()
                except Exception:
                    failed.extend(chunk)
                else:
                    for index, (status, payload) in zip(chunk, outcomes):
                        if status == "ok":
                            self._finish(index, cells[index], keys[index], payload, results)
                        elif status == "timeout":
                            timeouts[index] = payload
                        else:
                            failed.append(index)
            pool.shutdown(wait=True)
        except BaseException:
            # Prompt teardown (ShutdownRequested, KeyboardInterrupt):
            # kill workers instead of waiting out their current cells.
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except OSError:  # pragma: no cover - already gone
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            raise

        # Timeout-class outcomes: quarantine path, never full-cost
        # serial retries.  A deterministic SimulationTimeout quarantines
        # immediately; a wall-clock overrun gets its remaining strikes
        # (with backoff) in the parent.
        for index in sorted(timeouts):
            type_name, detail = timeouts[index]
            cell = cells[index]
            if (
                type_name == "CellDeadlineExceeded"
                and self.deadline is not None
                and self.deadline.max_strikes > 1
            ):
                self._check_shutdown()
                time.sleep(self.deadline.backoff_s(1))
                summary = self._attempt_cell(index, cell, keys[index], prior_strikes=1)
                if summary is not None:
                    self._finish(index, cell, keys[index], summary, results)
            else:
                reason = "sim_timeout" if type_name == "SimulationTimeout" else "deadline"
                self._quarantine(index, cell, keys[index], reason, 1, detail)

        failed.sort()
        failures: Dict[str, BaseException] = {}
        for index in failed:
            self._check_shutdown()
            name = indexed_cell_name(cells[index], index)
            self.retried_cells.append(name)
            try:
                summary = self._attempt_cell(index, cells[index], keys[index])
            except Exception as exc:
                failures[name] = exc
            else:
                if summary is not None:
                    self._finish(index, cells[index], keys[index], summary, results)
        if failures:
            raise ParallelExecutionError(failures, total=len(cells))

    # ------------------------------------------------------------------
    # Serial-API mirrors
    # ------------------------------------------------------------------
    def compare(
        self,
        builder: ScenarioBuilder,
        cfg: ScenarioConfig,
        schedulers: Optional[Iterable[str]] = None,
    ) -> Dict[str, Optional[RunSummary]]:
        """Parallel :func:`repro.experiments.runner.compare`.

        A quarantined cell maps its scheduler to ``None`` (only
        possible when deadlines or epoch caps are in play).
        """
        names = tuple(schedulers) if schedulers is not None else SCHEDULER_NAMES
        summaries = self.run_cells([(builder, name, cfg) for name in names])
        return dict(zip(names, summaries))

    def compare_mean(
        self,
        builder: ScenarioBuilder,
        cfg: ScenarioConfig,
        schedulers: Optional[Iterable[str]] = None,
        seeds: Sequence[int] = (0, 1, 2),
        domain: str = "vm1",
    ) -> Dict[str, MeanStats]:
        """Parallel :func:`repro.experiments.runner.compare_mean`.

        The full (seed x scheduler) product fans out at once; each
        cell's config carries its seed, so the pairing is identical to
        the serial nested loop.  Quarantined cells (if any) drop out of
        the per-scheduler averages.
        """
        if not seeds:
            raise ValueError("at least one seed required")
        names = tuple(schedulers) if schedulers is not None else SCHEDULER_NAMES
        cells: List[Cell] = []
        for seed in seeds:
            seeded = dataclasses.replace(cfg, seed=seed)
            for name in names:
                cells.append((builder, name, seeded))
        summaries = self.run_cells(cells)
        return aggregate_mean_stats(names, seeds, summaries, domain)
