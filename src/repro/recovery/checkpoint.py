"""Engine checkpoints: snapshot a live machine, resume it bitwise.

A checkpoint is taken at an *epoch boundary* — the only points where
the simulation's state is self-contained (mid-epoch there are solver
intermediates on the stack).  The snapshot serializes the full machine
object graph: scheduler state, every RNG stream's exact bit-state, the
fault injector's cursors, PMU windows, event log and profiler
counters.  The lazily-built epoch engine is deliberately *excluded*:
every engine reconstructs itself from live machine state (that is
already how ``add_domain`` invalidates it), so a restored machine
replays identically on any of the three engines — the resume-parity
matrix in ``tests/test_recovery.py`` proves it.

File format
-----------
One UTF-8 JSON header line, then the raw pickle payload::

    {"schema": "repro.checkpoint/v2", "version": ..., "config_hash":
     ..., "epoch_index": ..., "payload_sha256": ..., ...}\\n
    <pickle bytes>

The header is readable without touching the payload, carries the
result-defining :func:`~repro.obs.manifest.config_hash`, and embeds
the payload's SHA-256 so ``repro checkpoint inspect`` can detect
truncation or corruption before unpickling a byte.  Writes are atomic
(mkstemp + ``os.replace``, the same discipline as
:mod:`repro.cache.store`): a reader never observes a torn snapshot.

Versioning rule (see DESIGN.md): the pickle payload's layout is an
implementation detail of one package version, so loading is *strict* —
any schema, version or ``config_hash`` mismatch, or an engine name this
version does not support, raises :class:`CheckpointError` instead of
risking a silently-wrong resume.  A stale checkpoint costs a re-run,
never a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import tempfile
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ScenarioBuilder
    from repro.experiments.scenarios import ScenarioConfig
    from repro.metrics.collectors import RunSummary
    from repro.xen.simulator import Machine

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "save_checkpoint",
    "read_header",
    "inspect_checkpoint",
    "load_checkpoint",
    "checkpoint_path_for",
    "execute_cell_resumable",
]

#: Snapshot schema identifier.  Bump on ANY change to what the payload
#: contains or how it is produced; a bump orphans every existing
#: snapshot, which is the point (DESIGN.md "snapshot versioning").
CHECKPOINT_SCHEMA = "repro.checkpoint/v2"

#: Pickle protocol pinned explicitly so the payload bytes are a
#: deterministic function of the machine state and the schema version.
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """A snapshot that cannot be trusted: wrong schema/version/hash,
    truncated payload, or unreadable file."""


def _machine_payload(machine: "Machine") -> bytes:
    """Pickle the machine without its (reconstructible) epoch engine."""
    # Machine.__getstate__ drops the engine; pickling here is just the
    # plain protocol so third parties can torture-test snapshots.
    return pickle.dumps(machine, protocol=_PICKLE_PROTOCOL)


def save_checkpoint(machine: "Machine", path: "pathlib.Path | str") -> Dict[str, Any]:
    """Snapshot ``machine`` to ``path`` atomically; returns the header.

    Must be called at an epoch boundary — in practice: between ``run``
    calls, or from a ``stop_check`` cut (the run loop only consults it
    between epochs).
    """
    from repro import __version__
    from repro.obs.manifest import canonical_dumps, config_hash

    path = pathlib.Path(path)
    payload = _machine_payload(machine)
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "config_hash": config_hash(machine.config),
        "policy": machine.policy.name,
        "engine": machine.config.engine,
        "seed": machine.config.seed,
        "label": machine.config.label,
        "epoch_index": machine.epoch_index,
        "sim_time_s": machine.time,
        "domains": len(machine.domains),
        "vcpus": len(machine.vcpus),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".ckpt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(canonical_dumps(header).encode("utf-8") + b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return header


def read_header(path: "pathlib.Path | str") -> Dict[str, Any]:
    """Parse a snapshot's header line without reading the payload."""
    path = pathlib.Path(path)
    try:
        with path.open("rb") as fh:
            line = fh.readline()
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable: {exc}") from exc
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: not a {CHECKPOINT_SCHEMA} snapshot "
            f"(schema={header.get('schema')!r})"
            if isinstance(header, dict)
            else f"{path}: header is not an object"
        )
    return header


def _read_payload(path: pathlib.Path, header: Dict[str, Any]) -> bytes:
    try:
        with path.open("rb") as fh:
            fh.readline()  # skip header
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable payload: {exc}") from exc
    expected = header.get("payload_sha256")
    if len(payload) != header.get("payload_bytes") or (
        hashlib.sha256(payload).hexdigest() != expected
    ):
        raise CheckpointError(
            f"{path}: payload digest mismatch (truncated or corrupt snapshot)"
        )
    return payload


def inspect_checkpoint(
    path: "pathlib.Path | str", verify_payload: bool = True
) -> Dict[str, Any]:
    """Validate a snapshot; returns its header on success.

    Checks the schema, the writing package version, and (by default)
    the payload digest.  Raises :class:`CheckpointError` on any
    problem — the ``repro checkpoint inspect`` CLI maps that to a
    non-zero exit, mirroring ``repro validate`` for traces.
    """
    from repro import __version__

    path = pathlib.Path(path)
    header = read_header(path)
    if header.get("version") != __version__:
        raise CheckpointError(
            f"{path}: written by package version {header.get('version')!r}, "
            f"this is {__version__} (stale snapshot; re-run instead of resuming)"
        )
    if verify_payload:
        _read_payload(path, header)
    return header


def load_checkpoint(
    path: "pathlib.Path | str",
    expect_config_hash: Optional[str] = None,
) -> "Machine":
    """Restore a machine from a snapshot, strictly.

    ``expect_config_hash`` (when given) must equal the snapshot's
    stamped hash — the caller's way of saying "this checkpoint must
    belong to *this* run", rejecting a snapshot from a different
    scenario that happens to share a file name.
    """
    from repro.obs.manifest import config_hash
    from repro.xen.simulator import ENGINES

    path = pathlib.Path(path)
    header = inspect_checkpoint(path, verify_payload=False)
    if (
        expect_config_hash is not None
        and header.get("config_hash") != expect_config_hash
    ):
        raise CheckpointError(
            f"{path}: config_hash {header.get('config_hash')!r} does not match "
            f"expected {expect_config_hash!r} (snapshot of a different run)"
        )
    payload = _read_payload(path, header)
    try:
        machine = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(f"{path}: payload does not unpickle: {exc}") from exc
    # Defense in depth: the restored state must re-derive the stamped
    # hash, so a header edited to pass the expect check still fails.
    if config_hash(machine.config) != header.get("config_hash"):
        raise CheckpointError(
            f"{path}: restored config hashes to a different value than the "
            "header claims (corrupt or tampered snapshot)"
        )
    # The engine is outside the hash (results are engine-independent),
    # and unpickling skips SimConfig's validation: a snapshot naming an
    # engine this version no longer has would otherwise resume on
    # whatever path the unknown name falls through to.
    if machine.config.engine not in ENGINES:
        raise CheckpointError(
            f"{path}: snapshot engine {machine.config.engine!r} is not one of "
            f"{list(ENGINES)} (re-run instead of resuming)"
        )
    return machine


def checkpoint_path_for(directory: "pathlib.Path | str", key: str) -> pathlib.Path:
    """Where a grid cell's in-flight checkpoint lives."""
    return pathlib.Path(directory) / f"{key}.ckpt"


def execute_cell_resumable(
    builder: "ScenarioBuilder",
    scheduler: str,
    cfg: "ScenarioConfig",
    checkpoint_dir: "pathlib.Path | str",
    key: Optional[str],
    stop_check: Optional[Callable[[], bool]] = None,
) -> "Optional[RunSummary]":
    """Run one grid cell with checkpoint/resume around interruptions.

    The checkpoint-aware twin of
    :func:`repro.experiments.runner.execute_cell`:

    * a valid snapshot under ``checkpoint_dir`` (named by the cell's
      cache ``key``) resumes the run from its saved epoch instead of
      rebuilding from scratch;
    * when ``stop_check`` fires, the machine is snapshotted at the
      epoch boundary where it stopped and ``None`` is returned — the
      caller (the serial grid path under a
      :class:`~repro.recovery.shutdown.GracefulShutdown`) then exits
      resumable;
    * a completed run deletes its snapshot and returns the summary,
      which resume parity guarantees is identical to an uninterrupted
      run's.

    Cells without a provable identity (``key is None``) cannot name a
    snapshot, so they run straight through (still honouring
    ``stop_check``, just without persistence).
    """
    from repro.experiments.scenarios import make_scheduler
    from repro.metrics.collectors import summarize
    from repro.obs.manifest import config_hash

    path = checkpoint_path_for(checkpoint_dir, key) if key is not None else None
    machine = None
    if path is not None and path.exists():
        try:
            machine = load_checkpoint(
                path, expect_config_hash=config_hash(cfg.sim_config())
            )
        except CheckpointError:
            machine = None  # stale/corrupt snapshot: rebuild from scratch
    if machine is None:
        machine = builder(make_scheduler(scheduler), cfg)
    result = machine.run(stop_check=stop_check)
    if result.interrupted:
        if path is not None:
            save_checkpoint(machine, path)
        return None
    if path is not None:
        try:
            path.unlink()
        except OSError:
            pass
    return summarize(machine)
