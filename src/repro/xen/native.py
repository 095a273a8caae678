"""Native kernel for the batched engine's fused scalar replay.

:func:`fused_kernel` returns ``fused_epochs`` from the C extension built
from ``_fused.c``: a drop-in for
:meth:`~repro.xen.engine.BatchedEngine._fused_epochs` that runs the same
epochs on C doubles, bitwise equal to the Python loop (DESIGN §6).  It
returns None, and the engine keeps the pure-Python loop, when
:data:`enabled` is False or the extension cannot be built.

The extension is compiled on the first fused batch, never at import,
with the C compiler Python was configured with (or ``cc``/``gcc`` on
``PATH``).  The shared object is cached under
``$XDG_CACHE_HOME/repro/native/`` (default ``~/.cache/repro/native/``),
named by the sha256 of the source, the flags and the interpreter's
extension suffix, so a source or interpreter change builds a new file
and a stale one is never loaded.  Each build writes a temporary file and
renames it into place, so pool workers that race to build the same
kernel each load a complete file.  Any failure — no compiler, no Python
headers, an unwritable cache directory — warns once per process and
leaves the engine on Python.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import pathlib
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from typing import Callable, Iterator, Optional

__all__ = ["enabled", "forced_python", "fused_kernel", "cache_dir", "find_compiler"]

#: In-process switch: False sends every fused batch to the Python loop.
#: Tests and ``repro audit`` flip it (see :func:`forced_python`) to check
#: the two paths against each other; nothing else should.
enabled = True

SOURCE = pathlib.Path(__file__).with_name("_fused.c")
#: No FMA contraction and no fast-math: ``+ - * /`` must round exactly
#: as CPython's float operations do.
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")
LDFLAGS = ("-lm",)

_UNLOADED = object()
_kernel: object = _UNLOADED


def fused_kernel() -> Optional[Callable]:
    """``fused_epochs(state, epoch, kb)``, or None to stay on Python."""
    global _kernel
    if not enabled:
        return None
    if _kernel is _UNLOADED:
        _kernel = _load()
    return _kernel  # type: ignore[return-value]


@contextlib.contextmanager
def forced_python() -> Iterator[None]:
    """Run the enclosed code with the native kernel switched off."""
    global enabled
    saved = enabled
    enabled = False
    try:
        yield
    finally:
        enabled = saved


def cache_dir() -> pathlib.Path:
    """Where built kernels live (XDG cache directory, per user)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return pathlib.Path(base) / "repro" / "native"


def find_compiler() -> Optional[str]:
    """Path of a C compiler: Python's configured ``CC``, else cc/gcc."""
    configured = shlex.split(sysconfig.get_config_var("CC") or "")[:1]
    for name in configured + ["cc", "gcc"]:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _load() -> Optional[Callable]:
    try:
        return _build_and_import()
    except Exception as exc:  # noqa: BLE001 - any failure means Python
        warnings.warn(
            f"native fused replay unavailable, using the Python loop: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _build_and_import() -> Callable:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(
        source + "\0".join(CFLAGS + LDFLAGS).encode() + suffix.encode()
    ).hexdigest()[:16]
    target = cache_dir() / f"_fused_{digest}{suffix}"
    if not target.exists():
        _build(target)
    spec = importlib.util.spec_from_file_location("repro.xen._fused", target)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {target}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fused_epochs


def _build(target: pathlib.Path) -> None:
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    paths = sysconfig.get_paths()
    includes = sorted({paths["include"], paths["platinclude"]})
    if not any(os.path.exists(os.path.join(d, "Python.h")) for d in includes):
        raise RuntimeError("Python.h not found (install the Python headers)")
    os.makedirs(target.parent, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=".build-", suffix=target.suffix
    )
    os.close(fd)
    try:
        cmd = [compiler, *CFLAGS, *(f"-I{d}" for d in includes)]
        cmd += [str(SOURCE), "-o", tmp, *LDFLAGS]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(cmd)} failed: {proc.stderr.strip()[-400:]}"
            )
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
