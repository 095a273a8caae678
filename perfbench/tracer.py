"""Span recorder that times the simulator's layers from outside.

The program carries no tracing of its own for this benchmark: a
:class:`Tracer` wraps public functions and methods of ``repro`` (by
replacing the module attribute or class attribute that callers look up)
and records one span per call.  Spans are kept in flat in-memory arrays
and written once, when the benchmark ends.

A span is (name, start_ns, end_ns, parent index, phase).  Self time of
a span is its duration minus the durations of its direct children;
calls run on one thread, so children never overlap and that difference
is exactly the part of the interval no child covers.

A re-entrant call to a span already open at the top of the stack (an
override calling ``super()`` into a method that is also wrapped) is
not recorded again, so each layer counts one span per logical call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "aggregate"]


class Tracer:
    """Records spans around wrapped callables, in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.phase_idx = array("i")
        self.phases: List[str] = [""]
        self.phase = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        # Forked pool workers inherit the wrappers; their spans would be
        # lost with the worker, so they call straight through instead.
        self.enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        """Tag the spans recorded from now on (``""`` for untagged)."""
        if phase not in self.phases:
            self.phases.append(phase)
        self.phase = self.phases.index(phase)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> Optional[int]:
        """Open a span; returns its index, or None when suppressed."""
        if not self.enabled:
            return None
        name_id = self._name_id(name)
        stack = self._stack
        if stack and self.name_idx[stack[-1]] == name_id:
            return None
        idx = len(self.start)
        self.name_idx.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.phase_idx.append(self.phase)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: Optional[int]) -> None:
        if idx is None:
            return
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        on_result: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A wrapper recording a span per call of ``fn``.

        ``name`` may be a callable of the call's arguments, for spans
        named after an argument (``xen.run.<scheduler>``).
        ``on_result(result, *args, **kwargs)`` sees each return value.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            idx = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def patch_function(
        self,
        module: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``module.attr`` everywhere it is bound in its package.

        Every loaded module of the same top-level package holding the
        same object (``from x import f``) gets the same wrapper, so the
        span is recorded whichever binding the caller uses.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_result)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(
        self,
        base: type,
        attr: str,
        name: "str | Callable[..., str]",
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass overriding it."""
        for cls in [base, *_subclasses(base)]:
            if attr in vars(cls):
                self._set(cls, attr, self.wrap(vars(cls)[attr], name, on_result))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Restore every attribute this tracer replaced (reverse order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def write_tsv(self, path: "os.PathLike[str] | str") -> None:
        """Write every span once: name, phase, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tphase\tstart_ns\tend_ns\tparent\n")
            names, phases = self.names, self.phases
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_idx[i]]}\t{phases[self.phase_idx[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                )


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def aggregate(tracer: Tracer) -> Dict[Tuple[str, str], List[float]]:
    """Per (name, phase): [calls, total seconds, self seconds].

    Self time is each span's duration minus its direct children's; it
    is never negative because children close before their parent.
    """
    n = len(tracer.start)
    child_ns = [0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child_ns[p] += tracer.end[i] - tracer.start[i]
    out: Dict[Tuple[str, str], List[float]] = {}
    for i in range(n):
        key = (tracer.names[tracer.name_idx[i]], tracer.phases[tracer.phase_idx[i]])
        dur = tracer.end[i] - tracer.start[i]
        row = out.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur * 1e-9
        row[2] += (dur - child_ns[i]) * 1e-9
    return out
