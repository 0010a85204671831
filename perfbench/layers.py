"""Per-layer tracing from outside the program.

The traced run swaps public callables of the ``repro`` packages for timed
wrappers, runs the workload, and puts every original back.  Nothing under
``src/`` knows it is being measured.

Each wrapper records one span per call on a per-thread stack.  A layer's
*self time* is the sum of its spans' durations minus the part covered by
child spans (wrapped calls made from inside it), so the self times of all
layers on one thread add up to the time spent inside wrapped calls.
Several callables may feed one layer (the python cycle loop is reached
through ``Pipeline.run`` and, on a compiled-backend fallback, directly
through ``Pipeline._run_cycles``).

Counters are recorded at the same boundaries: calls of a layer, and
derived counts (committed instructions, refused pipelines, store hits).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

class Recorder:
    """Span self times and counters, aggregated in memory.

    ``enabled`` can be cleared to let wrapped calls pass through untimed
    (the benchmark clears it while it checks reports, so checking costs
    are not charged to the program).
    """

    def __init__(self):
        self.enabled = True
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable, after=None) -> Callable:
        """Wrap ``fn`` in a span of ``layer``; ``after(recorder, args,
        result)`` runs once the call returned normally."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            frame = [0.0]                 # time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.self_s[layer] += elapsed - frame[0]
                    self.calls[layer] += 1
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counted(self, fn: Callable, after) -> Callable:
        """Wrap ``fn`` without a span: only ``after(recorder, args, result)``
        runs, so the call's time stays with its caller's layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                after(self, args, result)
            return result

        return wrapper


@dataclass(frozen=True)
class Hook:
    """One wrapped callable.

    ``owner`` is ``"module"`` or ``"module:Class"``; ``attr`` the attribute
    replaced.  A module-level function is also replaced in every loaded
    ``repro`` module that imported it by name.  ``layer`` None means a
    counter-only wrapper (``after`` required).
    """

    owner: str
    attr: str
    layer: str | None
    after: Callable | None = None


def _committed(recorder, args, result):
    if result.finished:
        recorder.count("uarch.committed", result.stats.committed)


def _refused(recorder, args, result):
    if not result:
        recorder.count("uarch.backend.refused")


def _store_get(recorder, args, result):
    recorder.count("store.gets")
    if result is not None:
        recorder.count("store.hits")


def _store_put(recorder, args, result):
    recorder.count("store.puts")


def _store_claim(recorder, args, result):
    recorder.count("store.claims")
    if not result:
        recorder.count("store.claim_conflicts")


def _marshal_in(recorder, args, result):
    recorder.count("uarch.compiled.slices")


def _marshal_out(recorder, args, result):
    recorder.count("uarch.compiled.marshalled_out")


def _pool(recorder, args, result):
    recorder.count("harness.executors.pools")


def _functional(recorder, args, result):
    recorder.count("functional.runs")


def _submitted(recorder, args, job):
    # A coalesced submit() returns the running job with its count bumped.
    if job.submissions > 1:
        recorder.count("api.session.coalesced")


def hooks() -> list[Hook]:
    """The wrapped callables, in installation order."""
    return [
        Hook("repro.workloads.base:Workload", "build", "workloads.build"),
        Hook("repro.functional.simulator:FunctionalSimulator", "run",
             "functional.run", _functional),
        Hook("repro.core.simulator", "simulate", "core.simulate"),
        Hook("repro.uarch.core:Pipeline", "__init__", "uarch.pipeline_init"),
        Hook("repro.uarch.core:Pipeline", "run", "uarch.run", _committed),
        Hook("repro.uarch.core:Pipeline", "_run_cycles", "uarch.run"),
        Hook("repro.uarch.compiled.build", "load_kernel", "uarch.compiled.load"),
        Hook("repro.uarch.compiled.backend:CompiledBackend", "supports", None,
             _refused),
        Hook("repro.uarch.compiled.backend:CompiledBackend", "run_cycles",
             "uarch.compiled.kernel"),
        Hook("repro.uarch.compiled.marshal:KernelState", "__init__",
             "uarch.compiled.flatten"),
        Hook("repro.uarch.compiled.marshal:KernelState", "marshal_in",
             "uarch.compiled.marshal_in", _marshal_in),
        Hook("repro.uarch.compiled.marshal:KernelState", "marshal_out",
             "uarch.compiled.marshal_out", _marshal_out),
        Hook("repro.analysis.critpath", "analyze_critical_path",
             "analysis.critpath"),
        Hook("repro.harness.cache", "program_digest", "harness.digest"),
        Hook("repro.harness.executors:CostModel", "load",
             "harness.executors.costmodel"),
        Hook("repro.harness.executors:CostModel", "record",
             "harness.executors.costmodel"),
        Hook("repro.harness.executors:ProcessExecutor", "execute",
             "harness.executors.pool", _pool),
        Hook("repro.harness.experiments:ExperimentReport", "to_dict",
             "api.service.serialise"),
        Hook("repro.api.schema:JobStatus", "to_dict", "api.service.serialise"),
        Hook("repro.api.session:Session", "submit", None, _submitted),
        Hook("repro.api.fleet:FleetBroker", "wait_job", "api.fleet.commit_wait"),
        # Every workload that stores results uses the disk tier.
        Hook("repro.store.disk:DiskStore", "get", "store.get", _store_get),
        Hook("repro.store.disk:DiskStore", "put", "store.put", _store_put),
        Hook("repro.store.disk:DiskStore", "claim", "store.claim", _store_claim),
        Hook("repro.store.disk:DiskStore", "release", "store.claim"),
        Hook("repro.store.disk:DiskStore", "get_meta", "store.meta"),
        Hook("repro.store.disk:DiskStore", "merge_meta", "store.meta"),
    ]


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        # Registry entries are frozen dataclasses; the benchmark swaps an
        # attribute and puts it back, it never mutates the entry otherwise.
        object.__setattr__(owner, attr, value)


class Tracing:
    """Installs the wrappers of :func:`hooks` and removes them again.

    Use as a context manager or call :meth:`install` / :meth:`uninstall`.
    ``saved`` lists ``(owner, attr, original)`` for every replaced
    attribute, so the self-tests can check that uninstalling restores the
    very same objects.  ``missing`` names hooks whose target no longer
    exists; the benchmark prints them, because their layers then read 0.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self.saved.append((owner, attr, original))
        _assign(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every hooked callable (idempotent per instance)."""
        if self.saved:
            return
        from repro.harness.spec import list_experiments

        recorder = self.recorder
        self.missing = []
        for hook in hooks():
            owner = _resolve(hook.owner)
            source = owner.__dict__ if isinstance(owner, type) else vars(owner)
            original = source.get(hook.attr)
            if original is None:
                self.missing.append(f"{hook.owner}.{hook.attr}")
                continue
            if hook.layer is None:
                wrapper = recorder.counted(original, hook.after)
            else:
                wrapper = recorder.timed(hook.layer, original, hook.after)
            self._replace(owner, hook.attr, original, wrapper)
            if not isinstance(owner, type):
                # Rebind names imported with ``from module import fn``.
                for name, module in list(sys.modules.items()):
                    if (name.startswith("repro") and module is not owner
                            and getattr(module, hook.attr, None) is original):
                        self._replace(module, hook.attr, original, wrapper)
        for entry in list_experiments():
            if entry.reduce is not None:
                self._replace(entry, "reduce", entry.reduce,
                              recorder.timed("harness.reduce", entry.reduce))

    def uninstall(self) -> None:
        """Put every original callable back, newest replacement first."""
        while self.saved:
            owner, attr, original = self.saved.pop()
            _assign(owner, attr, original)

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
