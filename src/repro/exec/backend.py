"""Pluggable execution backends for chunked Monte-Carlo work.

The Monte-Carlo engine decomposes every sweep into independent *chunks*
(see :mod:`repro.mc.engine`): each chunk owns a private random stream, so
chunks may execute in any order, on any worker, and still produce
bit-identical results.  A :class:`Backend` is the strategy that runs
those chunk tasks:

* :class:`SerialBackend`  -- in-process loop (the reference semantics);
* :class:`ThreadBackend`  -- :class:`~concurrent.futures.ThreadPoolExecutor`;
  overlaps only the LAPACK calls (which release the GIL): circuit
  building and device evaluation hold it;
* :class:`ProcessBackend` -- a ``fork``-started multiprocessing pool.
  Chunk closures (evaluators capture design matrices, PDKs, circuit
  builders) are *inherited* by the forked workers rather than pickled,
  so the engine's closure-based evaluator contract works unchanged.

Backends are selected by name -- ``"serial"``, ``"thread"``,
``"process"``, ``"auto"``, optionally with a worker count suffix such as
``"process:8"`` -- via :func:`resolve_backend`.  The selection cascades
``MCConfig.backend`` -> the ``REPRO_EXEC_BACKEND`` environment variable
-> ``"serial"``, so a whole pipeline can be parallelised from the shell
without touching code.

Determinism contract
--------------------
A backend never influences numeric results.  It receives fully-formed
task objects (chunk bounds + a dedicated RNG each) and must only control
*where* and *when* they run.  ``run`` returns results in task-submission
order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Protocol, runtime_checkable

from .. import telemetry
from ..errors import ReproError

__all__ = [
    "BACKEND_ENV_VAR", "Backend", "SerialBackend", "ThreadBackend",
    "ProcessBackend", "available_backends", "default_workers",
    "resolve_backend",
]

#: Environment variable consulted when no backend is selected explicitly.
BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"

#: Progress callback: ``(completed_count, total_count, task_index)``.
ProgressFn = Callable[[int, int, int], None]


def default_workers() -> int:
    """Default worker count: the machine's CPU count (at least 1)."""
    return os.cpu_count() or 1


@runtime_checkable
class Backend(Protocol):
    """Strategy for executing independent chunk tasks.

    Implementations must return results in task order and call
    ``progress(done, total, index)`` once per completed task (in
    completion order).  They must not reorder, duplicate, or drop tasks:
    the caller owns all randomness and result assembly.
    """

    name: str
    workers: int

    def run(self, fn: Callable, tasks: Sequence,
            progress: ProgressFn | None = None) -> list:
        """Apply ``fn`` to every task, returning results in task order."""
        ...  # pragma: no cover


def _run_serial(fn: Callable, tasks: Sequence,
                progress: ProgressFn | None) -> list:
    results = []
    total = len(tasks)
    for index, task in enumerate(tasks):
        results.append(fn(task))
        if progress is not None:
            progress(index + 1, total, index)
    return results


class SerialBackend:
    """Single-process, in-order execution (the reference backend)."""

    name = "serial"

    def __init__(self) -> None:
        self.workers = 1

    def run(self, fn: Callable, tasks: Sequence,
            progress: ProgressFn | None = None) -> list:
        tasks = list(tasks)
        with telemetry.span("exec.run", backend=self.name, workers=1,
                            tasks=len(tasks)):
            telemetry.counter_add("exec.tasks", len(tasks))
            return _run_serial(telemetry.bind_task(fn), tasks, progress)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialBackend()"


class ThreadBackend:
    """Thread-pool execution.

    No serialisation cost, but only partial concurrency: the LAPACK
    calls inside a chunk release the GIL, while circuit building and
    device evaluation hold it.  Each task carries its own
    :class:`numpy.random.Generator`, so no RNG state is shared between
    threads.
    """

    name = "thread"

    def __init__(self, workers: int = 0) -> None:
        self.workers = int(workers) if workers else default_workers()
        if self.workers < 1:
            raise ReproError("thread backend needs at least one worker")

    def run(self, fn: Callable, tasks: Sequence,
            progress: ProgressFn | None = None) -> list:
        tasks = list(tasks)
        total = len(tasks)
        workers = min(self.workers, total)
        with telemetry.span("exec.run", backend=self.name, workers=workers,
                            tasks=total):
            telemetry.counter_add("exec.tasks", total)
            # Captured *here*, inside the exec.run span: pool threads run
            # tasks in an empty contextvar context, so without this bind
            # every chunk span would become a parentless root.
            fn = telemetry.bind_task(fn)
            if workers <= 1 or total <= 1:
                return _run_serial(fn, tasks, progress)
            results: list = [None] * total
            with ThreadPoolExecutor(max_workers=workers) as pool:
                pending = {pool.submit(fn, task): index
                           for index, task in enumerate(tasks)}
                done_count = 0
                while pending:
                    finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in finished:
                        index = pending.pop(future)
                        results[index] = future.result()
                        done_count += 1
                        if progress is not None:
                            progress(done_count, total, index)
            return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(workers={self.workers})"


# The fork-inheritance channel of ProcessBackend: the parent stashes the
# (fn, tasks) payload here immediately before forking the pool; workers
# inherit the binding through the copied address space, so closures and
# their captured arrays never cross a pickle boundary.  Results still
# return through the normal pool pipe (plain arrays pickle fine).
# _FORK_LOCK serialises parent-side pools so two threads can't clobber
# each other's payload between assignment and fork; _FORK_OWNER records
# which process set the payload, so a forked child (different PID) can
# recognise a nested region without confusing it with a sibling pool in
# the parent (same PID), which simply waits its turn on the lock.
_FORK_PAYLOAD: tuple[Callable, list] | None = None
_FORK_OWNER = 0
_FORK_LOCK = threading.Lock()


def _invoke_inherited(index: int):
    fn, tasks = _FORK_PAYLOAD
    return index, fn(tasks[index])


class ProcessBackend:
    """Multiprocessing execution via a ``fork``-started pool.

    Falls back to :class:`ThreadBackend` where the ``fork`` start method
    is unavailable (non-POSIX platforms), and to serial execution for
    degenerate work loads (one task or one worker) where a pool would be
    pure overhead.
    """

    name = "process"

    def __init__(self, workers: int = 0) -> None:
        self.workers = int(workers) if workers else default_workers()
        if self.workers < 1:
            raise ReproError("process backend needs at least one worker")

    def run(self, fn: Callable, tasks: Sequence,
            progress: ProgressFn | None = None) -> list:
        global _FORK_PAYLOAD, _FORK_OWNER
        tasks = list(tasks)
        total = len(tasks)
        workers = min(self.workers, total)
        if "fork" not in multiprocessing.get_all_start_methods():
            return ThreadBackend(workers).run(fn, tasks, progress)
        with telemetry.span("exec.run", backend=self.name, workers=workers,
                            tasks=total):
            telemetry.counter_add("exec.tasks", total)
            # The bound callable carries a serialisable SpanContext into
            # the forked workers (closures cross the fork as inherited
            # memory), so child-side chunk spans re-parent onto this
            # exec.run span across the process boundary.
            fn = telemetry.bind_task(fn)
            if workers <= 1 or total <= 1:
                return _run_serial(fn, tasks, progress)
            if _FORK_PAYLOAD is not None and os.getpid() != _FORK_OWNER:
                # Nested parallel region: this process is itself a forked
                # worker (it inherited another pool's payload), so run the
                # inner level serially rather than oversubscribing.  A
                # sibling pool in the same process instead queues on the
                # lock below and keeps its parallelism.
                return _run_serial(fn, tasks, progress)
            context = multiprocessing.get_context("fork")
            results: list = [None] * total
            with _FORK_LOCK:
                _FORK_OWNER = os.getpid()
                _FORK_PAYLOAD = (fn, tasks)
                try:
                    with context.Pool(processes=workers) as pool:
                        done_count = 0
                        for index, value in pool.imap_unordered(
                                _invoke_inherited, range(total)):
                            results[index] = value
                            done_count += 1
                            if progress is not None:
                                progress(done_count, total, index)
                finally:
                    _FORK_PAYLOAD = None
            return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(workers={self.workers})"


def available_backends() -> dict[str, type]:
    """Name -> class mapping of the built-in backends."""
    return {"serial": SerialBackend, "thread": ThreadBackend,
            "process": ProcessBackend}


def _auto_backend(workers: int) -> "Backend":
    cpus = default_workers()
    if cpus <= 1 and not workers:
        return SerialBackend()
    if "fork" in multiprocessing.get_all_start_methods():
        return ProcessBackend(workers)
    return ThreadBackend(workers)


def resolve_backend(spec: "str | Backend | None" = None,
                    workers: int = 0) -> "Backend":
    """Resolve a backend selection to a live backend instance.

    Parameters
    ----------
    spec:
        ``None`` (consult :data:`BACKEND_ENV_VAR`, default ``"serial"``),
        an already-constructed :class:`Backend` (returned as-is), or a
        name: ``"serial"``, ``"thread"``, ``"process"``, ``"auto"``.  A
        ``":N"`` suffix pins the worker count (``"process:8"``).
    workers:
        Worker count used when the name carries no suffix; ``0`` means
        "one per CPU".

    >>> resolve_backend("serial").name
    'serial'
    >>> resolve_backend("thread:3").workers
    3
    """
    if spec is not None and not isinstance(spec, str):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, "") or "serial"
    name, _, count = spec.partition(":")
    name = name.strip().lower()
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ReproError(
                f"bad worker count in backend spec {spec!r}") from None
        if workers < 1:
            raise ReproError(f"worker count must be >= 1 in {spec!r}")
    if name == "auto":
        return _auto_backend(workers)
    try:
        cls = available_backends()[name]
    except KeyError:
        known = ", ".join(sorted(available_backends()) + ["auto"])
        raise ReproError(
            f"unknown execution backend {spec!r} (known: {known})") from None
    if cls is SerialBackend:
        if count:
            raise ReproError(
                f"the serial backend takes no worker count ({spec!r}); "
                "did you mean thread or process?")
        return SerialBackend()
    return cls(workers)
