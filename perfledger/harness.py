"""Measurement core: host-speed kernels, timed loop, statistics, set-up
probes and the per-run record.

Every timing the benchmark reports is taken at a *reference host
speed*.  The shared host this benchmark was built on changes speed by
up to a third from one minute to the next, with CPU time equal to wall
time and no steal, so the program's own wall times cannot tell a
slower program from a slower host.  A fixed kernel that runs no program
code is timed between measured segments, and each segment's wall time
is scaled by ``reference / kernel time`` around it.  Raw wall times are
kept beside the scaled ones in the printed lines and in the run record.

Two kernels match the two kinds of work measured:

* :class:`ComputeKernel` -- five stacked 1000 x 12 x 12 complex
  ``np.linalg.solve`` calls, the shape of one frequency point of the
  OTA's AC sweep -- for ops that run inside the benchmark process, in
  as many threads at once as the workload has load threads;
* :class:`SpawnKernel` -- a fresh ``python -c "import numpy"`` -- for
  fresh-process timings (``setup_s``, the cli-cold spawns), which the
  compute kernel tracks poorly: process start and library loading slow
  down with the host differently from LAPACK.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Percentiles op_tail_s may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

#: Ops that must lie beyond a reported tail.
TAIL_BEYOND = 10


class CheckFailed(Exception):
    """A correctness check of the workload's outputs did not hold."""


# -- host speed -------------------------------------------------------------
class ComputeKernel:
    """In-process LAPACK kernel; :meth:`time` returns seconds.

    With ``threads=2`` two copies run at once, one per CPU, for a
    workload whose two load threads keep both CPUs busy: a neighbour
    that slows only one CPU slows such a workload, but not a
    one-thread kernel that the scheduler places on the other CPU.
    """

    #: Kernel time [s] per thread count that defines the reference host
    #: speed: the median on the 2-CPU Xeon host the bounds were
    #: measured on.
    REFERENCE = {1: 0.020, 2: 0.025}
    passes = 3

    def __init__(self, threads: int = 1) -> None:
        self.threads = threads
        self.reference = self.REFERENCE[threads]
        # Filled one 1000 x 12 x 12 stack at a time, so building the
        # kernel needs no temporaries larger than one stack: the kernel
        # holds 12.5 MB (11.9 MiB), and the benchmark's own memory should
        # not set the workload's peak RSS.
        rng = np.random.default_rng(12345)
        self.matrices = np.empty((5, 1000, 12, 12), dtype=complex)
        self.rhs = np.empty((5, 1000, 12, 1), dtype=complex)
        for array in (self.matrices, self.rhs):
            for stack in array:
                stack.real = rng.standard_normal(stack.shape)
                stack.imag = rng.standard_normal(stack.shape)
        self.matrices += 12.0 * np.eye(12)
        self.time()  # first call pays LAPACK's lazy set-up

    def _passes(self) -> None:
        for _ in range(self.passes):
            for k in range(self.matrices.shape[0]):
                np.linalg.solve(self.matrices[k], self.rhs[k])

    def time(self) -> float:
        """Mean wall time of one kernel pass (in every thread) over
        :attr:`passes` passes."""
        helpers = [threading.Thread(target=self._passes)
                   for _ in range(self.threads - 1)]
        start = time.perf_counter()
        for helper in helpers:
            helper.start()
        self._passes()
        for helper in helpers:
            helper.join()
        return (time.perf_counter() - start) / self.passes


class SpawnKernel:
    """A fresh interpreter that imports numpy and exits."""

    reference = 0.150

    def __init__(self, env: dict, passes: int = 2) -> None:
        self.env = env
        self.passes = passes
        self.time()

    def time(self) -> float:
        start = time.perf_counter()
        for _ in range(self.passes):
            subprocess.run([sys.executable, "-c", "import numpy"],
                           env=self.env, check=True)
        return (time.perf_counter() - start) / self.passes


def derived_seed(seed: int, index: int) -> int:
    """The seed of input ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# -- per-op records ---------------------------------------------------------
@dataclass
class Op:
    """One operation as a workload reports it.

    ``seconds`` is raw wall time; the harness adds ``scale`` (reference
    kernel time over local kernel time) after the segment.  On traced
    ops, ``layers`` holds the times of named layers -- spans around a
    call or stage -- that ``trace.coverage`` adds up against the op;
    ``times`` holds other per-op timings, among them catch-all
    self-times that would make the coverage 1 by construction; both in
    raw seconds.  ``counts`` holds per-op counts and ratios.
    """

    seconds: float
    units: float = 0.0
    kind: str = ""
    failed: bool = False
    error: str = ""
    known_defect: str = ""
    traced: bool = False
    layers: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    scale: float = 1.0

    @property
    def norm(self) -> float:
        return self.seconds * self.scale


@dataclass
class Segment:
    """A timed call to ``Workload.segment``: one op, or a batch of
    concurrent ops for the service workload."""

    wall: float
    scale: float
    kernel_s: float
    ops: list


def run_segments(workload, kernel, seconds: float, *, traced: bool,
                 min_ops: int) -> list[Segment]:
    """Alternate kernel and workload segments for ``seconds``.

    At least ``min_ops`` ops and ``workload.min_segments`` segments run
    whatever the clock says, so the tail and the correctness checks
    always have the ops they need, and the run ends on a multiple of
    ``workload.cycle`` segments, so every kind of op in a workload's
    rotation (or both ops of a traced/untraced pair) is equally often
    in it.  In a traced run,
    even segments are traced and odd ones are not, so the tracing
    overhead is measured under the same host conditions.
    """
    before = kernel.time()
    segments = []
    deadline = time.perf_counter() + seconds
    index = ops_done = 0
    while (time.perf_counter() < deadline or ops_done < min_ops
           or index < workload.min_segments or index % workload.cycle):
        trace_this = traced and index % 2 == 0
        # Each segment starts from a collected heap, so garbage left by
        # the one before does not land in its time.
        gc.collect()
        start = time.perf_counter()
        ops = workload.segment(index, trace_this)
        wall = time.perf_counter() - start
        after = kernel.time()
        local = 0.5 * (before + after)
        scale = kernel.reference / local
        for op in ops:
            op.scale = scale
            op.traced = trace_this
        segments.append(Segment(wall, scale, local, ops))
        before = after
        index += 1
        ops_done += len(ops)
    return segments


# -- statistics -------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values, q: float) -> tuple[int, float]:
    """Nearest-rank ``q``-th percentile: (0-based rank, value)."""
    n = len(sorted_values)
    rank = max(0, math.ceil(q / 100.0 * n) - 1)
    return rank, sorted_values[rank]


def tail(values, failures: int = 0) -> tuple[float, float] | None:
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`TAIL_BEYOND` ops beyond it: ``(percentile, value)``.

    ``values`` are completed-op times; each failed op sorts beyond every
    completed one.  The reported value is always a completed op's time
    and at least ten ops (completed or failed) rank beyond it; ``None``
    when no percentile qualifies.
    """
    ordered = sorted(values) + [math.inf] * failures
    for q in TAIL_LADDER:
        rank, value = percentile(ordered, q)
        if math.isfinite(value) and len(ordered) - 1 - rank >= TAIL_BEYOND:
            return q, value
    return None


def layer_means(ops) -> dict:
    """Per-op mean of every layer time (at reference speed) and count,
    each over the ops that report it."""
    sums: dict = defaultdict(float)
    seen: dict = defaultdict(int)
    for op in ops:
        for name, seconds in {**op.layers, **op.times}.items():
            sums[name] += seconds * op.scale
            seen[name] += 1
        for name, count in op.counts.items():
            sums[name] += count
            seen[name] += 1
    return {name: sums[name] / seen[name] for name in sums}


# -- set-up probes ----------------------------------------------------------
def pinned_environment(root: Path) -> dict:
    """Environment of every process the benchmark starts: one BLAS
    thread, the checkout's ``src`` on the import path."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_TELEMETRY", None)
    env.pop("REPRO_EXEC_BACKEND", None)
    return env


def probe_setups(root: Path, workload: str, seed: int, count: int,
                 timeout: float = 120.0) -> list[tuple[float, float]]:
    """Time ``count`` fresh-process set-ups: ``(raw_s, scale)`` each.

    A probe is ``run.py --setup-probe``: interpreter start, imports,
    inputs from the seed and one warm-up op, then a ``READY`` line.  The
    time runs from spawn to that line; the host-speed kernel is timed
    between probes, as between ops (the spawn kernel, twice a gap).
    """
    env = pinned_environment(root)
    kernel = SpawnKernel(env)
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(seed),
               "--setup-probe"]
    before = kernel.time()
    results = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=root, env=env,
                                stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "READY":
            raise CheckFailed(f"set-up probe exited {code} "
                              f"before ready ({line.strip()!r})")
        after = kernel.time()
        results.append((elapsed,
                        kernel.reference / (0.5 * (before + after))))
        before = after
    return results


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS mark (``VmHWM``) from its current
    RSS, so a transient peak of the benchmark's own set-up does not
    count; ``False`` where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak RSS of this process [MiB] since :func:`reset_peak_rss`:
    ``VmHWM``, or ``ru_maxrss`` (the lifetime peak) without ``/proc``."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the run record -----------------------------------------------------------
def host_fingerprint() -> dict:
    """CPU count, platform and the numpy/BLAS build."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        for name in ("blas", "lapack"):
            entry = config.get("Build Dependencies", {}).get(name, {})
            blas[name] = {key: entry.get(key) for key in
                          ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        blas = {"info": "numpy too old for show_config(mode='dicts')"}
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or a marker when it is not a git repo."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown (no git)"


def write_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True,
                              default=float) + "\n")
    os.replace(tmp, path)
