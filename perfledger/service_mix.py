"""service-mix: two closed-loop clients over an in-process ``JobQueue``.

Why this workload: cache hits bypass ``analysis`` entirely, so the
``cache``/``service``/``workload`` overhead sets ``op_p50_s``, and misses
set ``op_tail_s``.  Stores run beside hits, so a gain for reads that
costs writes shows up.

Two client threads share one ``JobQueue(workers=2)`` over a
``ResultCache`` that is fresh for each run.  Each sends its next request
only when the previous one has returned (a closed loop).  One segment is
one cycle of 48 requests in a fixed mix, shuffled from the seed:

=========  =====  ==================================================
kind       share  request
=========  =====  ==================================================
repeat     40/48  an ``estimate`` completed in an earlier cycle (hit)
estimate   3/48   a new 100-lane ``estimate`` (miss, then store)
corners    2/48   a new 45-lane PVT ``corners`` sweep
lint       2/48   ``lint`` of a new RC-ladder netlist
rare       1/48   a new high-sigma ``rare`` estimate
=========  =====  ==================================================

The shares put both reported percentiles inside one kind of job:
``op_p50_s`` near the middle of the hits and ``op_tail_s`` (p95, since
failed ``rare`` jobs fill the top 2 %) near the middle of the
``estimate`` misses.  With 8 hits in 16, the median sat on the edge
between hits and ``lint`` jobs, whose stores slow down as the cache
fills, and drifted from 5 to 14 ms within one minute-long run.

One op is one job, timed from submit to result.  Every ``rare`` job
fails today (known defect ``rare-progress-typeerror``); it stays in the
mix and counts as attempted and failed.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import numpy as np

from harness import CheckFailed, Op
from layers import traced_events

CYCLE = ("repeat",) * 40 + ("estimate",) * 3 + ("corners",) * 2 \
    + ("lint",) * 2 + ("rare",)
CLIENTS = 2

#: The OTA every request perturbs (natural units).
BASE_DESIGN = {"w1": 3e-05, "l1": 1e-06, "w2": 6e-05, "l2": 1e-06,
               "w3": 1e-05, "l3": 2e-06, "w4": 2e-05, "l4": 2e-06}

RARE_DEFECT = "rare-progress-typeerror"


def _design(rng) -> dict:
    return {name: value * float(1.0 + 0.1 * rng.uniform(-1.0, 1.0))
            for name, value in BASE_DESIGN.items()}


def _netlist(rng, stages: int = 4) -> str:
    lines = [f"* RC ladder, {stages} stages", "VIN n0 0 DC 0 AC 1"]
    for k in range(1, stages + 1):
        lines.append(f"R{k} n{k - 1} n{k} {rng.uniform(0.5, 5.0):.4f}k")
        lines.append(f"C{k} n{k} 0 {rng.uniform(0.1, 2.0):.4f}n")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def new_request(kind: str, rng) -> dict:
    """A fresh request of ``kind`` (not ``repeat``) drawn from ``rng``."""
    if kind == "estimate":
        return {"kind": "estimate", "design": _design(rng),
                "n_samples": 100, "chunk_lanes": 100,
                "seed": int(rng.integers(1 << 30))}
    if kind == "corners":
        return {"kind": "corners", "design": _design(rng)}
    if kind == "lint":
        return {"kind": "lint", "netlist": _netlist(rng)}
    if kind == "rare":
        return {"kind": "rare", "design": _design(rng),
                "n_per_level": 50, "n_final": 100, "chunk_lanes": 50,
                "seed": int(rng.integers(1 << 30))}
    raise ValueError(kind)


def is_rare_defect(kind: str, error: str) -> bool:
    """The known failure: ``rare`` calls ``progress(stage, done, total)``
    but the queue's callback takes ``(done, total)``."""
    return (kind == "rare" and "TypeError" in error
            and "positional argument" in error)


class ServiceMix:
    name = "service-mix"
    kernel = "compute"
    kernel_threads = CLIENTS
    unit = "jobs"
    has_tail = True
    setups = 5
    cycle = 1
    min_segments = 2

    def setup(self, seed: int, workdir, statcheck) -> None:
        from repro import telemetry
        from repro.cache import ResultCache
        from repro.errors import WorkloadError
        from repro.service import JobQueue, workload_from_request
        self.seed = seed
        self.workdir = workdir
        self.registry = telemetry.REGISTRY
        self.workload_error = WorkloadError
        self.to_workload = workload_from_request
        self.queue = JobQueue(workers=2, cache=ResultCache(workdir / "cache"))
        self.stored: dict[str, dict] = {}
        self.mismatched_hits: list[str] = []
        self.repeatable: list[dict] = []
        self.cache_before = self._cache_counts()
        # Warm-up op: the first estimate, which cycle 0 repeats.
        request = new_request("estimate", np.random.default_rng([seed]))
        op, _ = self._job("estimate", request, None)
        if op.failed:
            raise CheckFailed(f"warm-up estimate failed: {op.error}")
        self.repeatable.append(request)

    def _cache_counts(self) -> Counter:
        return Counter({name: self.registry.counter_value(f"cache.{name}")
                        for name in ("hits", "misses", "stores")})

    def _schedule(self, index: int) -> list[tuple[str, dict]]:
        rng = np.random.default_rng([self.seed, index])
        kinds = [CYCLE[k] for k in rng.permutation(len(CYCLE))]
        schedule = []
        for kind in kinds:
            if kind == "repeat":
                pick = int(rng.integers(len(self.repeatable)))
                schedule.append((kind, self.repeatable[pick]))
            else:
                schedule.append((kind, new_request(kind, rng)))
        return schedule

    def _job(self, kind: str, request: dict, submitted: dict | None
             ) -> tuple[Op, str]:
        """Submit one request and wait for it: ``(op, job id)``.
        ``submitted`` collects the wall-clock submit time by job id for
        the trace."""
        workload = self.to_workload(request)
        start = time.perf_counter()
        job_id = self.queue.submit(workload)
        if submitted is not None:
            submitted[job_id] = time.time()
        try:
            result = self.queue.result(job_id, timeout=120)
        except self.workload_error as error:
            text = str(error)
            return Op(time.perf_counter() - start, kind=kind, failed=True,
                      error=text.strip().splitlines()[-1],
                      known_defect=RARE_DEFECT
                      if is_rare_defect(kind, text) else ""), job_id
        op = Op(time.perf_counter() - start, units=1, kind=kind)
        self._check_hit(result)
        return op, job_id

    def _check_hit(self, result) -> None:
        """Every hit is bit-identical to the miss that stored it."""
        arrays = {name: np.asarray(value).tobytes()
                  for name, value in result.arrays.items()}
        if not result.cache_hit:
            self.stored[result.key] = arrays
        elif self.stored.get(result.key) != arrays:
            self.mismatched_hits.append(result.key)

    def segment(self, index: int, traced: bool) -> list[Op]:
        schedule = self._schedule(index)
        done: list = [None] * len(schedule)
        submitted: dict = {}
        lock = threading.Lock()
        cursor = iter(range(len(schedule)))

        def client():
            while True:
                with lock:
                    slot = next(cursor, None)
                if slot is None:
                    return
                kind, request = schedule[slot]
                done[slot] = self._job(kind, request, submitted)

        def run_clients():
            threads = [threading.Thread(target=client)
                       for _ in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        if traced:
            with traced_events(self.workdir / "service.jsonl") as events:
                run_clients()
            self._attach_trace(done, events, submitted)
        else:
            run_clients()
        self.repeatable.extend(request for kind, request in schedule
                               if kind == "estimate")
        return [op for op, _ in done]

    @staticmethod
    def _attach_trace(done, events, submitted) -> None:
        """Queue wait (submit to ``job.run`` open) and run time per job."""
        opened = {}
        for event in events:
            if event.get("name") != "job.run":
                continue
            job_id = event["attrs"]["id"]
            if event["type"] == "span_open":
                opened[job_id] = event["t"]
            elif event["type"] == "span_close":
                opened[job_id] = (opened[job_id], event["elapsed"])
        for op, job_id in done:
            start, elapsed = opened[job_id]
            wait = start - submitted[job_id]
            op.layers = {f"service.wait_s.{op.kind}": wait,
                         f"service.run_s.{op.kind}": elapsed}
            op.counts[f"jobs.failed.{op.kind}"] = int(op.failed)
            if op.kind == "repeat":
                op.times["cache.hit_s"] = op.seconds

    def finish(self, traced: bool, ops) -> dict:
        if self.mismatched_hits:
            raise CheckFailed(f"{len(self.mismatched_hits)} cache hit(s) "
                              f"differ from the miss that stored them")
        counts = self._cache_counts() - self.cache_before
        cycles = len(ops) / len(CYCLE)
        hits = counts["hits"]
        lookups = hits + counts["misses"]
        layers = {f"cache.{name}": counts[name] / cycles
                  for name in ("hits", "misses", "stores")}
        layers["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        rare = [op for op in ops if op.kind == "rare"]
        return {
            "layers": layers,
            "notes": {"cache_counts": dict(counts), "cycles": cycles,
                      "hits_checked": hits},
            "defects": [{
                "id": RARE_DEFECT,
                "workload": self.name,
                "detail": "yieldmodel/rare.py calls progress(stage, done, "
                          "total); the JobQueue callback takes (done, "
                          "total), so every rare job fails with TypeError",
                "attempted": len(rare),
                "failed": sum(op.known_defect == RARE_DEFECT
                              for op in rare),
            }],
        }

    def close(self) -> None:
        queue = getattr(self, "queue", None)
        if queue is not None:
            queue.shutdown()
