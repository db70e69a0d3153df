"""The lane plan: the one chunk / stream / dispatch primitive.

Every lane-evaluating path of the library -- single-design and
multi-point Monte Carlo, the streaming driver, corner sweeps, surrogate
training batches, the estimator ladder's training sweep, the rare-event
levels and the importance sampler's two populations -- runs its lanes
through this module.  It has two parts:

* :func:`plan_lanes` turns ``(work units, lanes per unit, chunk_lanes,
  seed, stage key)`` into a :class:`LanePlan` of ``(start, stop, rng)``
  tasks.  A *unit* is what a caller counts progress in: a die of a
  single design, or a design point carrying ``lanes_per_unit`` lanes
  (its MC samples or its corner grid) that a chunk never splits.
* :func:`run_lanes` runs a plan on an execution backend.  It opens one
  ``mc.chunk`` span per task, adds the task's lanes to the ``mc.lanes``
  counter, reports progress in units (monotone, whatever order tasks
  finish in), and concatenates the per-task performance arrays in task
  order.  :func:`lane_parts` is the same without the concatenation; the
  streaming driver folds those parts as they arrive, round by round.

Stream keys
-----------
The plan owns the stream derivation and keeps the stream keys of the
hand-rolled chunk loops it replaced, so every population is
bit-identical to theirs:

* with a ``stage`` key, task ``i`` draws from
  ``child_streams(seed, stage, n_tasks)[i]`` (children are prefix-stable);
* ``single_stream=True`` keeps single-design MC's historical
  ``stream(seed, stage)`` when the plan has one task;
* without a ``stage`` the tasks carry ``None`` -- corner sweeps draw no
  randomness, and sigma-coordinate sweeps with mismatch off draw none.

Since no task ever consumes another task's stream, a plan's result is
bit-identical on every backend and worker count; the chunk geometry
(``chunk_lanes``) is part of the population's identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..errors import ReproError
from ..process.pdk import GLOBAL_DIMS
from .sampler import child_streams, stream

__all__ = ["LanePlan", "check_chunk_lanes", "plan_lanes", "run_lanes",
           "lane_parts", "evaluate_sigma_lanes"]


def check_chunk_lanes(chunk_lanes: int, owner: str = "chunk_lanes",
                      error: type[ReproError] = ReproError) -> None:
    """Validate a lane bound: every ``chunk_lanes`` knob must be >= 1.

    Configs call this at construction (raising their own ``error``
    type), so a bad bound fails where it is set, not inside a sweep.
    """
    if chunk_lanes < 1:
        raise error(f"{owner} must be >= 1, got {chunk_lanes}")


@dataclass(frozen=True)
class LanePlan:
    """Chunk tasks ``(start, stop, rng)`` over ``units`` work units.

    ``lanes_per_unit`` is ``None`` for single-lane units (results are
    ``(units,)`` arrays) and an int for point units (results are
    ``(units, lanes_per_unit)`` arrays).
    """

    tasks: tuple
    units: int
    lanes_per_unit: int | None = None

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, index: slice) -> "LanePlan":
        """A sub-plan of consecutive tasks (streams unchanged)."""
        tasks = self.tasks[index]
        units = sum(stop - start for start, stop, _ in tasks)
        return LanePlan(tasks, units, self.lanes_per_unit)

    def lanes(self, start: int, stop: int) -> int:
        """Batch lanes of the units ``[start, stop)``."""
        return (stop - start) * (self.lanes_per_unit or 1)


def plan_lanes(units: int, chunk_lanes: int, *,
               lanes_per_unit: int | None = None,
               seed: int = 0, stage: str | None = None,
               single_stream: bool = False) -> LanePlan:
    """Split ``units`` into tasks of at most ``chunk_lanes`` lanes.

    A point unit is atomic, so a task holds at least one point even when
    ``lanes_per_unit > chunk_lanes``.  See the module docstring for the
    stream each task carries.
    """
    check_chunk_lanes(chunk_lanes)
    per_task = max(1, chunk_lanes // (lanes_per_unit or 1))
    n_tasks = -(-units // per_task)
    if stage is None:
        rngs = [None] * n_tasks
    elif single_stream and n_tasks == 1:
        rngs = [stream(seed, stage)]
    else:
        rngs = child_streams(seed, stage, n_tasks)
    tasks = tuple((i * per_task, min((i + 1) * per_task, units), rngs[i])
                  for i in range(n_tasks))
    return LanePlan(tasks, units, lanes_per_unit)


def lane_parts(plan: LanePlan, run_task, backend, progress=None) -> list:
    """Run every task of ``plan``; return the per-task results in order.

    ``run_task(task)`` returns a mapping name -> array for its lanes;
    each array is normalised to float, shaped ``(lanes,)`` or
    ``(points, lanes_per_unit)``.  ``progress(units_done, units_total)``
    is called once per completed task.
    """

    def run_chunk(task):
        start, stop, _ = task
        lanes = plan.lanes(start, stop)
        with telemetry.span("mc.chunk", lanes=lanes, start=start):
            telemetry.counter_add("mc.lanes", lanes)
            shape = (-1,) if plan.lanes_per_unit is None \
                else (stop - start, plan.lanes_per_unit)
            return {name: np.asarray(values, dtype=float).reshape(shape)
                    for name, values in run_task(task).items()}

    on_done = None
    if progress is not None:
        units_done = 0

        def on_done(_done, _total, index):
            nonlocal units_done
            start, stop, _ = plan.tasks[index]
            units_done += stop - start
            progress(units_done, plan.units)

    return backend.run(run_chunk, plan.tasks, progress=on_done)


def run_lanes(plan: LanePlan, run_task, backend,
              progress=None) -> dict[str, np.ndarray]:
    """Run ``plan`` and concatenate its results along the unit axis
    (``{}`` for an empty plan)."""
    parts = lane_parts(plan, run_task, backend, progress)
    if not parts:
        return {}
    return {name: np.concatenate([part[name] for part in parts])
            for name in parts[0]}


def evaluate_sigma_lanes(evaluator, pdk, x, *, seed: int, stage: str,
                         include_mismatch: bool, chunk_lanes: int, backend,
                         points=None, progress=None
                         ) -> dict[str, np.ndarray]:
    """Evaluate a design at explicit sigma-unit process coordinates.

    The shared sweep of the surrogate trainer, the estimator ladder and
    the rare-event estimator.  With mismatch on, task ``i`` draws its
    local mismatch from child ``i`` of ``(seed, stage)``.

    Single form (``points is None``): ``x`` is ``(N, dims)`` and
    ``evaluator(sample)`` returns name -> ``(N,)``.  Points form:
    ``x`` is ``(E, T, dims)``, ``points`` the ``(E,)`` point indices,
    and ``evaluator(point_indices, T, sample)`` returns name ->
    ``(E, T)`` with each point's ``T`` lanes in order.

    ``progress(chunks_done, chunks_total)`` is called once per
    completed chunk.
    """
    x = np.asarray(x, dtype=float)
    per_point = None if points is None else x.shape[1]
    plan = plan_lanes(x.shape[0], chunk_lanes, lanes_per_unit=per_point,
                      seed=seed, stage=stage if include_mismatch else None)

    def run_task(task):
        start, stop, rng = task
        sample = pdk.sample_from_sigma(
            x[start:stop].reshape(-1, len(GLOBAL_DIMS)), rng=rng,
            include_mismatch=include_mismatch)
        if points is None:
            return evaluator(sample)
        return evaluator(points[start:stop], per_point, sample)

    on_units = None
    if progress is not None:
        chunks = itertools.count(1)

        def on_units(_units_done, _units_total):
            progress(next(chunks), len(plan))

    return run_lanes(plan, run_task, backend, on_units)
