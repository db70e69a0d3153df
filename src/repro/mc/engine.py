"""Monte-Carlo execution engine.

Two entry points:

* :func:`monte_carlo` -- MC on a single design: draw ``n`` die
  realisations, evaluate the (batched) performance function once, return
  per-performance sample arrays.  Used by the paper's 500-sample design
  verifications.
* :func:`monte_carlo_points` -- MC across a *set* of design points (the
  paper's 200 samples on each of 1022 Pareto points).  Points are tiled
  against fresh die samples and processed in lane-bounded chunks so the
  peak stacked-matrix memory stays constant regardless of how many points
  are swept.

Both consume evaluator callables rather than circuits, so the same engine
drives transistor-level OTAs, behavioural filters, plain functions in
tests -- or a trained surrogate bundle
(:meth:`repro.surrogate.SurrogateBundle.as_evaluator`), which swaps every
stacked MNA solve for a polynomial evaluation without touching the
engine.

Chunking, seeding, and parallelism
----------------------------------
Work is decomposed into chunks of at most ``chunk_lanes`` simultaneous
batch lanes by the lane plan (:mod:`repro.mc.lanes`).  Each chunk owns a
private child random stream spawned from ``(seed, stage-key)``, and a
chunk's evaluation touches no state outside itself.  Consequences:

* Results are **bit-reproducible** for a fixed ``MCConfig`` -- including
  ``chunk_lanes``, which fixes the chunk geometry and therefore which die
  realisation lands on which (point, sample) lane.
* Results are **invariant to the execution backend and worker count**:
  chunks may run serially, on threads, or on forked worker processes
  (:mod:`repro.exec`) and concatenate to identical arrays, because no
  chunk ever consumes another chunk's randomness.
* Changing ``chunk_lanes`` changes the sample population (a different,
  equally-valid draw), not its statistics.

Backends are selected by :attr:`MCConfig.backend`, falling back to the
``REPRO_EXEC_BACKEND`` environment variable and then serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..errors import ReproError
from ..exec import Backend, resolve_backend
from ..process.pdk import ProcessKit
from .lanes import check_chunk_lanes, plan_lanes, run_lanes

__all__ = ["MCConfig", "monte_carlo", "monte_carlo_points"]


@dataclass(frozen=True)
class MCConfig:
    """Monte-Carlo settings.

    Attributes
    ----------
    n_samples:
        Die realisations per design point (the paper uses 200 for model
        building, 500 for verification).
    seed:
        Root seed for this MC stage.
    include_global, include_mismatch:
        Enable the inter-die / intra-die statistical components.  The
        ablation benchmark flips these to show which dominates each
        performance's variation.
    chunk_lanes:
        Upper bound on simultaneous batch lanes (points x samples) per
        stacked solve.  This is the engine's **memory knob**: peak
        working memory is proportional to the per-chunk lane count
        (times the stacked MNA matrix size), never to the total sweep
        size.  One caveat: :func:`monte_carlo_points` treats each
        point's sample block as atomic, so when ``n_samples >
        chunk_lanes`` a chunk still holds one full point and the
        effective bound is ``max(chunk_lanes, n_samples)`` lanes
        (:func:`monte_carlo` has no such floor -- it slices a single
        design's samples directly).  ``chunk_lanes`` also fixes the
        chunk geometry, so two runs compare bit-for-bit only when their
        ``chunk_lanes`` match (see the module docstring).
    backend:
        Execution backend for the chunk sweep: ``"serial"``, ``"thread"``,
        ``"process"``, ``"auto"``, optionally with a ``":N"`` worker
        suffix, or a live :class:`repro.exec.Backend` instance.  ``None``
        defers to the ``REPRO_EXEC_BACKEND`` environment variable
        (default: serial).  The choice never affects numeric results.
    workers:
        Worker count for pooled backends when the spec carries no
        explicit count; ``0`` means one per CPU.
    """

    n_samples: int = 200
    seed: int = 2008
    include_global: bool = True
    include_mismatch: bool = True
    chunk_lanes: int = 4000
    backend: "str | Backend | None" = None
    workers: int = 0

    def __post_init__(self) -> None:
        # Validate at construction: a degenerate configuration used to
        # surface only deep inside the engine (a zero-lane chunk crashing
        # at ``parts[0]`` or inside ``pdk.sample``), far from the caller
        # that built it.
        if self.n_samples < 1:
            raise ReproError(
                f"MCConfig.n_samples must be >= 1, got {self.n_samples}")
        check_chunk_lanes(self.chunk_lanes, "MCConfig.chunk_lanes")
        if self.workers < 0:
            raise ReproError(
                f"MCConfig.workers must be >= 0 (0 = one per CPU), "
                f"got {self.workers}")


def _dies(pdk: ProcessKit, config: MCConfig, lanes: int, rng):
    """Draw ``lanes`` die realisations from a chunk's stream."""
    return pdk.sample(lanes, rng, include_global=config.include_global,
                      include_mismatch=config.include_mismatch)


def _single_design_lanes(evaluator, pdk: ProcessKit, config: MCConfig,
                         stage: str = "mc-single"):
    """Lane plan and chunk task of a single-design MC run.

    Shared by :func:`monte_carlo` and the streaming driver
    (:func:`repro.mc.streaming.monte_carlo_streaming`), so a streaming
    run reduces exactly the population a batch run concatenates, and an
    adaptively-stopped run reduces a prefix of it.  A one-chunk plan
    keeps the historical ``(seed, stage)`` stream, so historical seeds
    keep producing identical populations.
    """
    plan = plan_lanes(config.n_samples, config.chunk_lanes,
                      seed=config.seed, stage=stage, single_stream=True)

    def run_task(task):
        start, stop, rng = task
        return evaluator(_dies(pdk, config, stop - start, rng))

    return plan, run_task


def monte_carlo(evaluator, pdk: ProcessKit,
                config: MCConfig | None = None,
                progress=None) -> dict[str, np.ndarray]:
    """Monte Carlo on one design.

    Parameters
    ----------
    evaluator:
        Callable ``(ProcessSample) -> dict[name, (S,) array]`` that builds
        and simulates the design under the given process realisations.
    progress:
        Optional callback ``(samples_done, n_samples)``.

    Returns
    -------
    Mapping performance name -> ``(n_samples,)`` sample array.

    Notes
    -----
    When ``n_samples`` exceeds ``chunk_lanes`` the population is drawn in
    independently-seeded chunks that the configured backend may evaluate
    in parallel.  A single-chunk run (the common verification case) uses
    the same ``(seed, "mc-single")`` stream as ever, so historical seeds
    keep producing identical populations.
    """
    config = config or MCConfig()
    plan, run_task = _single_design_lanes(evaluator, pdk, config)
    backend = resolve_backend(config.backend, config.workers)
    with telemetry.span("mc.single", samples=config.n_samples,
                        chunks=len(plan)):
        return run_lanes(plan, run_task, backend, progress)


def monte_carlo_points(evaluator, n_points: int, pdk: ProcessKit,
                       config: MCConfig | None = None,
                       progress=None, *,
                       stage: str = "mc-points") -> dict[str, np.ndarray]:
    """Monte Carlo across many design points (section 3.4 of the paper).

    Parameters
    ----------
    evaluator:
        Callable ``(point_indices, repeats, ProcessSample) ->
        dict[name, (len(point_indices)*repeats,) array]``.  The engine
        passes a chunk of point indices; the evaluator must tile each
        point ``repeats`` times **in order** (point0 x S, point1 x S, ...)
        -- :meth:`repro.designs.ota.OTAParameters.tile` does exactly this.
    n_points:
        Total number of design points (K).
    progress:
        Optional callback ``(points_done, n_points)``.
    stage:
        Random-stream stage key.  Callers running several independent
        point sweeps from one root seed (e.g. the per-generation MC of
        the conventional baseline) pass distinct stage keys.

    Returns
    -------
    Mapping performance name -> ``(K, n_samples)`` array.
    """
    config = config or MCConfig()
    samples = config.n_samples
    plan = plan_lanes(n_points, config.chunk_lanes, lanes_per_unit=samples,
                      seed=config.seed, stage=stage)

    def run_task(task):
        start, stop, rng = task
        indices = np.arange(start, stop)
        return evaluator(indices, samples,
                         _dies(pdk, config, indices.size * samples, rng))

    backend = resolve_backend(config.backend, config.workers)
    with telemetry.span("mc.points", points=n_points, samples=samples,
                        stage=stage, chunks=len(plan)):
        return run_lanes(plan, run_task, backend, progress)
