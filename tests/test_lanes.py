"""Lane-plan tests: one chunk / stream / dispatch primitive.

Every lane-evaluating entry point runs through :mod:`repro.mc.lanes`,
so each one counts its lanes in ``mc.lanes`` and opens one ``mc.chunk``
span per planned chunk.  The plan itself keeps the historical stream
keys and reports progress in units, monotonically, on any backend.
"""

import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.corners import CornerGrid, corner_sweep, corner_sweep_points
from repro.errors import ReproError
from repro.exec import ThreadBackend
from repro.mc import (MCConfig, monte_carlo, monte_carlo_points,
                      monte_carlo_streaming, stream)
from repro.mc.lanes import check_chunk_lanes, plan_lanes, run_lanes
from repro.mc.sampler import child_streams
from repro.measure.specs import Spec, SpecSet
from repro.optimize import EstimatorLadder, LadderConfig
from repro.process import C35
from repro.surrogate import evaluate_sigma_batch
from repro.telemetry import load_events
from repro.yieldmodel import (ImportanceSamplingConfig,
                              estimate_yield_importance)
from repro.yieldmodel.rare import RareEventConfig, estimate_yield_rare

SPECS = SpecSet([Spec("metric", "ge", 9.0)])
GRID = CornerGrid.from_spec(C35, "all", "3.0,3.3", "27")


def metric(sample):
    return {"metric": 10.0 + 100.0 * np.asarray(sample.dvto_n)}


def points_metric(point_indices, repeats, sample):
    offsets = np.repeat(np.asarray(point_indices, dtype=float), repeats)
    return {"metric": offsets + 100.0 * np.asarray(sample.dvto_n)}


def ladder_factory(unit_params):
    return points_metric


def _mc(**overrides):
    settings = dict(n_samples=12, seed=3, chunk_lanes=5, backend="serial")
    settings.update(overrides)
    return MCConfig(**settings)


# Each case runs one entry point with a multi-chunk geometry and returns
# (lanes it simulated, chunks its plan held).
def case_monte_carlo():
    monte_carlo(metric, C35, _mc())
    return 12, 3


def case_monte_carlo_points():
    monte_carlo_points(points_metric, 3, C35, _mc(n_samples=4))
    return 12, 3


def case_monte_carlo_streaming():
    monte_carlo_streaming(metric, C35, _mc(), specs=SPECS)
    return 12, 3


def case_corner_sweep():
    corner_sweep(metric, C35, GRID, backend="serial", chunk_lanes=4)
    return GRID.size, -(-GRID.size // 4)


def case_corner_sweep_points():
    corner_sweep_points(points_metric, 3, C35, GRID, backend="serial",
                        chunk_lanes=GRID.size)
    return 3 * GRID.size, 3


def case_evaluate_sigma_batch():
    x = np.linspace(-2.0, 2.0, 60).reshape(12, 5)
    evaluate_sigma_batch(metric, C35, x, backend="serial", chunk_lanes=5)
    return 12, 3


def case_rare():
    result = estimate_yield_rare(metric, SPECS, C35, RareEventConfig(
        n_per_level=12, n_final=12, max_levels=2, seed=4, chunk_lanes=5,
        backend="serial"))
    return result.total_simulations, 3 * (result.n_levels + 1)


def case_importance():
    estimate_yield_importance(metric, SPECS, C35, ImportanceSamplingConfig(
        n_samples=10, pilot_samples=6, seed=4))
    return 16, 2


def case_ladder():
    # Unreachable decisiveness thresholds send every candidate through
    # all three rungs: corners, the surrogate training sweep, then IS.
    ladder = EstimatorLadder(ladder_factory, SPECS, C35, LadderConfig(
        surrogate_train=8, surrogate_population=50, is_pilot=4,
        is_samples=6, seed=2, include_mismatch=True, backend="serial",
        chunk_lanes=ladder_grid_size(), corner_z=1e9, surrogate_z=1e9))
    batch = ladder.estimate_batch(np.full((3, 2), 0.5))
    assert np.all(batch.fidelity == 2)
    return int(batch.sims.sum()), 3 + 3 + 2 * 3


def ladder_grid_size():
    return LadderConfig().corner_grid(C35).size


CASES = {name[len("case_"):]: fn for name, fn in globals().items()
         if name.startswith("case_")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_path_counts_its_lanes_and_chunks(name, tmp_path):
    path = tmp_path / "trace.jsonl"
    before = telemetry.REGISTRY.counter_value("mc.lanes")
    with telemetry.session(path):
        lanes, chunks = CASES[name]()
    assert telemetry.REGISTRY.counter_value("mc.lanes") - before == lanes
    opened = [event for event in load_events(path)
              if event["type"] == "span_open" and event["name"] == "mc.chunk"]
    assert len(opened) == chunks
    assert sum(event["attrs"]["lanes"] for event in opened) == lanes


class TestPlan:
    def test_child_streams_per_task(self):
        plan = plan_lanes(12, 5, seed=9, stage="k")
        assert [(start, stop) for start, stop, _ in plan.tasks] == \
            [(0, 5), (5, 10), (10, 12)]
        for (_, _, rng), child in zip(plan.tasks, child_streams(9, "k", 3),
                                      strict=True):
            assert rng.random() == child.random()

    def test_single_stream_keeps_the_stage_stream(self):
        (task,) = plan_lanes(4, 5, seed=9, stage="k",
                             single_stream=True).tasks
        assert task[2].random() == stream(9, "k").random()
        many = plan_lanes(12, 5, seed=9, stage="k", single_stream=True)
        assert many.tasks[0][2].random() == child_streams(9, "k", 3)[0].random()

    def test_no_stage_means_no_stream(self):
        assert all(rng is None for _, _, rng in plan_lanes(7, 2).tasks)

    def test_points_are_atomic(self):
        plan = plan_lanes(3, 4, lanes_per_unit=10)
        assert [(start, stop) for start, stop, _ in plan.tasks] == \
            [(0, 1), (1, 2), (2, 3)]
        assert plan.lanes(0, 3) == 30

    def test_empty_plan(self):
        plan = plan_lanes(0, 5, lanes_per_unit=4, seed=1, stage="k")
        assert len(plan) == 0
        assert run_lanes(plan, metric, ThreadBackend(2)) == {}

    @pytest.mark.parametrize("bad", [0, -3])
    def test_chunk_lanes_below_one_rejected(self, bad):
        with pytest.raises(ReproError, match="chunk_lanes must be >= 1"):
            plan_lanes(10, bad)
        with pytest.raises(ReproError, match="chunk_lanes must be >= 1"):
            check_chunk_lanes(bad)

    def test_progress_monotone_in_units_on_threads(self):
        # Later (and the short last) tasks finish first, so completion
        # order differs from task order; progress still only grows and
        # ends at the unit total.
        plan = plan_lanes(11, 3)
        finished: list[int] = []
        lock = threading.Lock()

        def run_task(task):
            start, stop, _ = task
            time.sleep(0.02 * (len(plan) - start // 3))
            with lock:
                finished.append(start)
            return {"lane": np.arange(start, stop)}

        calls: list[tuple[int, int]] = []
        result = run_lanes(plan, run_task, ThreadBackend(4),
                           progress=lambda done, total: calls.append(
                               (done, total)))
        np.testing.assert_array_equal(result["lane"], np.arange(11))
        assert finished != sorted(finished)
        done = [value for value, _ in calls]
        assert done == sorted(done) and len(set(done)) == len(done)
        assert len(calls) == len(plan)
        assert calls[-1] == (11, 11)
