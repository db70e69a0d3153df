"""flow-build: one reduced run of ``repro.flow.run_model_build_flow``.

Why this workload: the build is the paper's own product.  It runs the
same ``analysis`` layer as ota-mc, but in many small batches through
every hand-rolled chunk loop, and adds ``moo``/``tablemodel``
bookkeeping and 6-sigma rare-event tail lanes, where DC is hardest.
Lane-plan and per-lane failure-policy work shows up here, while an AC
speed-up is diluted.

Every stage that evaluates lanes is on: WBGA, MC on every front point,
the 45-lane PVT corner grid, stage-4d high-sigma ``rare``, the stage-6
surrogate and the stage-7 yield ladder.  The build is scaled down to
about a second; every other setting, the 50 dB corner spec and the
unbounded ladder budget among them, is the program's default.  The work
unit is a ledger simulation.

The work of one build depends strongly on its flow seed: the rare stage
searches 1 to 12 levels (500 to 830 simulations a build), and on three
seeds in ten the build fails with a known defect (:data:`DEFECT`).  A
run therefore builds a fixed pool of ten flow seeds, twice over and
each seed twice in a row, so every run does the same work and the
spread across runs is the host's, not the input's; the workload seed
sets the order of the pool.
Both builds of a seed must give the same outcome exactly, and each
completed build the pinned ledger count.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np

from harness import CheckFailed, Op, derived_seed
from layers import traced_events

#: The flow seeds every run builds: those of workload seed 0.
POOL = tuple(derived_seed(0, index) for index in range(10))

#: Ledger total of each pool seed's build; ``None`` where the build
#: fails with :data:`DEFECT`.
PINNED = (None, 500, 500, 500, None, 830, 590, 500, 500, None)

#: The set-up's warm-up build: the first pool seed whose build
#: completes, so the warm-up passes every stage.
WARMUP = PINNED.index(500)

DEFECT = "rare-pfail-above-one"
DEFECT_MESSAGE = "p_fail must lie in [0, 1]"

#: Ledger stage -> layer name; stage-7 rows all start "yield ".
STAGE_LAYERS = {
    "multi-objective optimisation": "flow.moo",
    "monte-carlo variation analysis": "flow.mc_points",
    "corner verification": "flow.corners",
    "high-sigma verification": "flow.rare",
    "surrogate training": "flow.surrogate",
}
LADDER = "flow.ladder"
OTHER = "flow.other"
CORNER_LANES = 45


def flow_config(seed: int):
    from repro.flow.pipeline import reduced_config
    return dataclasses.replace(
        reduced_config(seed=seed), generations=5, population=10,
        mc_samples=20, max_pareto_points=4, mc_backend="serial",
        high_sigma=True, high_sigma_per_level=30, high_sigma_final=60,
        surrogate_budget=24, yield_objective="yield",
        yield_generations=1, yield_population=6)


def stage_layer(stage: str) -> str:
    if stage.startswith("yield "):
        return LADDER
    return STAGE_LAYERS.get(stage, OTHER)


def check_stages(result) -> None:
    """The ledger stages whose count the config fixes, and a rare stage
    of whole levels plus its final sample."""
    config = result.config
    k = config.max_pareto_points
    ledger = result.ledger.stages
    fixed = {
        "multi-objective optimisation": config.generations
        * config.population,
        "nominal characterisation": k,
        "monte-carlo variation analysis": k * config.mc_samples,
        "corner verification": k * CORNER_LANES,
        "surrogate training": config.surrogate_budget,
    }
    for stage, count in fixed.items():
        got = ledger[stage].simulations if stage in ledger else 0
        if got != count:
            raise CheckFailed(f"ledger stage {stage!r}: {got} simulations, "
                              f"config implies {count}")
    rare = ledger["high-sigma verification"].simulations
    levels, rest = divmod(rare - config.high_sigma_final,
                          config.high_sigma_per_level)
    if levels < 1 or rest:
        raise CheckFailed(f"high-sigma stage: {rare} simulations are not "
                          f"whole levels of {config.high_sigma_per_level} "
                          f"plus {config.high_sigma_final}")


class FlowBuild:
    name = "flow-build"
    kernel = "compute"
    kernel_threads = 1
    unit = "simulations"
    #: With the 12 failed builds counted beyond it, the tail of a run
    #: falls on its slowest completed build (on the edge between 500-
    #: and 590-simulation builds with 20 builds) and spread 9-10 % over
    #: five seeds: op_tail_s is not measured here.
    has_tail = False
    setups = 5
    #: A run is whole passes over the pool: each seed built twice.
    cycle = 2 * len(POOL)
    #: Two passes whatever the clock says: with one, op_p50_s spread 8 %
    #: over five seeds, with two 2.5 %.
    min_segments = 2 * cycle

    def setup(self, seed: int, workdir, statcheck) -> None:
        from repro import telemetry
        from repro.errors import YieldModelError
        from repro.flow.pipeline import run_model_build_flow
        self.workdir = workdir
        self.build = run_model_build_flow
        self.defect_error = YieldModelError
        self.registry = telemetry.REGISTRY
        self.order = np.random.default_rng([seed]).permutation(len(POOL))
        self.pending: dict[int, tuple] = {}
        self.problems: list[str] = []
        self.counts: set[int] = set()
        self.mc_lanes: set[int] = set()
        self.build(flow_config(POOL[WARMUP]))

    def is_defect(self, error: Exception) -> bool:
        return (isinstance(error, self.defect_error)
                and DEFECT_MESSAGE in str(error))

    def segment(self, index: int, traced: bool) -> list[Op]:
        # Each pool seed is built twice in a row (traced first in a
        # traced run); the two builds must agree exactly.
        pool_index = int(self.order[(index // 2) % len(POOL)])
        config = flow_config(POOL[pool_index])
        lanes_before = self.registry.counter_value("mc.lanes")
        events: list = []
        start = time.perf_counter()
        try:
            if traced:
                with traced_events(self.workdir / "flow.jsonl") as events:
                    result = self.build(config)
            else:
                result = self.build(config)
        except Exception as error:  # noqa: BLE001 - counted below
            seconds = time.perf_counter() - start
            text = f"{type(error).__name__}: {error}"
            op = Op(seconds, kind="build", failed=True, error=text,
                    known_defect=DEFECT if self.is_defect(error) else "")
            self._compare(pool_index, ("failed", text))
        else:
            seconds = time.perf_counter() - start
            simulations = result.ledger.total_simulations
            lanes = self.registry.counter_value("mc.lanes") - lanes_before
            self._check_ledger(pool_index, result)
            self._compare(pool_index, (
                simulations, result.pareto_objectives.tobytes(),
                result.pareto_parameters.tobytes(),
                {name: values.tobytes()
                 for name, values in result.variation.items()}))
            self.counts.add(simulations)
            self.mc_lanes.add(lanes)
            op = Op(seconds, units=simulations, kind="build")
            op.counts = {"flow.simulations": simulations, "mc.lanes": lanes}
            for stage, record in result.ledger.stages.items():
                name = f"{stage_layer(stage)}.simulations"
                op.counts[name] = op.counts.get(name, 0) + record.simulations
        if traced:
            op.layers, op.times = self._stage_times(events)
        return [op]

    def _check_ledger(self, pool_index: int, result) -> None:
        """``flow.simulations`` equals the pinned count, and the stages
        the config fixes their counts."""
        try:
            check_stages(result)
        except CheckFailed as error:
            self.problems.append(str(error))
        pinned = PINNED[pool_index]
        total = result.ledger.total_simulations
        if pinned is not None and total != pinned:
            self.problems.append(f"pool seed {pool_index}: flow.simulations "
                                 f"{total}, pinned {pinned}")

    def _compare(self, pool_index: int, outcome) -> None:
        """A build that should complete does, and the two builds of a
        seed agree exactly in outcome, ledger count, front and model."""
        if PINNED[pool_index] is not None and outcome[0] == "failed":
            self.problems.append(f"pool seed {pool_index}: {outcome[1]}")
        earlier = self.pending.pop(pool_index, None)
        if earlier is None:
            self.pending[pool_index] = outcome
        elif earlier != outcome:
            self.problems.append(f"two builds of pool seed {pool_index} "
                                 f"differ")

    @staticmethod
    def _stage_times(events) -> tuple[dict, dict]:
        """Stage times of one build from its ``flow.stage`` spans (stage
        7 has none; its ``workload.yield-search`` spans stand for it),
        and the ``flow.build`` span's own time, which is not a layer."""
        from repro.telemetry import span_tree
        layers: dict = defaultdict(float)
        own = 0.0
        for root in span_tree(events):
            if root.name != "flow.build":
                continue
            own += root.self_time
            for child in root.children:
                if child.name == "flow.stage":
                    name = stage_layer(child.attrs.get("stage", ""))
                elif child.name == "workload.yield-search":
                    name = LADDER
                else:
                    name = OTHER
                layers[f"{name}_s"] += child.cumulative
        return dict(layers), {"flow.build.self_s": own}

    def finish(self, traced: bool, ops) -> dict:
        if self.problems:
            raise CheckFailed("; ".join(self.problems[:3]))
        simulations = sorted(self.counts)
        lanes = sorted(self.mc_lanes)
        return {
            "notes": {"flow.simulations": simulations, "mc.lanes": lanes,
                      "pool": list(POOL), "pinned": list(PINNED)},
            "defects": [{
                "id": "mc-lanes-undercount",
                "workload": self.name,
                "detail": "only the engine's chunk loops count mc.lanes; "
                          "rare, ladder, surrogate and corner lanes "
                          "are missing from it",
                "flow.simulations": simulations,
                "mc.lanes": lanes,
                "observed": bool(lanes) and max(lanes) < min(simulations),
            }, {
                "id": DEFECT,
                "workload": self.name,
                "detail": "the stage-4d rare-event estimate of the "
                          "mid-front design comes out above 1 on some "
                          "fronts, and equivalent_sigma raises "
                          "YieldModelError, failing the build",
                "attempted": len(ops),
                "failed": sum(op.known_defect == DEFECT for op in ops),
            }],
        }

    def close(self) -> None:
        pass
