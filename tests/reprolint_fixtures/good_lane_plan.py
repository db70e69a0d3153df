# reprolint fixture: lane-plan passes.
from repro.exec import resolve_backend
from repro.mc.lanes import plan_lanes, run_lanes


def sweep(evaluate, x, seed, chunk):
    # The lane plan owns bounds, streams, dispatch and telemetry.
    plan = plan_lanes(len(x), chunk, seed=seed, stage="sweep")

    def run_task(task):
        start, stop, rng = task
        return {"y": evaluate(x[start:stop], rng)}

    return run_lanes(plan, run_task, resolve_backend("serial"))["y"]
