# reprolint fixture: MUST trigger lane-plan.
# Deliberate contract violations -- excluded from ruff (see ruff.toml).
import numpy as np

from repro.mc.sampler import child_streams


def sweep(evaluate, x, seed, chunk):
    # A hand-rolled chunk loop: its own bounds, streams and dispatch,
    # and no mc.chunk span or mc.lanes count.
    n_chunks = -(-len(x) // chunk)
    parts = [evaluate(x[i * chunk:(i + 1) * chunk], rng)
             for i, rng in enumerate(child_streams(seed, "sweep", n_chunks))]
    return np.concatenate(parts)
