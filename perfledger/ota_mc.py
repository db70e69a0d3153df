"""ota-mc: one 1000-lane Monte-Carlo call on the section-5 reference OTA.

Why this workload: ``analysis`` does nearly all the work in one large
batch -- the AC sweep is about 80 % of a chunk and DC Newton most of the
rest -- while ``flow``, ``moo``, ``cache``, ``service`` and ``cli`` stay
idle.  An AC or DC speed-up shows its full effect here; the lane-plan,
CLI and service work should show no change.

One op is ``repro.mc.monte_carlo`` of 1000 lanes in one chunk through
``ota_reference_evaluator``, serial backend.  The op's MC seed is
derived from the workload seed and the op index.  The traced evaluator
rebuilds ``evaluate_ota`` from its public calls with one span each, and
its population must be bit-identical to the untraced one.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

from harness import CheckFailed, Op, derived_seed
from layers import Spans

#: The section-5 reference OTA, natural units (W1 L1 ... W4 L4).
DESIGN = np.array([3e-05, 1e-06, 6e-05, 1e-06, 1e-05, 2e-06, 2e-05, 2e-06])
LANES = 1000

#: Ops (distinct MC seeds) pooled by the statistical check.  Fixed, so
#: a seed's verdict does not depend on how fast the host ran.
CHECK_OPS = 4

#: Pinned population of the reference OTA: per performance, the mean,
#: the standard deviation, the standard deviation of the squared
#: deviations (for the variance's half-width) and the lane count.
#: Measured from 40 x 1000 lanes on MC seeds that no run uses
#: (``derived_seed(2008, 10**6 + i)``, i < 40); see README.md.
REFERENCE = {
    "gain_db": (43.64112418, 0.10069489, 0.01438589, 40000),
    "pm_deg": (85.48554982, 0.19441080, 0.05463123, 40000),
}

TIME_LAYERS = {"designs.build": "designs.build_s", "analysis.dc":
               "analysis.dc_s", "analysis.ac": "analysis.ac_s",
               "measure": "measure_s", "mc": "mc.overhead_s"}


def traced_evaluator(spans: Spans, counts: Counter):
    """``ota_reference_evaluator(DESIGN)`` rebuilt from the public calls
    of ``evaluate_ota``, one span per layer."""
    from repro.analysis import ac_analysis, dc_operating_point
    from repro.designs.ota import (OTAParameters, build_ota,
                                   default_frequency_grid)
    from repro.measure.acmeas import (dc_gain_db, f3db, phase_margin,
                                      unity_gain_frequency)
    from repro.process import C35
    freqs = default_frequency_grid()

    def evaluator(die_sample):
        tiled = OTAParameters.from_array(
            np.repeat(DESIGN[None, :], die_sample.size, axis=0))
        with spans("designs.build"):
            circuit = build_ota(tiled, pdk=C35, variations=die_sample,
                                cl=10e-12, ibias=20e-6, vcm=1.2)
        with spans("analysis.dc"):
            op = dc_operating_point(circuit)
        counts["analysis.dc.newton_iterations"] += op.iterations
        counts["analysis.dc.homotopy_calls"] += op.strategy != "newton"
        with spans("analysis.ac"):
            result = ac_analysis(circuit, freqs, op=op)
        counts["analysis.ac.solves"] += len(freqs)
        with spans("measure"):
            mag = result.magnitude_db("out")
            phase = result.phase_deg("out")
            out = {"gain_db": dc_gain_db(mag),
                   "pm_deg": phase_margin(freqs, mag, phase)}
            # evaluate_ota computes these too; the traced op does the
            # same work as the untraced one.
            unity_gain_frequency(freqs, mag)
            f3db(freqs, mag)
        return out

    return evaluator


def check_population(gain: np.ndarray, pm: np.ndarray, statcheck) -> None:
    """Mean and sd of a pooled population against :data:`REFERENCE`,
    within the combined 99.9 % half-widths of ``tests/statcheck.py``."""
    for name, values in (("gain_db", gain), ("pm_deg", pm)):
        if not np.all(np.isfinite(values)):
            raise CheckFailed(f"{name}: non-finite lanes in the population")
        ref_mean, ref_sd, ref_sq_sd, ref_n = REFERENCE[name]
        n = values.size
        mean = float(np.mean(values))
        sd = float(np.std(values, ddof=1))
        squares = (values - mean) ** 2
        mean_tol = math.hypot(statcheck.mean_halfwidth(sd, n),
                              statcheck.mean_halfwidth(ref_sd, ref_n))
        # The variance is the mean of the squared deviations; its
        # half-width maps to the sd's through d(sd) = d(var) / (2 sd).
        sd_tol = math.hypot(
            statcheck.mean_halfwidth(float(np.std(squares, ddof=1)), n)
            / (2.0 * sd),
            statcheck.mean_halfwidth(ref_sq_sd, ref_n) / (2.0 * ref_sd))
        if abs(mean - ref_mean) > mean_tol:
            raise CheckFailed(
                f"{name}: mean {mean:.6g} is {abs(mean - ref_mean):.3g} "
                f"from the pinned {ref_mean:.6g} (tolerance "
                f"{mean_tol:.3g}, n={n})")
        if abs(sd - ref_sd) > sd_tol:
            raise CheckFailed(
                f"{name}: sd {sd:.6g} is {abs(sd - ref_sd):.3g} from the "
                f"pinned {ref_sd:.6g} (tolerance {sd_tol:.3g}, n={n})")


class OtaMc:
    name = "ota-mc"
    kernel = "compute"
    kernel_threads = 1
    unit = "lanes"
    has_tail = True
    setups = 5
    min_segments = 2 * CHECK_OPS
    cycle = 2

    def __init__(self, wrap_evaluator=None) -> None:
        # ``wrap_evaluator`` lets the self-test inject faults.
        self.wrap = wrap_evaluator or (lambda evaluator: evaluator)

    def setup(self, seed: int, workdir, statcheck) -> None:
        from repro.mc import MCConfig, monte_carlo
        from repro.process import C35
        from repro.workload import ota_reference_evaluator
        self.statcheck = statcheck
        self.monte_carlo = monte_carlo
        self.config = lambda index: MCConfig(
            n_samples=LANES, seed=derived_seed(seed, index), chunk_lanes=LANES,
            backend="serial")
        self.pdk = C35
        self.evaluator = self.wrap(ota_reference_evaluator(DESIGN))
        self.pooled: dict[int, dict] = {}
        self.pending: dict[int, dict] = {}
        self.mismatched: list[int] = []
        self.nonfinite_ops = 0
        self.monte_carlo(self.evaluator, self.pdk, self.config(0))

    def segment(self, index: int, traced: bool) -> list[Op]:
        # Ops run each MC seed twice in a row; in a traced run the first
        # of the pair is traced, so every traced population is compared
        # with the untraced one of the same seed.
        seed_index = index // 2
        spans = Spans()
        counts: Counter = Counter()
        evaluator = (self.wrap(traced_evaluator(spans, counts)) if traced
                     else self.evaluator)
        start = time.perf_counter()
        try:
            with spans("mc"):
                population = self.monte_carlo(evaluator, self.pdk,
                                              self.config(seed_index))
        except Exception as error:  # noqa: BLE001 - counted, fails the run
            return [Op(time.perf_counter() - start, failed=True,
                       error=f"{type(error).__name__}: {error}")]
        seconds = time.perf_counter() - start
        finite = (np.isfinite(population["gain_db"])
                  & np.isfinite(population["pm_deg"]))
        self.nonfinite_ops += not np.all(finite)
        earlier = self.pending.pop(seed_index, None)
        if earlier is None:
            self.pending[seed_index] = population
        elif not _identical(earlier, population):
            self.mismatched.append(seed_index)
        if seed_index < CHECK_OPS and not traced:
            self.pooled[seed_index] = population
        op = Op(seconds, units=LANES, kind="mc")
        if traced:
            times = {TIME_LAYERS[name]: value
                     for name, value in spans.self_s.items()}
            # The monte_carlo span's self-time is whatever the four
            # named layers leave: a timing, not coverage.
            op.times = {"mc.overhead_s": times.pop("mc.overhead_s")}
            op.layers = times
            op.counts = dict(counts)
            op.counts["mc.lanes"] = LANES
            op.counts["mc.useful_lane_ratio"] = float(np.mean(finite))
        return [op]

    def finish(self, traced: bool, ops) -> dict:
        """Run the checks that span ops; returns the workload's notes."""
        missing = [i for i in range(CHECK_OPS) if i not in self.pooled]
        if missing:
            raise CheckFailed(f"no population for seed indices {missing}")
        if not traced:
            # An untraced run still proves traced == untraced on seed 0.
            self.pending[0] = self.pooled[0]
            self.segment(0, True)
        if self.mismatched:
            raise CheckFailed(f"two ops on one MC seed (traced and "
                              f"untraced) differ: seed indices "
                              f"{sorted(set(self.mismatched))}")
        if self.nonfinite_ops:
            raise CheckFailed(f"{self.nonfinite_ops} op(s) returned "
                              f"non-finite lanes")
        gain = np.concatenate([self.pooled[i]["gain_db"]
                               for i in range(CHECK_OPS)])
        pm = np.concatenate([self.pooled[i]["pm_deg"]
                             for i in range(CHECK_OPS)])
        check_population(gain, pm, self.statcheck)
        return {"notes": {"check_lanes": int(gain.size),
                          "gain_db_mean": float(gain.mean()),
                          "pm_deg_mean": float(pm.mean())}}

    def close(self) -> None:
        pass


def _identical(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[name].tobytes() == b[name].tobytes() for name in a)
