"""Statistical ground truth + CI-derived tolerances for estimator tests.

Every stochastic assertion in this test suite should fail only when the
code is wrong, not when a seed is unlucky -- so tolerances must come
from the sampling distribution of the quantity under test, not from
hand-tuned magic constants.  This module provides:

* **Analytic fixtures** (:func:`linear_gaussian_problem`): evaluators
  whose failure probability is *exactly* ``Phi(-beta)`` by
  construction.  The metric is a normalised linear combination of the
  two threshold-voltage global parameters -- deliberately only the
  ``dvto`` dimensions, because they are the ones
  :meth:`~repro.process.pdk.ProcessKit.sample_from_sigma` maps linearly
  (the ``kp``/``cap`` dimensions carry a physical positivity clamp that
  would bend the Gaussian tail).  That makes the metric an exact
  standard normal for *any* estimator drawing through the sigma-space
  machinery, so a spec at ``beta`` has true failure probability
  ``Phi(-beta)`` out to arbitrary sigma -- the ground truth a
  high-sigma estimator can be checked against at beta = 6 where no
  direct simulation could ever be.

* **CI-derived tolerances**: half-widths of the sampling distribution
  of a proportion (:func:`binomial_halfwidth`), a mean
  (:func:`mean_halfwidth`, :func:`assert_mean_close`), and the
  noise-reduction ratio of the front smoother (:func:`smoothed_noise_ratio_bound`), all at a
  configurable confidence (default 99.9 %, so a correct estimator
  flakes ~once per thousand reruns per assertion, and tightening the
  sample count tightens the assertion automatically).
"""

from __future__ import annotations

import math

import numpy as np

from repro.measure.specs import Spec, SpecSet
from repro.process import C35
from repro.process.pdk import GLOBAL_DIMS
from repro.yieldmodel import z_value

__all__ = ["DEFAULT_CONFIDENCE", "normal_cdf", "normal_tail",
           "binomial_halfwidth", "mean_halfwidth", "assert_mean_close",
           "smoothed_noise_ratio_bound", "intervals_overlap",
           "linear_gaussian_problem", "LinearGaussianProblem"]

#: Default confidence of the derived tolerances: two-sided 99.9 %, so a
#: *correct* estimator trips an assertion ~1 in 1000 reruns.
DEFAULT_CONFIDENCE = 0.999


def normal_cdf(x: float) -> float:
    """The standard normal CDF ``Phi(x)``, exact via ``erfc``."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_tail(beta: float) -> float:
    """Upper-tail probability ``Phi(-beta)`` = P(Z > beta).

    ``erfc`` keeps full relative precision in the far tail where
    ``1 - Phi(beta)`` would cancel catastrophically (at beta = 6 the
    answer is ~1e-9, far below float64's absolute epsilon around 1.0).
    """
    return 0.5 * math.erfc(beta / math.sqrt(2.0))


def binomial_halfwidth(p: float, n: int,
                       confidence: float = DEFAULT_CONFIDENCE) -> float:
    """CI half-width of an ``n``-sample proportion estimate of ``p``.

    The tolerance a direct-MC yield/failure estimate earns at its
    sample count: ``z * sqrt(p (1 - p) / n)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return z_value(confidence) * math.sqrt(p * (1.0 - p) / n)


def mean_halfwidth(sigma: float, n: int,
                   confidence: float = DEFAULT_CONFIDENCE) -> float:
    """CI half-width of an ``n``-sample mean with known std ``sigma``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return z_value(confidence) * sigma / math.sqrt(n)


def assert_mean_close(values, truth: float, *,
                      confidence: float = DEFAULT_CONFIDENCE,
                      label: str = "mean") -> None:
    """Assert a sample mean is within its own CI of an exact truth.

    The tolerance is the confidence half-width computed from the
    *sample's own* standard error -- the assertion any unbiased
    estimator must satisfy with probability ``confidence``, whatever
    the distribution of ``values``.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two values for a standard error")
    estimate = float(np.mean(values))
    sem = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    tolerance = z_value(confidence) * sem
    assert abs(estimate - truth) <= tolerance, (
        f"{label} {estimate:.6g} is {abs(estimate - truth):.3g} from the "
        f"exact value {truth:.6g}, beyond the {confidence:.1%} CI "
        f"half-width {tolerance:.3g} (n={values.size})")


def smoothed_noise_ratio_bound(n: int, window: int,
                               confidence: float = DEFAULT_CONFIDENCE
                               ) -> float:
    """Upper bound on ``std(smooth_along_front(x, window)) / std(x)``
    for iid noise ``x`` of length ``n``.

    The smoother averages ``2*reach+1`` neighbours with
    ``reach = min(window // 2, i, n - 1 - i)``, so point ``i``'s
    variance shrinks by exactly that factor; the expected ratio is the
    RMS of the per-point reductions.  The measured ratio fluctuates
    around it with ~``n / window`` effective degrees of freedom (the
    smoothed values are window-correlated), giving the confidence
    factor.
    """
    if n < 3 or window <= 1:
        return 1.0
    half = min(window // 2, (n - 1) // 2)
    reductions = [1.0 / (2 * min(half, i, n - 1 - i) + 1)
                  for i in range(n)]
    expected = math.sqrt(sum(reductions) / n)
    dof = max(2.0, n / window)
    return expected * (1.0 + z_value(confidence) / math.sqrt(2.0 * dof))


def intervals_overlap(a: tuple[float, float],
                      b: tuple[float, float]) -> bool:
    """Whether two confidence intervals share any point."""
    return max(a[0], b[0]) <= min(a[1], b[1])


class LinearGaussianProblem:
    """An analytic fixture: metric ~ N(0, 1) exactly, spec at ``beta``.

    Attributes
    ----------
    evaluator:
        :func:`repro.mc.engine.monte_carlo`-contract evaluator whose
        single metric ``margin_sigma`` is a standard normal under the
        kit's global variation (mismatch-insensitive).
    specs:
        ``margin_sigma <= beta`` -- fails with probability exactly
        ``Phi(-beta)``.
    p_fail:
        The exact failure probability :func:`normal_tail` ``(beta)``.
    """

    def __init__(self, beta: float, weights=(0.8, 0.6), pdk=C35) -> None:
        sigmas = pdk.global_sigmas()
        w = np.asarray(weights, dtype=float)
        if w.shape != (2,) or not np.any(w):
            raise ValueError("weights must be two non-trivial floats")
        w = w / math.sqrt(float(w @ w))
        sigma_n, sigma_p = float(sigmas[0]), float(sigmas[2])

        def evaluator(sample):
            # Only the unclipped dvto dimensions: their sigma -> volt
            # map is exactly linear, so this is exactly N(0, 1).
            z = (w[0] * np.asarray(sample.dvto_n) / sigma_n
                 + w[1] * np.asarray(sample.dvto_p) / sigma_p)
            return {"margin_sigma": z}

        self.beta = float(beta)
        self.weights = w
        self.pdk = pdk
        self.evaluator = evaluator
        self.specs = SpecSet([Spec("margin_sigma", "le", float(beta))])
        self.p_fail = normal_tail(float(beta))

    @property
    def true_yield(self) -> float:
        return 1.0 - self.p_fail

    @property
    def failure_direction(self) -> np.ndarray:
        """Unit vector (sigma space, GLOBAL_DIMS order) toward failure."""
        direction = np.zeros(len(GLOBAL_DIMS))
        direction[0], direction[2] = self.weights
        return direction


def linear_gaussian_problem(beta: float, weights=(0.8, 0.6), pdk=C35
                            ) -> LinearGaussianProblem:
    """Build the analytic fixture (see :class:`LinearGaussianProblem`)."""
    return LinearGaussianProblem(beta, weights, pdk)
