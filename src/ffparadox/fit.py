"""Estimate the power-law scaling parameter from observed degree data: by
maximum likelihood on raw observations (continuous truncated model), or by
inverting one observed moment (mean, variance or variance-to-mean ratio)
against the closed-form predictions.  The likelihood score and the ratio's
slope are exact in (ln E)' from ``powerlaw``; every search is one ``_bisect``.
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

    Not ``scipy.optimize``: importing it adds about 0.6 s to the 0.22-0.24 s
    of ``import ffparadox.cli``, which loads no scipy module, and 16.5-17.2
    MB to the default ``experiment``'s peak RSS of 71 MB (fresh processes on
    a 2-CPU host, Python 3.11, scipy 1.17).
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if before(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_alpha(data, k_min: float | None = None, k_max: float = math.inf) -> FitResult:
    """Continuous truncated maximum-likelihood estimate of alpha.

    Observations outside [k_min, k_max] are discarded.  k_min defaults to the
    observed minimum.  For unbounded k_max the estimate has the closed form
    1 + n / sum(ln(k_i / k_min)); otherwise the score equation is solved on
    (1.001, 6].  A likelihood that is monotone on that bracket (e.g. all
    observations equal to k_min), or that does not depend on alpha at all
    (k_min == k_max), raises NoMaximumError.  k_min and k_max are checked as
    a ``PowerLawSpec``'s are.
    """
    values = np.asarray(data, dtype=float)
    if k_min is None:
        positive = values[values > 0]
        if positive.size == 0:
            raise TooFewPointsError("no positive observations")
        k_min = float(positive.min())
    span = powerlaw.PowerLawSpec(ALPHA_LO, k_min, k_max).span
    tail = values[(values >= k_min) & (values <= k_max)]
    n = tail.size
    if n < 2:
        raise TooFewPointsError(f"need at least 2 observations in range, got {n}")

    shifted = float(np.log(tail).mean()) - math.log(k_min)
    if math.isinf(k_max):
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
            return powerlaw._log_e_slope(1.0 - a, span) - shifted

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


def _peak_alpha(k_min: float, k_max: float) -> float:
    """Maximizer over the bracket of the predicted variance-to-mean ratio
    <k_FF> - <k>: the lower edge, or where its slope turns negative, near
    alpha = 7/6.  With L = (ln E)', d ln<k>/d alpha = L(1 - alpha) -
    L(2 - alpha) and d ln<k_FF>/d alpha = L(2 - alpha) - L(3 - alpha),
    exactly, so the ratio rises where <k_FF> d ln<k_FF> > <k> d ln<k>."""
    span = powerlaw.PowerLawSpec(ALPHA_LO, k_min, k_max).span

    def rising(a):
        p = powerlaw.predict(powerlaw.PowerLawSpec(a, k_min, k_max))
        l1, l2, l3 = (powerlaw._log_e_slope(j - a, span) for j in (1.0, 2.0, 3.0))
        return p.k_ff * (l2 - l3) > p.mean_k * (l1 - l2)

    return _bisect(rising, ALPHA_LO, ALPHA_HI, 1e-9) if rising(ALPHA_LO) else ALPHA_LO


def alpha_from_moment(
    observed: float, which: Moment, k_min: float, k_max: float
) -> float:
    """Invert a closed-form moment: the alpha in (1.001, 6] whose predicted
    moment equals ``observed``, found by bisection.

    A round trip is accurate to 1e-6 in alpha where k_max / k_min >= 1.05.
    On narrower supports the predicted variance cancels, so VARIANCE and
    VAR_TO_MEAN lose accuracy fast: round trips err by up to 1.3e-5 and
    2.4e-4 at k_max / k_min = 1.01, and by 0.11 and 0.29 at 1.001, where
    MEAN still holds to 1.4e-8.  There the predicted variance-to-mean ratio
    is noisier than its range over the bracket, so VAR_TO_MEAN on [1, 1.001]
    refuses the model's own prediction at alpha = 1.3 with OutOfRangeError.

    The mean and the variance decrease in alpha on the whole bracket: with
    k^-alpha an exponential family in ln k, d<f(k)>/d alpha = -Cov(f(k), ln k),
    negative for f(k) = k and, checked numerically, for f(k) = (k - <k>)^2.
    Their inversion starts at the lower edge.  The variance-to-mean ratio has
    a shallow maximum near alpha = 7/6; its inversion solves on the
    decreasing branch to the right of that peak (the usual scale-free
    regime).  Each branch is verified at its endpoints first.
    """
    which = Moment(which)
    if math.isinf(k_max):
        raise DivergentError(
            "moment inversion requires finite k_max (moments diverge on the bracket)"
        )

    def moment(a):
        result = powerlaw.predict(powerlaw.PowerLawSpec(a, k_min, k_max))
        return getattr(result, _MOMENT_FIELDS[which])

    lo = _peak_alpha(k_min, k_max) if which is Moment.VAR_TO_MEAN else ALPHA_LO
    m_lo, m_hi = moment(lo), moment(ALPHA_HI)
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
    return _bisect(lambda a: moment(a) > observed, lo, ALPHA_HI, 1e-9)
