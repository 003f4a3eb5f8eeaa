"""Closed-form analytics and sampling for truncated power-law degree distributions.

The distribution is the continuous density P(k) = C * k**(-alpha) supported on
[k_min, k_max] with alpha > 1.  All moments below are integrals of that
continuous density; sampled degrees are rounded to integers only at the end.

Every form is regular: with span = ln(k_max / k_min) and t = 1 - alpha, C =
(alpha - 1) / (k_min**t * -expm1(t * span)), cdf(k) = expm1(t * ln(k / k_min)) /
expm1(t * span), and the sampler inverts the cdf.  With E(t) = expm1(t * span)
/ t, E(0) = span: <k> = k_min * E(2 - alpha) / E(1 - alpha) and <k^2> =
k_min**2 * E(3 - alpha) / E(1 - alpha), both taken through ln E(t).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSupportError, DivergentError

# Distinguished value for an unbounded maximum degree.
INFINITE = math.inf

# Distance from alpha = 2 or 3 inside which a prediction is labelled a limit.
SWITCH_EPS = 1e-6


class Branch(str, Enum):
    """Which of the paper's closed forms a prediction falls under (a label only)."""

    GENERAL = "GENERAL"
    LIMIT_ALPHA_2 = "LIMIT_ALPHA_2"
    LIMIT_ALPHA_3 = "LIMIT_ALPHA_3"
    DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class PowerLawSpec:
    """Parameters (alpha, k_min, k_max) of a truncated power-law distribution.

    k_max may be ``INFINITE``; operations that need a convergent integral
    check finiteness themselves.  k_min == k_max is allowed as an explicit
    point-mass (regular graph) boundary case.
    """

    alpha: float
    k_min: float
    k_max: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 1.0):
            raise ValueError(f"alpha must be finite and > 1, got {self.alpha}")
        if not (math.isfinite(self.k_min) and self.k_min >= 1.0):
            raise ValueError(f"k_min must be finite and >= 1, got {self.k_min}")
        if math.isnan(self.k_max) or self.k_max < self.k_min:
            raise ValueError(
                f"k_max must be >= k_min ({self.k_min}), got {self.k_max}"
            )

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.k_max)

    @property
    def is_degenerate(self) -> bool:
        return self.k_max == self.k_min

    @property
    def span(self) -> float:
        """ln(k_max / k_min), exact for narrow supports; inf for unbounded k_max."""
        return math.log1p((self.k_max - self.k_min) / self.k_min)


@dataclass(frozen=True)
class PredictionResult:
    """Analytical bundle for one spec: C, <k>, <k^2>, sigma^2, sigma^2/<k>, <k_FF>."""

    c: float
    mean_k: float
    second_moment: float
    variance: float
    var_to_mean: float
    k_ff: float
    branch: Branch


def normalization_constant(spec: PowerLawSpec) -> float:
    """Constant C making the density integrate to one over [k_min, k_max].

    C = (alpha - 1) / (k_min**t * -expm1(t * span)) with t = 1 - alpha; for
    k_min = 1 and unbounded k_max this reduces to alpha - 1.  A C that is not
    a finite float raises ``DivergentError``.
    """
    if spec.is_degenerate:
        raise DegenerateSupportError(
            "normalization constant undefined for k_min == k_max"
        )
    t = 1.0 - spec.alpha
    mass = spec.k_min**t * -math.expm1(t * spec.span)
    c = (spec.alpha - 1.0) / mass if mass else math.inf  # k_min**t underflowed
    if not math.isfinite(c):
        raise DivergentError(
            f"normalization constant not finite in floating point for "
            f"alpha={spec.alpha}, k_min={spec.k_min}, k_max={spec.k_max}"
        )
    return c


def pdf(spec: PowerLawSpec, k):
    """Density C * k**(-alpha) on the support, zero outside it."""
    c = normalization_constant(spec)
    k = np.asarray(k, dtype=float)
    inside = (k >= spec.k_min) & (k <= spec.k_max)
    values = np.where(inside, c * np.power(np.where(inside, k, 1.0), -spec.alpha), 0.0)
    return float(values) if values.ndim == 0 else values


def cdf(spec: PowerLawSpec, k):
    """Probability mass below k: integral of the density from k_min to k.

    Values below k_min map to 0 and above k_max to 1, so the function can be
    applied to arbitrary sample arrays.
    """
    if spec.is_degenerate:
        raise DegenerateSupportError("cdf undefined for k_min == k_max")
    t = 1.0 - spec.alpha
    k = np.clip(np.asarray(k, dtype=float), spec.k_min, spec.k_max)
    steps = np.expm1(t * np.log1p((k - spec.k_min) / spec.k_min))
    values = steps / math.expm1(t * spec.span)
    return float(values) if values.ndim == 0 else values


def _assemble(c: float, mean: float, m2: float, branch: Branch) -> PredictionResult:
    # Clamp guards the k_ff >= mean_k invariant against rounding when the
    # support is nearly degenerate; mathematically m2 >= mean**2 always.
    variance = max(m2 - mean * mean, 0.0)
    var_to_mean = variance / mean
    k_ff = mean + var_to_mean
    return PredictionResult(
        c=c,
        mean_k=mean,
        second_moment=m2,
        variance=variance,
        var_to_mean=var_to_mean,
        k_ff=k_ff,
        branch=branch,
    )


def predict(spec: PowerLawSpec) -> PredictionResult:
    """Mean degree, variance, variance-to-mean ratio and friends-of-friends mean.

    The per-field relations are fixed: variance = <k^2> - <k>^2,
    var_to_mean = variance / mean_k, and k_ff = mean_k + var_to_mean, so the
    friendship-paradox identity holds exactly as computed.

    An unbounded k_max requires alpha > 3; otherwise the mean or variance
    diverges.  A point-mass spec (k_min == k_max) returns the regular-graph
    limit with branch DEGENERATE.
    """
    if spec.is_degenerate:
        k = spec.k_min
        return PredictionResult(
            c=math.nan,
            mean_k=k,
            second_moment=k * k,
            variance=0.0,
            var_to_mean=0.0,
            k_ff=k,
            branch=Branch.DEGENERATE,
        )
    if spec.is_infinite and spec.alpha <= 3.0:
        raise DivergentError(
            "mean or variance diverges for alpha <= 3 with unbounded k_max"
        )
    try:
        result = _assemble(normalization_constant(spec), *_moments(spec))
        finite = all(map(math.isfinite, astuple(result)[:-1]))  # all but branch
    except OverflowError:  # a moment overflowed
        finite = False
    if not finite:
        raise DivergentError(
            f"moments not finite in floating point for alpha={spec.alpha}, "
            f"k_min={spec.k_min}, k_max={spec.k_max}"
        )
    return result


def _log_e(t: float, span: float) -> float:
    """ln E(t) for E(t) = expm1(t * span) / t, E(0) = span; finite when E is."""
    x = t * span
    if x > 0.0:
        return x + math.log(-math.expm1(-x) / t)
    return math.log(math.expm1(x) / t if t else span)


def _moments(spec: PowerLawSpec):
    """(mean, second moment, branch) of a spec with a non-degenerate support."""
    span = spec.span
    base = _log_e(1.0 - spec.alpha, span)
    mean = spec.k_min * math.exp(_log_e(2.0 - spec.alpha, span) - base)
    m2 = spec.k_min * (spec.k_min * math.exp(_log_e(3.0 - spec.alpha, span) - base))
    if not spec.is_infinite and abs(spec.alpha - 2.0) <= SWITCH_EPS:
        return mean, m2, Branch.LIMIT_ALPHA_2
    if not spec.is_infinite and abs(spec.alpha - 3.0) <= SWITCH_EPS:
        return mean, m2, Branch.LIMIT_ALPHA_3
    return mean, m2, Branch.GENERAL


def sample_continuous(spec: PowerLawSpec, n: int, seed: int) -> np.ndarray:
    """Draw n continuous values by inverting the CDF (transformation method).

    k = k_min * exp(log1p(u * expm1(t * span)) / t) with t = 1 - alpha and u
    uniform on [0, 1).  Works for unbounded k_max (alpha > 1 keeps the
    distribution itself normalizable even when its moments diverge), and a
    point mass (k_min == k_max, span 0) gives k_min every time.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    t = 1.0 - spec.alpha
    # In place: a fresh array per step costs about as much as the arithmetic.
    k = np.random.default_rng(seed).random(n)
    k *= math.expm1(t * spec.span)
    np.log1p(k, out=k)
    k /= t
    np.exp(k, out=k)
    k *= spec.k_min
    # Rounding can lift a draw with u within a few 2**-53 of 1 past k_max.
    return np.minimum(k, spec.k_max, out=k)


def round_degrees(spec: PowerLawSpec, values) -> np.ndarray:
    """Continuous degree draws from ``spec`` rounded half-up to integers.

    Requires finite k_max so the rounded values form a bounded sequence.
    """
    if spec.is_infinite:
        raise DivergentError("degree sampling requires finite k_max")
    return np.floor(np.asarray(values) + 0.5).astype(np.int64)


def sample_degrees(spec: PowerLawSpec, n: int, seed: int) -> np.ndarray:
    """Integer degree sequence: continuous draws rounded half-up to integers
    (``round_degrees``).

    Deterministic for a fixed seed; every value lies within
    [round(k_min), round(k_max)].
    """
    return round_degrees(spec, sample_continuous(spec, n, seed))
