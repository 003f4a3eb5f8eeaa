"""Tests for scaling-parameter estimation: MLE and moment inversion."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffparadox.errors import (
    DivergentError,
    NoMaximumError,
    NonMonotoneError,
    OutOfRangeError,
    TooFewPointsError,
)
from ffparadox import fit
from ffparadox.fit import Moment, alpha_from_moment, fit_alpha
from ffparadox.powerlaw import (
    INFINITE,
    PowerLawSpec,
    normalization_constant,
    predict,
    sample_continuous,
)

# The PredictionResult field holding each moment.
FIELDS = {
    Moment.MEAN: "mean_k",
    Moment.VARIANCE: "variance",
    Moment.VAR_TO_MEAN: "var_to_mean",
}


class TestFitAlpha:
    def test_closed_form_two_points(self):
        # alpha_hat = 1 + n / sum(ln(k_i / k_min)) with both points at e*k_min
        result = fit_alpha([math.e, math.e], k_min=1.0)
        assert result.alpha_hat == pytest.approx(2.0, rel=1e-12)
        assert result.n_tail == 2
        assert result.stderr == pytest.approx(1.0 / math.sqrt(2))

    def test_kmin_below_one_refused_by_the_spec(self):
        # the observed minimum 0.5 becomes k_min, which PowerLawSpec refuses
        with pytest.raises(ValueError) as info:
            fit_alpha([0.5, 2.0, 3.0])
        assert str(info.value) == "k_min must be finite and >= 1, got 0.5"

    def test_constant_data_has_no_maximum(self):
        with pytest.raises(NoMaximumError):
            fit_alpha([3.0] * 50)

    def test_constant_data_finite_kmax_has_no_maximum(self):
        with pytest.raises(NoMaximumError):
            fit_alpha([1.0] * 50, k_min=1.0, k_max=100.0)

    def test_point_mass_has_no_maximum(self):
        # on k_min == k_max the likelihood does not depend on alpha
        with pytest.raises(NoMaximumError):
            fit_alpha([5.0] * 10, k_min=5.0, k_max=5.0)

    def test_support_of_one_float_step_has_no_maximum(self):
        # [5, 5 + 2^-50] is one float step wide; half the data at each end
        # puts the likelihood's maximum at alpha = 1, off the bracket
        with pytest.raises(NoMaximumError):
            fit_alpha([5.0, 5.000000000000001] * 2, k_min=5.0, k_max=5.000000000000001)

    @pytest.mark.parametrize(
        "seed, alpha, k_min, k_max",
        [(0, 1.8, 1.0, 50.0), (1, 2.0, 1.0, 1000.0), (2, 2.7, 3.0, 200.0),
         (3, 3.0, 1.0, 20.0)],
    )
    def test_truncated_estimate_maximizes_the_log_likelihood(
        self, seed, alpha, k_min, k_max
    ):
        # The oracle is the explicit log-likelihood n ln C(alpha) - alpha sum ln k,
        # not the score equation that fit_alpha solves.
        sample = sample_continuous(PowerLawSpec(alpha, k_min, k_max), 2000, seed)
        log_sum = float(np.log(sample).sum())

        def log_likelihood(a):
            c = normalization_constant(PowerLawSpec(a, k_min, k_max))
            return sample.size * math.log(c) - a * log_sum

        a_hat = fit_alpha(sample, k_min=k_min, k_max=k_max).alpha_hat
        best = log_likelihood(a_hat)
        assert best >= log_likelihood(a_hat - 1e-4)
        assert best >= log_likelihood(a_hat + 1e-4)

    def test_estimate_off_the_bracket_has_no_maximum(self):
        # The unbounded MLE, 1 + 20 / (10 ln 1.01), is about 202.
        with pytest.raises(NoMaximumError) as info:
            fit_alpha([1.0, 1.01] * 10)
        assert str(info.value) == "maximum-likelihood alpha 202 outside (1.001, 6]"

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_alpha([5.0], k_min=1.0)
        with pytest.raises(TooFewPointsError):
            fit_alpha([0.0, 0.0])

    def test_recovers_alpha_unbounded(self):
        spec = PowerLawSpec(2.5, 1.0, INFINITE)
        hits = 0
        for seed in range(20):
            sample = sample_continuous(spec, 100000, seed)
            result = fit_alpha(sample, k_min=1.0)
            if 2.45 <= result.alpha_hat <= 2.55:
                hits += 1
        assert hits == 20

    def test_recovers_alpha_truncated(self):
        spec = PowerLawSpec(2.0, 1.0, 1000.0)
        for seed in range(5):
            sample = sample_continuous(spec, 100000, seed)
            result = fit_alpha(sample, k_min=1.0, k_max=1000.0)
            assert abs(result.alpha_hat - 2.0) <= 3.0 * result.stderr

    def test_truncated_vs_unbounded_differ(self):
        # ignoring the cutoff biases the estimate upward on truncated data
        spec = PowerLawSpec(1.6, 1.0, 100.0)
        sample = sample_continuous(spec, 50000, 3)
        truncated = fit_alpha(sample, k_min=1.0, k_max=100.0)
        unbounded = fit_alpha(sample, k_min=1.0)
        assert abs(truncated.alpha_hat - 1.6) < abs(unbounded.alpha_hat - 1.6)

    def test_ks_distance_small_for_true_model(self):
        spec = PowerLawSpec(2.2, 1.0, 500.0)
        sample = sample_continuous(spec, 20000, 8)
        result = fit_alpha(sample, k_min=1.0, k_max=500.0)
        assert 0.0 <= result.ks_distance <= 0.02

    def test_default_k_min_is_observed_minimum(self):
        result = fit_alpha([2.0, 4.0, 8.0, 16.0])
        assert result.k_min_used == 2.0
        assert result.n_tail == 4

    def test_k_min_filters_tail(self):
        result = fit_alpha([1.0, 1.0, 2.0, 4.0, 8.0], k_min=2.0)
        assert result.n_tail == 3


class TestAlphaFromMoment:
    def test_round_trip_mean(self):
        want = predict(PowerLawSpec(2.5, 1.0, 100.0)).mean_k
        got = alpha_from_moment(want, Moment.MEAN, 1.0, 100.0)
        assert got == pytest.approx(2.5, abs=1e-7)

    def test_round_trip_var_to_mean_through_limit_branch(self):
        want = predict(PowerLawSpec(2.0, 1.0, 1000.0)).var_to_mean
        got = alpha_from_moment(want, Moment.VAR_TO_MEAN, 1.0, 1000.0)
        assert got == pytest.approx(2.0, abs=1e-6)

    def test_round_trip_grid_all_moments(self):
        alphas = np.round(np.arange(1.2, 3.51, 0.1), 10)
        for which in Moment:
            for alpha in alphas:
                want = getattr(
                    predict(PowerLawSpec(float(alpha), 1.0, 100.0)),
                    {
                        Moment.MEAN: "mean_k",
                        Moment.VARIANCE: "variance",
                        Moment.VAR_TO_MEAN: "var_to_mean",
                    }[which],
                )
                got = alpha_from_moment(want, which, 1.0, 100.0)
                assert abs(got - float(alpha)) <= 1e-6, (which, alpha, got)

    @pytest.mark.parametrize("which", [Moment.MEAN, Moment.VARIANCE])
    def test_mean_and_variance_invert_without_a_peak_search(self, which):
        # Both fall on the whole bracket (test_mean_and_variance_fall_in_alpha),
        # so their inversion starts at ALPHA_LO.
        searched = AssertionError("peak searched")
        with mock.patch.object(fit, "_peak_alpha", side_effect=searched):
            for k_min, k_max in ((1.0, 100.0), (1.0, 1.05), (10.0, 1e5)):
                want = getattr(predict(PowerLawSpec(2.5, k_min, k_max)), FIELDS[which])
                assert abs(alpha_from_moment(want, which, k_min, k_max) - 2.5) <= 1e-6

    def test_negative_observed_out_of_range(self):
        for which in Moment:
            with pytest.raises(OutOfRangeError):
                alpha_from_moment(-1.0, which, 1.0, 100.0)

    def test_huge_observed_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            alpha_from_moment(1e9, Moment.MEAN, 1.0, 100.0)

    def test_point_mass_is_not_monotone(self):
        with pytest.raises(NonMonotoneError) as info:
            alpha_from_moment(5.0, Moment.MEAN, 5.0, 5.0)
        assert str(info.value) == (
            "MEAN is not decreasing in alpha on the bracket for k_min=5.0, k_max=5.0"
        )

    def test_unbounded_support_rejected(self):
        with pytest.raises(DivergentError):
            alpha_from_moment(3.0, Moment.MEAN, 1.0, INFINITE)

    def test_accepts_string_moment(self):
        want = predict(PowerLawSpec(2.5, 1.0, 100.0)).mean_k
        got = alpha_from_moment(want, "MEAN", 1.0, 100.0)
        assert got == pytest.approx(2.5, abs=1e-7)

    @pytest.mark.parametrize("alpha", [fit.ALPHA_LO, fit.ALPHA_HI])
    def test_mean_at_a_bracket_end_inverts_to_it(self, alpha):
        want = predict(PowerLawSpec(alpha, 1.0, 100.0)).mean_k
        assert abs(alpha_from_moment(want, Moment.MEAN, 1.0, 100.0) - alpha) <= 1e-6

    def test_variance_to_mean_peak_on_a_narrow_support(self):
        # On [280, 302] the ratio is nearly flat and its closed form noisy;
        # the peak 1.16666498 is from 40-digit quadrature (mpmath).
        peak = fit._peak_alpha(280.0, 302.0)
        assert abs(peak - 1.16666498) <= 5e-5

    # Maximizers of the closed-form ratio in 60-digit mpmath (root of its
    # derivative).  The slopes of the narrowest support cancel to about 1e-5.
    @pytest.mark.parametrize("k_min, k_max, want, tol", [
        (1.0, 10.0, 1.16484575673514, 1e-6),
        (1.0, 1000.0, 1.14390797106564, 1e-6),
        (2.0, 50.0, 1.16273235238879, 1e-6),
        (1.0, 1.1, 1.16666399558401, 1e-6),
        (1.0, 1.01, 1.16666663756336, 1e-6),
        (50.0, 51.0, 1.16666655139635, 1e-6),
        (100.0, 101.0, 1.16666663756336, 1e-6),
        (280.0, 302.0, 1.16666498465444, 1e-6),
        (1000.0, 1000.5, 1.16666666659322, 1e-4),
    ])
    def test_variance_to_mean_peak_matches_high_precision(self, k_min, k_max, want, tol):
        assert abs(fit._peak_alpha(k_min, k_max) - want) <= tol

    # Same 60-digit mpmath maximizers, at relative widths 1e-5 and 1e-6.
    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="the ratio's slope cancels in float64 at these widths and the peak "
        "falls back to ALPHA_LO; ROADMAP item 11",
    )
    @pytest.mark.parametrize("k_min, k_max, want", [
        (1.0, 1.0 + 1e-5, 1.1666666666666372),
        (100.0, 100.0001, 1.1666666666666663),
    ])
    def test_variance_to_mean_peak_on_the_narrowest_supports(self, k_min, k_max, want):
        assert abs(fit._peak_alpha(k_min, k_max) - want) <= 1e-6

    @pytest.mark.parametrize("k_min, k_max, alpha", [
        (50.0, 51.0, 1.1675), (100.0, 101.0, 1.2),
    ])
    def test_ratio_just_right_of_a_narrow_peak_inverts(self, k_min, k_max, alpha):
        want = predict(PowerLawSpec(alpha, k_min, k_max)).var_to_mean
        got = alpha_from_moment(want, Moment.VAR_TO_MEAN, k_min, k_max)
        assert abs(got - alpha) <= 1e-3

    @pytest.mark.parametrize("which", list(Moment))
    def test_round_trip_on_the_narrowest_accurate_support(self, which):
        # k_max / k_min = 1.05 is where the documented 1e-6 accuracy starts;
        # narrower supports lose it as the predicted variance cancels.  Every
        # alpha here lies right of the variance-to-mean peak near 7/6.
        for k_min in (1.0, 100.0):
            k_max = k_min * 1.05
            for alpha in (1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 5.5):
                want = getattr(predict(PowerLawSpec(alpha, k_min, k_max)), FIELDS[which])
                got = alpha_from_moment(want, which, k_min, k_max)
                assert abs(got - alpha) <= 1e-6, (k_min, alpha, got)

    @pytest.mark.xfail(
        raises=OutOfRangeError,
        strict=True,
        reason="the cancelling variance on [1, 1.001] makes the predicted "
        "ratio noisier than its range over the bracket; ROADMAP item 11",
    )
    def test_variance_to_mean_round_trip_on_a_thousandth_wide_support(self):
        want = predict(PowerLawSpec(1.3, 1.0, 1.001)).var_to_mean
        got = alpha_from_moment(want, Moment.VAR_TO_MEAN, 1.0, 1.001)
        assert abs(got - 1.3) <= 1e-6

    def test_limit_branch_plateau_inverts_to_its_middle(self):
        # every moment is strictly decreasing through alpha = 2, including
        # within SWITCH_EPS of it, so its value at 2 inverts to 2
        for which in Moment:
            want = getattr(predict(PowerLawSpec(2.0, 1.0, 1000.0)), FIELDS[which])
            got = alpha_from_moment(want, which, 1.0, 1000.0)
            assert abs(got - 2.0) <= 1e-9, (which, got)


@settings(deadline=None, max_examples=60)
@given(
    alpha=st.floats(1.3, 5.5),
    k_min=st.floats(1.0, 100.0),
    ratio=st.floats(2.0, 1e6),
    which=st.sampled_from(list(Moment)),
)
def test_moment_inversion_round_trips(alpha, k_min, ratio, which):
    k_max = k_min * ratio
    want = getattr(predict(PowerLawSpec(alpha, k_min, k_max)), FIELDS[which])
    assert abs(alpha_from_moment(want, which, k_min, k_max) - alpha) <= 1e-6


def power_integrals(s, k_min, k_max):
    """The integrals of k^s and of k^s ln k over [k_min, k_max], in mpmath."""
    a, b, t = mpmath.mpf(k_min), mpmath.mpf(k_max), s + 1
    if t == 0:
        return mpmath.log(b / a), (mpmath.log(b) ** 2 - mpmath.log(a) ** 2) / 2
    (p0, q0), (p1, q1) = ((k**t / t, k**t * (mpmath.log(k) / t - 1 / t**2)) for k in (a, b))
    return p1 - p0, q1 - q0


@pytest.mark.parametrize("k_min", [1.0, 10.0, 1000.0])
@pytest.mark.parametrize("ratio", [1 + 1e-7, 1.01, 10.0, 1e7])
def test_mean_and_variance_fall_in_alpha(k_min, ratio):
    # k^-alpha is an exponential family in ln k, so d<f(k)>/d alpha =
    # -Cov(f(k), ln k) for a fixed f; the variance's slope is that of
    # f = (k - <k>)^2, as <k - <k>> = 0.  Closed forms in 80 digits keep
    # about 30 after the narrowest support and the difference steps cancel;
    # central differences of the moments check the slopes.  This is why
    # only the variance-to-mean ratio's inversion searches for a peak.
    k_max = k_min * ratio

    def moments(alpha):
        (i0, j0), (i1, j1), (i2, j2) = (power_integrals(s - alpha, k_min, k_max) for s in range(3))
        mean, ln_k = i1 / i0, j0 / i0
        var = i2 / i0 - mean**2
        d_mean = -(j1 - mean * j0) / i0
        d_var = -((j2 - 2 * mean * j1 + mean**2 * j0) / i0 - var * ln_k)
        return mean, var, d_mean, d_var

    with mpmath.workdps(80):
        h = mpmath.mpf("1e-6")
        for alpha in map(mpmath.mpf, ("1.0012", "1.5", "2", "3", "6")):
            below, above = moments(alpha - h), moments(alpha + h)
            for which, slope in enumerate(moments(alpha)[2:]):
                assert slope < 0, (k_min, ratio, alpha, which)
                step = (above[which] - below[which]) / (2 * h)
                assert abs(step / slope - 1) < 1e-6, (k_min, ratio, alpha, which)
