"""Tests for the closed-form analytics and the degree sampler.

The independent oracle throughout is adaptive numerical quadrature of the
raw integrand k**(-alpha): the normalization, mean and second moment are
rebuilt from integrals and compared against the closed forms.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ffparadox.errors import DegenerateSupportError, DivergentError, DomainError
from ffparadox.powerlaw import (
    INFINITE,
    Branch,
    PowerLawSpec,
    cdf,
    normalization_constant,
    pdf,
    predict,
    sample_continuous,
    sample_degrees,
)
from paper_forms import moments_at_alpha2, moments_at_alpha3, moments_general

E = math.e


def quad_moments(alpha, k_min, k_max):
    """(C, mean, second moment) by quadrature of the unnormalized density."""
    z = quad(lambda k: k**-alpha, k_min, k_max, epsabs=0, epsrel=1e-12)[0]
    m1 = quad(lambda k: k ** (1 - alpha), k_min, k_max, epsabs=0, epsrel=1e-12)[0] / z
    m2 = quad(lambda k: k ** (2 - alpha), k_min, k_max, epsabs=0, epsrel=1e-12)[0] / z
    return 1.0 / z, m1, m2


class TestSpecValidation:
    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            PowerLawSpec(1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            PowerLawSpec(0.5, 1.0, 10.0)

    def test_k_min_below_one_rejected(self):
        with pytest.raises(ValueError):
            PowerLawSpec(2.0, 0.5, 10.0)

    def test_k_max_below_k_min_rejected(self):
        with pytest.raises(ValueError):
            PowerLawSpec(2.0, 5.0, 2.0)

    def test_degenerate_allowed(self):
        spec = PowerLawSpec(2.0, 5.0, 5.0)
        assert spec.is_degenerate


class TestNormalizationConstant:
    def test_alpha2_unbounded(self):
        assert normalization_constant(PowerLawSpec(2.0, 1.0, INFINITE)) == pytest.approx(1.0)

    def test_alpha3_unbounded(self):
        assert normalization_constant(PowerLawSpec(3.0, 1.0, INFINITE)) == pytest.approx(2.0)

    def test_truncated_matches_quadrature(self):
        c, _, _ = quad_moments(2.5, 1.0, 100.0)
        got = normalization_constant(PowerLawSpec(2.5, 1.0, 100.0))
        assert got == pytest.approx(c, rel=1e-10)

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateSupportError):
            normalization_constant(PowerLawSpec(2.0, 3.0, 3.0))


class TestPdfCdf:
    def test_pdf_at_support_start(self):
        assert pdf(PowerLawSpec(2.0, 1.0, INFINITE), 1.0) == pytest.approx(1.0)

    def test_pdf_alpha2_at_two(self):
        assert pdf(PowerLawSpec(2.0, 1.0, INFINITE), 2.0) == pytest.approx(0.25)

    def test_pdf_matches_quadrature_constant(self):
        c, _, _ = quad_moments(2.5, 2.0, 50.0)
        got = pdf(PowerLawSpec(2.5, 2.0, 50.0), 10.0)
        assert got == pytest.approx(c * 10.0**-2.5, rel=1e-10)

    def test_pdf_zero_outside_support(self):
        spec = PowerLawSpec(2.5, 2.0, 50.0)
        assert pdf(spec, 1.0) == 0.0
        assert pdf(spec, 51.0) == 0.0

    def test_pdf_integrates_to_one(self):
        for spec in (
            PowerLawSpec(1.5, 1.0, 10.0),
            PowerLawSpec(2.0, 1.0, 1000.0),
            PowerLawSpec(3.0, 2.0, 50.0),
        ):
            total = quad(
                lambda k: pdf(spec, k), spec.k_min, spec.k_max, epsabs=0, epsrel=1e-12
            )[0]
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_cdf_boundaries(self):
        spec = PowerLawSpec(2.2, 1.0, 50.0)
        assert cdf(spec, spec.k_min) == 0.0
        assert cdf(spec, spec.k_max) == pytest.approx(1.0)

    def test_cdf_matches_quadrature(self):
        spec = PowerLawSpec(2.0, 1.0, 100.0)
        want = quad(lambda k: pdf(spec, k), 1.0, 10.0, epsabs=0, epsrel=1e-12)[0]
        assert cdf(spec, 10.0) == pytest.approx(want, rel=1e-10)

    def test_cdf_vectorized_monotone(self):
        spec = PowerLawSpec(2.0, 1.0, 100.0)
        ks = np.linspace(1.0, 100.0, 200)
        values = cdf(spec, ks)
        assert (np.diff(values) >= 0).all()


class TestPredict:
    def test_matches_quadrature_on_grid(self):
        for alpha in (1.1, 1.5, 2.5, 3.5):
            for k_min in (1.0, 2.0):
                for k_max in (10.0, 100.0, 1000.0):
                    c, m1, m2 = quad_moments(alpha, k_min, k_max)
                    r = predict(PowerLawSpec(alpha, k_min, k_max))
                    var = m2 - m1 * m1
                    assert r.c == pytest.approx(c, rel=1e-8)
                    assert r.mean_k == pytest.approx(m1, rel=1e-8)
                    assert r.second_moment == pytest.approx(m2, rel=1e-8)
                    assert r.variance == pytest.approx(var, rel=1e-8)
                    assert r.var_to_mean == pytest.approx(var / m1, rel=1e-8)
                    assert r.k_ff == pytest.approx(m2 / m1, rel=1e-8)
                    assert r.branch is Branch.GENERAL

    def test_alpha2_limit_against_direct_expressions(self):
        # mean -> k_min*k_max*ln(k_max/k_min)/(k_max-k_min), k_ff -> (k_max-k_min)/ln(...)
        r = predict(PowerLawSpec(2.0, 1.0, E))
        assert r.branch is Branch.LIMIT_ALPHA_2
        assert r.mean_k == pytest.approx(E / (E - 1.0), rel=1e-12)
        assert r.k_ff == pytest.approx(E - 1.0, rel=1e-12)

    def test_alpha2_limit_against_nearby_quadrature(self):
        r = predict(PowerLawSpec(2.0, 1.0, E))
        for alpha in (2.0 - 1e-7, 2.0 + 1e-7):
            _, m1, m2 = quad_moments(alpha, 1.0, E)
            assert r.mean_k == pytest.approx(m1, rel=1e-5)
            assert r.k_ff == pytest.approx(m2 / m1, rel=1e-5)

    def test_alpha3_mean_is_harmonic_mean(self):
        for k_min, k_max in ((1.0, 100.0), (2.0, 37.5), (1.5, 8.0)):
            r = predict(PowerLawSpec(3.0, k_min, k_max))
            assert r.branch is Branch.LIMIT_ALPHA_3
            assert r.mean_k == pytest.approx(
                2.0 * k_min * k_max / (k_min + k_max), rel=1e-12
            )

    def test_alpha3_branch_second_moment_tracks_alpha(self):
        # inside the branch <k^2> follows alpha, so the variance stays
        # decreasing and moment inversion stays exact through alpha = 3
        for k_min, k_max in ((1.0, 3.0), (1.0, 500.0), (4.0, 90.0)):
            for alpha in (3.0 - 9e-7, 3.0 - 1e-10, 3.0 + 1e-10, 3.0 + 9e-7):
                r = predict(PowerLawSpec(alpha, k_min, k_max))
                assert r.branch is Branch.LIMIT_ALPHA_3
                _, _, m2 = quad_moments(alpha, k_min, k_max)
                assert r.second_moment == pytest.approx(m2, rel=1e-10)

    def test_alpha3_kff_direct_expression(self):
        k_min, k_max = 1.0, 100.0
        r = predict(PowerLawSpec(3.0, k_min, k_max))
        want = k_min * k_max * math.log(k_max / k_min) / (k_max - k_min)
        assert r.k_ff == pytest.approx(want, rel=1e-12)

    def test_degenerate_point_mass(self):
        r = predict(PowerLawSpec(2.7, 5.0, 5.0))
        assert r.branch is Branch.DEGENERATE
        assert r.mean_k == 5.0
        assert r.variance == 0.0
        assert r.k_ff == 5.0
        assert math.isnan(r.c)

    def test_unbounded_requires_alpha_above_three(self):
        with pytest.raises(DivergentError):
            predict(PowerLawSpec(2.5, 1.0, INFINITE))
        with pytest.raises(DivergentError):
            predict(PowerLawSpec(3.0, 1.0, INFINITE))

    def test_unbounded_alpha4(self):
        _, m1, m2 = quad_moments(4.0, 1.0, np.inf)
        r = predict(PowerLawSpec(4.0, 1.0, INFINITE))
        assert r.mean_k == pytest.approx(m1, rel=1e-8)
        assert r.k_ff == pytest.approx(m2 / m1, rel=1e-8)

    def test_eq6_identity_exact(self):
        # k_ff - mean == var_to_mean and var_to_mean == variance / mean,
        # bit-for-bit as fields are derived.
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha = float(rng.uniform(1.05, 5.5))
            k_min = float(rng.uniform(1.0, 5.0))
            k_max = k_min * float(rng.uniform(1.5, 1e4))
            r = predict(PowerLawSpec(alpha, k_min, k_max))
            assert r.k_ff - r.mean_k == pytest.approx(r.var_to_mean, rel=1e-12)
            assert r.var_to_mean == r.variance / r.mean_k
            assert r.k_ff >= r.mean_k

    @pytest.mark.parametrize("alpha, k_min, k_max", [
        (1.2, 1.0, 1e200),
        (1.01, 1.0, 1e200),
    ])
    def test_non_finite_moments_are_divergent(self, alpha, k_min, k_max):
        with pytest.raises(DivergentError, match="not finite"):
            predict(PowerLawSpec(alpha, k_min, k_max))

    def test_alpha_within_rounding_of_one_has_finite_moments(self):
        # k**(1 - alpha) rounds to 1.0 at both ends of the support, yet C
        # and the moments are finite floats.
        spec = PowerLawSpec(1.0 + 2.0**-52, 4.0, 5.0)
        c, mean, m2, _ = mp_closed_forms(spec.alpha, spec.k_min, spec.k_max)
        r = predict(spec)
        assert r.c == pytest.approx(float(c), rel=1e-13)
        assert r.mean_k == pytest.approx(float(mean), rel=1e-13)
        assert r.second_moment == pytest.approx(float(m2), rel=1e-13)

    # Values from the closed forms in 50-digit mpmath.  Each spec has a
    # power of k_max that overflows a float, and each was refused as
    # divergent while predict evaluated the closed forms directly.
    @pytest.mark.parametrize("alpha, k_min, k_max, expected", [
        (3.0, 1.0, 1e200, [("mean_k", 2.0, 1e-13),
                           ("second_moment", 921.03403719761827, 1e-13)]),
        (2.0, 1.0, 1.7e308, [("mean_k", 709.72683689322824, 1e-13),
                             ("var_to_mean", 2.3952877524564412e305, 1e-12)]),
        (1.001, 1.0, 1e155, [("second_moment", 1.1663725150131524e307, 1e-12)]),
    ], ids=["3.0-1.0-1e+200", "2.0-1.0-1.7e+308", "1.001-1.0-1e+155"])
    def test_huge_supports_with_representable_moments_are_finite(
        self, alpha, k_min, k_max, expected
    ):
        r = predict(PowerLawSpec(alpha, k_min, k_max))
        for field, value, rel in expected:
            assert getattr(r, field) == pytest.approx(value, rel=rel)

@settings(deadline=None, max_examples=500)
@given(
    st.floats(1.0, 6.0, exclude_min=True),
    st.floats(1.0, 1e3),
    st.floats(0.0, 1e308) | st.just(INFINITE),
)
def test_predict_is_finite_or_a_domain_error(alpha, k_min, width):
    try:
        r = predict(PowerLawSpec(alpha, k_min, k_min + width))
    except DomainError:
        return
    assert r.branch is Branch.DEGENERATE or math.isfinite(r.c)
    fields = (r.mean_k, r.second_moment, r.variance, r.var_to_mean, r.k_ff)
    assert all(map(math.isfinite, fields))
    assert r.k_ff >= r.mean_k


def mp_closed_forms(alpha, k_min, k_max):
    """(C, mean, second moment, variance / mean) from the paper's closed forms
    in 50-digit mpmath."""
    with mpmath.workdps(50):
        a, lo, hi = (mpmath.mpf(v) for v in (alpha, k_min, k_max))

        def integral(p):  # of k**p over [k_min, k_max]
            if p == -1:
                return mpmath.log(hi / lo)
            return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)

        z = integral(-a)
        mean, m2 = integral(1 - a) / z, integral(2 - a) / z
        return 1 / z, mean, m2, (m2 - mean * mean) / mean


def mp_cdf(alpha, k_min, k_max, k):
    """The paper's cdf (k**t - k_min**t) / (k_max**t - k_min**t), t = 1 - alpha,
    in 50-digit mpmath; k_max**t is 0 for unbounded k_max."""
    with mpmath.workdps(50):
        t, lo, k = 1 - mpmath.mpf(alpha), mpmath.mpf(k_min), mpmath.mpf(k)
        top = 0 if math.isinf(k_max) else mpmath.mpf(k_max) ** t
        return (k**t - lo**t) / (top - lo**t)


NEAR_POLES = st.builds(
    lambda pole, side, exponent: pole + side * 10.0**exponent,
    st.sampled_from([2.0, 3.0]),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-15.0, -6.0),
)


ALPHAS = (
    st.floats(1.0, 6.0, exclude_min=True) | NEAR_POLES | st.sampled_from([2.0, 3.0])
)


@settings(deadline=None, max_examples=300)
@given(ALPHAS, st.floats(1.0, 100.0), st.floats(1.5, 1e12))
def test_predict_matches_high_precision_closed_forms(alpha, k_min, ratio):
    k_max = k_min * ratio
    r = predict(PowerLawSpec(alpha, k_min, k_max))
    c, mean, m2, var_to_mean = mp_closed_forms(alpha, k_min, k_max)
    assert abs(r.c - c) <= 1e-13 * c
    assert abs(r.mean_k - mean) <= 1e-13 * mean
    assert abs(r.second_moment - m2) <= 1e-13 * m2
    assert abs(r.var_to_mean - var_to_mean) <= 1e-13 * m2 / mean


@st.composite
def supports(draw, min_width=1e-12, unbounded=True):
    """(k_min, k_max): relative widths from ``min_width`` to 1e8, or unbounded."""
    k_min = draw(st.floats(1.0, 1e3))
    widths = st.floats(math.log10(min_width), 8.0).map(lambda e: 10.0**e)
    width = draw(widths | st.just(INFINITE) if unbounded else widths)
    return k_min, k_min * (1.0 + width)


@settings(deadline=None, max_examples=300)
@given(ALPHAS, supports(), st.floats(0.0, 1.0))
def test_cdf_matches_high_precision_closed_form(alpha, support, q):
    k_min, k_max = support
    k = k_min * 10.0 ** (8 * q) if math.isinf(k_max) else k_min + q * (k_max - k_min)
    k = min(k, k_max)
    want = mp_cdf(alpha, k_min, k_max, k)
    assert abs(cdf(PowerLawSpec(alpha, k_min, k_max), k) - want) <= 1e-13 * want


POINT_MASSES = st.floats(1.0, 1e3).map(lambda k: (k, k))


# Bounded supports only: with alpha near 1 an unbounded draw can exceed the
# float range.
@settings(deadline=None, max_examples=300)
@given(ALPHAS, supports(min_width=1e-16, unbounded=False) | POINT_MASSES,
       st.integers(0, 2000), st.integers(0, 2**32 - 1))
# Inverting the end powers put one draw above k_max here.
@example(2.580675134293169, (30.402248025194247, 30.402248025440286), 20000, 51)
def test_samples_lie_in_the_support(alpha, support, n, seed):
    k_min, k_max = support
    values = sample_continuous(PowerLawSpec(alpha, k_min, k_max), n, seed)
    assert values.size == n
    assert ((values >= k_min) & (values <= k_max)).all()


class TestSingularityContinuity:
    def test_general_vs_limit_near_alpha2(self):
        for k_max in (10.0, 1000.0):
            lim_mean, lim_m2 = moments_at_alpha2(1.0, k_max)
            for alpha in (2.0 - 1e-6, 2.0 + 1e-6):
                gen_mean, gen_m2 = moments_general(alpha, 1.0, k_max)
                assert abs(gen_mean - lim_mean) / lim_mean <= 1e-4
                assert abs(gen_m2 - lim_m2) / lim_m2 <= 1e-4

    def test_general_vs_limit_near_alpha3(self):
        for k_max in (10.0, 1000.0):
            lim_mean, lim_m2 = moments_at_alpha3(1.0, k_max)
            for alpha in (3.0 - 1e-6, 3.0 + 1e-6):
                gen_mean, gen_m2 = moments_general(alpha, 1.0, k_max)
                assert abs(gen_mean - lim_mean) / lim_mean <= 1e-4
                assert abs(gen_m2 - lim_m2) / lim_m2 <= 1e-4

    def test_predict_continuous_across_switch(self):
        for pivot in (2.0, 3.0):
            inside = predict(PowerLawSpec(pivot, 1.0, 500.0))
            for side in (-2e-6, 2e-6):
                outside = predict(PowerLawSpec(pivot + side, 1.0, 500.0))
                for field in ("mean_k", "second_moment", "var_to_mean", "k_ff"):
                    a = getattr(inside, field)
                    b = getattr(outside, field)
                    assert abs(a - b) / abs(a) <= 1e-4


class TestCrossFormulaIdentity:
    def test_kff_at_three_equals_mean_at_two(self):
        # Both reduce to k_min*k_max*ln(k_max/k_min)/(k_max-k_min).
        rng = np.random.default_rng(17)
        for _ in range(20):
            k_min = float(rng.uniform(1.0, 10.0))
            k_max = k_min * float(rng.uniform(1.5, 1e4))
            kff3 = predict(PowerLawSpec(3.0, k_min, k_max)).k_ff
            mean2 = predict(PowerLawSpec(2.0, k_min, k_max)).mean_k
            assert abs(kff3 - mean2) / mean2 <= 1e-12


class TestMonotonicity:
    def test_increasing_in_kmax(self):
        kmaxs = [10.0, 31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0]
        for alpha in (1.2, 1.6, 2.0, 2.4, 2.8):
            values = [
                predict(PowerLawSpec(alpha, 1.0, k)).var_to_mean for k in kmaxs
            ]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_alpha(self):
        alphas = [1.2, 1.5, 1.8, 2.0, 2.3, 2.6, 3.0]
        for k_max in (10.0, 100.0, 10000.0):
            values = [
                predict(PowerLawSpec(a, 1.0, k_max)).var_to_mean for a in alphas
            ]
            assert all(b < a for a, b in zip(values, values[1:]))


class TestSampling:
    def test_empty_sample(self):
        assert sample_degrees(PowerLawSpec(2.0, 1.0, 100.0), 0, 1).size == 0

    def test_deterministic(self):
        spec = PowerLawSpec(2.0, 1.0, 1000.0)
        a = sample_degrees(spec, 5000, 123)
        b = sample_degrees(spec, 5000, 123)
        assert (a == b).all()
        c = sample_degrees(spec, 5000, 124)
        assert (a != c).any()

    def test_values_within_rounded_support(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k_min = float(rng.uniform(1.0, 4.0))
            k_max = k_min * float(rng.uniform(2.0, 500.0))
            alpha = float(rng.uniform(1.1, 4.0))
            spec = PowerLawSpec(alpha, k_min, k_max)
            values = sample_degrees(spec, 500, int(rng.integers(1 << 30)))
            assert values.min() >= math.floor(k_min + 0.5)
            assert values.max() <= math.floor(k_max + 0.5)

    def test_rounding_is_half_up(self):
        spec = PowerLawSpec(2.0, 1.0, 100.0)
        cont = sample_continuous(spec, 2000, 9)
        ints = sample_degrees(spec, 2000, 9)
        assert (ints == np.floor(cont + 0.5)).all()

    def test_ks_distance_small(self):
        spec = PowerLawSpec(2.0, 1.0, 1000.0)
        values = np.sort(sample_continuous(spec, 100000, 7))
        model = cdf(spec, values)
        n = values.size
        steps = np.arange(1, n + 1) / n
        ks = np.maximum(np.abs(steps - model), np.abs(steps - 1.0 / n - model)).max()
        assert ks < 0.02

    def test_unbounded_continuous_sampling(self):
        values = sample_continuous(PowerLawSpec(2.5, 1.0, INFINITE), 10000, 21)
        assert values.min() >= 1.0
        assert np.isfinite(values).all()

    def test_integer_sampling_requires_finite_kmax(self):
        with pytest.raises(DivergentError):
            sample_degrees(PowerLawSpec(4.0, 1.0, INFINITE), 10, 0)

    def test_largest_uniform_draw_stays_in_the_support(self, monkeypatch):
        # u = 1 - 2**-53, the largest value random() returns, lifts the
        # inverse cdf on [15, 15.316] one ulp past k_max before clamping.
        class Top:
            def random(self, n):
                return np.full(n, 1.0 - 2.0**-53)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Top())
        values = sample_continuous(PowerLawSpec(2.04, 15.0, 15.316), 3, 0)
        assert (values == 15.316).all()

    def test_degenerate_sampling_is_constant(self):
        values = sample_degrees(PowerLawSpec(2.0, 5.0, 5.0), 50, 3)
        assert (values == 5).all()


def test_alpha_within_rounding_of_one_is_answered():
    # k**(1 - alpha) rounds to 1.0 at both ends of the support, yet C, the
    # density, the cdf and sampling are all answered.
    spec = PowerLawSpec(1.0 + 2.0**-52, 4.0, 5.0)
    c = mp_closed_forms(spec.alpha, spec.k_min, spec.k_max)[0]
    assert normalization_constant(spec) == pytest.approx(float(c), rel=1e-13)
    density = c * mpmath.mpf(4.5) ** -spec.alpha
    assert pdf(spec, 4.5) == pytest.approx(float(density), rel=1e-13)
    want = float(mp_cdf(spec.alpha, spec.k_min, spec.k_max, 4.5))
    np.testing.assert_allclose(cdf(spec, [4.5, 1e301]), [want, 1.0], rtol=1e-13)
    values = sample_continuous(spec, 1000, 0)
    assert ((values >= 4.0) & (values <= 5.0)).all()
    assert set(sample_degrees(spec, 1000, 0)) == {4, 5}


def test_underflowing_end_powers_sample_but_have_no_float_c():
    # k**(1 - alpha) underflows to 0.0 at both ends.  The cdf and the sampler
    # work in span = ln(k / k_min); C = 5e1500 is not a float.
    spec = PowerLawSpec(6.0, 1e300, INFINITE)
    want = float(mp_cdf(6.0, 1e300, INFINITE, 1e301))
    np.testing.assert_allclose(cdf(spec, [4.5, 1e301]), [0.0, want], rtol=1e-13)
    values = sample_continuous(spec, 1000, 0)
    assert np.isfinite(values).all() and (values >= 1e300).all()
    for call in (normalization_constant, lambda s: pdf(s, 2e300)):
        with pytest.raises(DivergentError, match="not finite"):
            call(spec)
