"""The paper's moment forms of the truncated power law, as written there.

The general form is 0/0 at alpha = 2 and 3; the two limits are its analytic
values at those points.  ``ffparadox.powerlaw`` evaluates one regular form
instead, and the tests use these as the paper's reference.
"""

import math


def moments_general(alpha: float, k_min: float, k_max: float):
    """The paper's general (mean, second moment), 0/0 at alpha = 2, 3; a reference."""
    d1 = k_max ** (1.0 - alpha) - k_min ** (1.0 - alpha)
    d2 = k_max ** (2.0 - alpha) - k_min ** (2.0 - alpha)
    d3 = k_max ** (3.0 - alpha) - k_min ** (3.0 - alpha)
    mean = ((alpha - 1.0) / (alpha - 2.0)) * (d2 / d1)
    m2 = ((alpha - 1.0) / (alpha - 3.0)) * (d3 / d1)
    return mean, m2


def moments_at_alpha2(k_min: float, k_max: float):
    """Analytic alpha -> 2 limits: mean = k_min*k_max*ln(k_max/k_min)/(k_max-k_min),
    second moment = k_min*k_max."""
    mean = k_min * k_max * math.log(k_max / k_min) / (k_max - k_min)
    m2 = k_min * k_max
    return mean, m2


def moments_at_alpha3(k_min: float, k_max: float):
    """Analytic alpha -> 3 limits: mean = 2*k_min*k_max/(k_min+k_max) (harmonic
    mean, still given by the general first-moment form), second moment =
    2*k_min**2*k_max**2*ln(k_max/k_min)/(k_max**2 - k_min**2)."""
    mean = 2.0 * k_min * k_max / (k_min + k_max)
    m2 = (
        2.0
        * k_min**2
        * k_max**2
        * math.log(k_max / k_min)
        / (k_max**2 - k_min**2)
    )
    return mean, m2
