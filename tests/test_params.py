"""Parameter validation and the exponent algebra of ProblemParams."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inls_lab.params import (
    Criticality,
    ParameterError,
    ProblemParams,
    validate_gn_window,
)

from conftest import F1, MC, NM


def s_c(params):
    """The scaling index n/2 - (2-b+c)/p of the homogeneous Sobolev norm."""
    return params.n / 2 - (2 - params.b + params.c) / params.p


def test_intercritical_fixture_exponents():
    assert F1.p_c == pytest.approx(6.0, rel=1e-15)
    assert s_c(F1) == pytest.approx(0.5, rel=1e-15)
    assert F1.criticality is Criticality.INTERCRITICAL
    assert F1.sigma == pytest.approx(1.0, rel=1e-12)


def test_mass_critical_fixture_exponents():
    assert MC.p_c == pytest.approx(4.0, rel=1e-15)
    assert s_c(MC) == pytest.approx(0.0, abs=1e-15)
    assert MC.criticality is Criticality.MASS_CRITICAL
    assert MC.sigma is None


def test_negative_exponent_fixture():
    assert NM.p_c == pytest.approx(3 * 1.5 + 1.2, rel=1e-15)
    assert NM.criticality is Criticality.INTERCRITICAL


def test_mass_subcritical():
    d = ProblemParams(3, 0.0, 0.0, 1.0)
    assert d.p_c == pytest.approx(3.0)
    assert d.criticality is Criticality.MASS_SUBCRITICAL
    assert d.sigma is None


def test_energy_critical():
    d = ProblemParams(3, 0.0, 0.0, 4.0)
    assert d.criticality is Criticality.ENERGY_CRITICAL
    assert s_c(d) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2, b=0.0, c=0.0, p=2.0),
        dict(n=3, b=2.0, c=0.0, p=2.0),
        dict(n=3, b=-1.0, c=0.0, p=2.0),
        dict(n=3, b=0.0, c=-2.5, p=2.0),
        dict(n=3, b=0.0, c=0.0, p=0.0),
        dict(n=3, b=0.0, c=0.0, p=-1.0),
        dict(n=3, b=0.0, c=0.0, p=5.0),
        dict(n=3, b=0.0, c=0.0, p=2.0, omega=0.0),
        dict(n=3, b=0.0, c=0.0, p=2.0, omega=-1.0),
    ],
)
def test_invalid_parameters_raise(kwargs):
    with pytest.raises(ParameterError):
        ProblemParams(**kwargs)


@pytest.mark.parametrize("field", ["p", "omega"])
def test_non_finite_parameters_raise(field):
    kwargs = dict(n=3, b=0.0, c=0.0, p=2.0, omega=1.0)
    with pytest.raises(ParameterError, match=f"{field}=inf must be finite"):
        ProblemParams(**{**kwargs, field: math.inf})


def test_n_must_be_integer():
    with pytest.raises(ParameterError):
        ProblemParams(3.0, 0.0, 0.0, 2.0)


def test_b_lower_bound_depends_on_n():
    # b = -1 is out of range for n = 3 but fine for n = 4.
    ProblemParams(4, -1.0, -1.0, 2.5)
    with pytest.raises(ParameterError):
        ProblemParams(3, -1.0, -1.0, 2.5)


def test_with_omega():
    q = F1.with_omega(2.5)
    assert q.omega == 2.5
    assert (q.n, q.b, q.c, q.p) == (F1.n, F1.b, F1.c, F1.p)
    with pytest.raises(ParameterError):
        F1.with_omega(0.0)


def test_gn_window_membership():
    assert validate_gn_window(F1)
    # For c <= 0 the lower edge -2c < n p always holds, so only the upper
    # (energy-critical) edge can exclude, and it is excluded strictly.
    assert validate_gn_window(MC)
    assert not validate_gn_window(ProblemParams(3, 0.0, 0.0, 4.0))
    # c > 0 branch: lower edge is (2-b)p/2.
    assert not validate_gn_window(ProblemParams(3, 0.0, 2.0, 1.5))
    assert validate_gn_window(ProblemParams(3, 0.0, 2.0, 2.5))


@st.composite
def admissible_params(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    b = draw(st.floats(min_value=2.0 - n + 0.05, max_value=1.9))
    c = draw(st.floats(min_value=b - 1.95, max_value=2.0))
    p = draw(st.floats(min_value=0.05, max_value=6.0))
    try:
        return ProblemParams(n, float(b), float(c), float(p))
    except ParameterError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(admissible_params())
def test_exponent_identities(params):
    assert params.p_c == pytest.approx(params.n * params.p - 2 * params.c, rel=1e-12)
    # The two closed forms of the scaling index must agree.
    from_p_c = (params.p_c - 2 * (2 - params.b)) / (2 * params.p)
    assert s_c(params) == pytest.approx(from_p_c, rel=1e-9, abs=1e-12)
    if params.criticality is Criticality.INTERCRITICAL:
        assert params.sigma is not None and params.sigma > 0
        assert_sigma_within_rounding(params)
    elif params.criticality in (Criticality.MASS_CRITICAL, Criticality.MASS_SUBCRITICAL):
        assert params.sigma is None
    assert math.isfinite(params.p_c)


def assert_sigma_within_rounding(params):
    """sigma against its exact rational value at the float parameters, to
    a few eps times the condition numbers of its two differences."""
    n, b, c, p = params.n, Fraction(params.b), Fraction(params.c), Fraction(params.p)
    energy_gap = (2 - b) * (p + 2) - (n * p - 2 * c)
    mass_gap = (n * p - 2 * c) - 2 * (2 - b)
    exact = energy_gap / mass_gap
    terms = n * abs(p) + 2 * abs(c) + 2 * abs(2 - b)
    cond = (terms + abs(2 - b) * (p + 2)) / abs(energy_gap) + terms / abs(mass_gap)
    err = abs(Fraction(params.sigma) - exact)
    assert err <= 8 * Fraction(sys.float_info.epsilon) * cond * abs(exact)


@pytest.mark.parametrize(
    "n, b, c, p",
    [
        (4, 0.31867492189140445, 1.4939171736776444, 1.5876935016510074),
        (3, 0.0, 0.0, 4.0 / 3.0 + 1e-4),
        (3, 0.0, 0.0, 4.0 / 3.0 + 1e-6),
    ],
)
def test_sigma_near_the_mass_line(n, b, c, p):
    # s_c is about 1e-4 or below: the two closed forms of sigma differ by
    # more than 1e-12 relative there from rounding alone, and a check that
    # they agree to 1e-12 refused these intercritical sets.
    params = ProblemParams(n, b, c, p)
    assert params.criticality is Criticality.INTERCRITICAL
    assert params.sigma == pytest.approx((2 - b - 2 * s_c(params)) / (2 * s_c(params)), rel=1e-9)
    assert_sigma_within_rounding(params)
