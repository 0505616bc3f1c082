"""Potential families: closed forms and the standing-assumption checker."""

import math
import warnings

import numpy as np
import pytest

from inls_lab.params import ProblemParams
from inls_lab.potential import (
    BORDERLINE,
    FAILS,
    HOLDS,
    AssumptionReport,
    PotentialSpec,
    check_assumptions,
    eval_potential,
)

from conftest import F1, F2


def test_spec_constructor_gates():
    with pytest.raises(ValueError):
        PotentialSpec("harmonic")
    with pytest.raises(ValueError):
        PotentialSpec.smooth_bump(-1.0, 2.0)
    with pytest.raises(ValueError):
        PotentialSpec.inverse_power(1.0, 0.0)
    with pytest.raises(ValueError, match="a=nan must be finite"):
        PotentialSpec.smooth_bump(math.nan, 2.0)
    with pytest.raises(ValueError, match="s=inf must be finite"):
        PotentialSpec.smooth_bump(0.5, math.inf)
    assert PotentialSpec.zero().is_zero
    assert PotentialSpec.smooth_bump(0.0, 2.0).is_zero
    assert not PotentialSpec.const_plus_gaussian(0.5).is_zero


def test_closed_forms_match_manual_derivatives():
    r = np.array([0.3, 1.0, 2.7])

    V, rVp, r2Vpp = eval_potential(PotentialSpec.inverse_power(2.0, 1.5), r)
    assert V == pytest.approx(2.0 * r**-1.5, rel=1e-14)
    assert rVp == pytest.approx(-1.5 * 2.0 * r**-1.5, rel=1e-14)
    assert r2Vpp == pytest.approx(1.5 * 2.5 * 2.0 * r**-1.5, rel=1e-14)

    V, rVp, r2Vpp = eval_potential(PotentialSpec.smooth_bump(1.0, 3.0), r)
    q = 1 + r**2
    assert V == pytest.approx(q**-1.5, rel=1e-14)
    assert rVp == pytest.approx(-3.0 * r**2 * q**-2.5, rel=1e-14)
    assert r2Vpp == pytest.approx(-3.0 * r**2 * q**-3.5 * (1 - 4 * r**2), rel=1e-14)

    V, rVp, r2Vpp = eval_potential(PotentialSpec.const_plus_gaussian(1.0), r)
    e = np.exp(-(r**2))
    assert V == pytest.approx(1 + e, rel=1e-14)
    assert rVp == pytest.approx(-2 * r**2 * e, rel=1e-14)
    assert r2Vpp == pytest.approx(2 * r**2 * (2 * r**2 - 1) * e, rel=1e-14)


def test_rvp_matches_finite_difference():
    # Independent cross-check of the closed forms by central differences.
    # Radii stop at 3: beyond that the Gaussian part of V is below the
    # rounding of the constant term and the difference is pure noise.
    r = np.geomspace(0.1, 3.0, 20)
    h = 1e-6 * r
    for spec in [
        PotentialSpec.inverse_power(1.3, 0.7),
        PotentialSpec.smooth_bump(0.8, 2.2),
        PotentialSpec.const_plus_gaussian(1.1),
    ]:
        V_plus = eval_potential(spec, r + h)[0]
        V_minus = eval_potential(spec, r - h)[0]
        fd = r * (V_plus - V_minus) / (2 * h)
        assert eval_potential(spec, r)[1] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_zero_potential_satisfies_everything():
    rep = check_assumptions(PotentialSpec.zero(), F2)
    assert all(v.holds for v in rep.verdicts().values())
    assert rep.omega1 == 0.0
    assert math.copysign(1.0, rep.omega1) == 1.0  # +0.0, not -0.0


def test_slow_bump_holds_pointwise_assumptions():
    # s <= 2-b keeps (I) and (IV); decay that slow cannot give (II), whose
    # infinity exponent needs s > 2-b, so the two are mutually exclusive
    # for this family.
    rep = check_assumptions(PotentialSpec.smooth_bump(0.5, 2.0), F2)
    assert rep.holds_I.status == HOLDS
    assert rep.holds_III.status == HOLDS
    assert rep.holds_IV.status == HOLDS
    assert rep.holds_II.status == FAILS
    assert "diverges at infinity" in rep.holds_II.note
    assert rep.omega1 <= 0.0


def test_integrability_fails_at_critical_decay():
    # s = 2 - b puts the tail exponent exactly on the divergence boundary.
    s = 2.0 - F2.b
    rep = check_assumptions(PotentialSpec.inverse_power(1.0, s), F2)
    assert rep.holds_II.status == FAILS
    assert rep.holds_II.witness is not None
    assert "diverges at infinity" in rep.holds_II.note
    # The other three hold for inverse powers with s < 2 - b not required here:
    # (III) does hold since rV' = -s V <= 0.
    assert rep.holds_III.status == HOLDS


def test_integrability_fails_at_origin():
    # Steep singularity: origin exponent n-1-ns/2-nb/2 <= -1.
    rep = check_assumptions(PotentialSpec.inverse_power(1.0, 3.0), F1)
    assert rep.holds_II.status == FAILS
    assert "diverges at zero" in rep.holds_II.note
    assert rep.holds_II.witness == pytest.approx(1e-6)


def test_integrability_fails_at_origin_without_overflow_warnings():
    # At n = 6 the (II) integrand |rV'|^3 r^5 overflows at r = 1e-6; the
    # verdict comes from the exponents, so no quadrature is taken.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_assumptions(PotentialSpec.inverse_power(1.0, 20.0), ProblemParams(6, 0.0, 0.0, 1.0))
    assert rep.holds_II.status == FAILS
    assert "diverges at zero" in rep.holds_II.note


def test_overflowing_potential_is_refused():
    # r^-60 overflows at the innermost samples; verdicts read off those
    # samples would be NaN comparisons.
    spec = PotentialSpec.inverse_power(1.0, 60.0)
    with pytest.raises(ValueError, match=r"inverse_power.*not finite at r = 1e-06"):
        check_assumptions(spec, F2)


def test_zero_amplitude_is_the_zero_potential():
    rep = check_assumptions(PotentialSpec.inverse_power(0.0, 60.0), F2)
    assert all(v.holds for v in rep.verdicts().values())
    assert rep.omega1 == 0.0


def test_integrability_borderline_band():
    # Decay exponent placing the infinity tail 5e-13 inside the convergent
    # side of the boundary: too close to certify numerically.
    rep = check_assumptions(PotentialSpec.smooth_bump(1.0, 2.0 + 3.3e-13), F1)
    assert rep.holds_II.status == BORDERLINE
    assert "within rounding" in rep.holds_II.note


def test_monotonicity_fails_for_growing_potential():
    # Negative decay exponent makes the bump grow, so x.grad V > 0.
    rep = check_assumptions(PotentialSpec.smooth_bump(1.0, -1.0), F2)
    assert rep.holds_III.status == FAILS
    assert rep.holds_III.witness is not None


def test_positivity_combination_fails_for_steep_inverse_power():
    # s > 2 - b makes (2-b)V + rV' = (2-b-s)V < 0, worst at the innermost sample.
    rep = check_assumptions(PotentialSpec.inverse_power(1.0, 3.0), F2)
    assert rep.holds_I.status == FAILS
    assert rep.holds_I.witness == pytest.approx(1e-6)
    assert rep.omega1 > 0.0


def test_convexity_combination_fails_for_const_plus_gaussian():
    rep = check_assumptions(PotentialSpec.const_plus_gaussian(1.0), F2)
    assert rep.holds_IV.status == FAILS
    # The violation 2 a r^2 e^{-r^2} (2r^2 - 4 + b) is positive iff
    # r^2 > 2 - b/2, so any witness must sit beyond that radius.
    assert rep.holds_IV.witness is not None
    assert rep.holds_IV.witness ** 2 > 2 - F2.b / 2
    # (I) and (III) still hold and the shift stays nonpositive.
    assert rep.holds_I.status == HOLDS
    assert rep.holds_III.status == HOLDS
    assert rep.omega1 < 0.0


@pytest.mark.parametrize("params", [F1, F2], ids=["F1", "F2"])
def test_fast_bump_holds_integrability_and_fails_convexity(params):
    # s > 2-b gives (II), the other half of the exclusion above.  (IV) then
    # fails: a s r^2 (1+r^2)^{-(s+4)/2} ((s-2+b) r^2 - (4-b)) <= 0 is the
    # inequality, violated from r^2 = (4-b)/(s-2+b) on.
    s = 4.0
    rep = check_assumptions(PotentialSpec.smooth_bump(1.0, s), params)
    assert rep.holds_II.status == HOLDS
    assert rep.holds_III.status == HOLDS
    assert rep.holds_IV.status == FAILS
    assert rep.holds_IV.witness ** 2 > (4 - params.b) / (s - 2 + params.b)


def test_constant_bump_satisfies_everything():
    # s = 0 makes the bump the constant a: rV' = r^2 V'' = 0.
    rep = check_assumptions(PotentialSpec.smooth_bump(0.7, 0.0), F2)
    assert all(v.holds for v in rep.verdicts().values())
    assert rep.omega1 < 0.0


def test_report_serialization_shape():
    rep = check_assumptions(PotentialSpec.const_plus_gaussian(1.0), F2)
    d = rep.as_dict()
    assert set(d) == {"I", "II", "III", "IV", "omega1"}
    assert d["IV"]["status"] == FAILS
    assert "witness" in d["IV"]
    assert isinstance(rep, AssumptionReport)


def test_decaying_potential_is_judged_at_its_own_scale():
    # s just above 2-b: (2-b)V + rV' and -(3-b)rV' - r^2 V'' both turn
    # negative where V has decayed below 1e-10, so a tolerance of
    # 1e-12 (1 + |V|) read (I) and (IV) as Holds beside omega1 > 0.
    params = ProblemParams(5, -2.4486, 0.0, 1.0)
    rep = check_assumptions(PotentialSpec.smooth_bump(1.0, 4.4488), params)
    assert rep.omega1 > 0
    assert rep.holds_I.status == FAILS
    assert rep.holds_IV.status == FAILS
    assert rep.holds_III.status == HOLDS
    # at s = 2-b both hold again: the combinations stay nonnegative
    rep = check_assumptions(PotentialSpec.smooth_bump(1.0, 4.4486), params)
    assert rep.holds_I.status == HOLDS and rep.holds_IV.status == HOLDS
    assert rep.omega1 <= 0
