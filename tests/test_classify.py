"""Verdict routes: thresholds, action sets, frequency optimization."""

import dataclasses
import math

import numpy as np
import pytest

from inls_lab.classify import (
    BLOWUP_CANDIDATE,
    GLOBAL_CANDIDATE,
    NOT_APPLICABLE,
    UNDETERMINED,
    ClassifyError,
    Evidence,
    classify_all,
    optimal_frequency,
)
from inls_lab.functionals import evaluate_all
from inls_lab.grid import RadialField
from inls_lab.params import ProblemParams
from inls_lab.potential import PotentialSpec

from conftest import F1, F2, MC, NM, grid_for, solve

ZERO = PotentialSpec.zero()


def multiple(gs, t):
    return RadialField(gs.profile.grid, t * gs.profile.values)


def evidence_map(entry):
    return {e.name: e for e in entry.evidence}


def mass_critical(u0, params, spec, gs1):
    return classify_all(u0, params, spec, gs1).entry("mass_critical_threshold")


def intercritical(u0, params, spec, gs1):
    return classify_all(u0, params, spec, gs1).entry("intercritical_threshold")


def sets(u0, params, spec, gs, omega):
    return classify_all(u0, params, spec, gs, omega).entry("action_set_membership")


def near_note(entry):
    return [n for n in entry.notes if n.startswith("near_boundary")]


def with_report(gs, **changes):
    """gs with some quadratures of its report replaced."""
    return dataclasses.replace(gs, report=dataclasses.replace(gs.report, **changes))


def inflated(gs, t):
    """gs with t copies of its quadratures: the Pohozaev identities still
    hold, but every threshold and the minimal action are t times too large."""
    r = gs.report
    return with_report(
        gs, mass=t * r.mass, grad_sq=t * r.grad_sq, nonlinear_term=t * r.nonlinear_term
    )


def test_evidence_side_three_way():
    assert Evidence("x", 1.0, 2.0, 0.5).side == "below"
    assert Evidence("x", 2.0, 1.0, 0.5).side == "above"
    # The edge of the band is inside it, and a zero band holds equality only.
    assert Evidence("x", 1.0, 1.5, 0.5).side == "band"
    assert Evidence("x", 2.0, 1.5, 0.5).side == "band"
    assert Evidence("x", 1.0, 1.0, 0.0).side == "band"
    assert Evidence("x", 1.0, 1.0 + 2**-52, 0.0).side == "below"
    assert Evidence("x", 1e-9, 0.0, 1e-12).side == "above"
    assert Evidence("x", 1e-9, 0.0, 1.0).as_dict() == {
        "name": "x", "lhs": 1e-9, "rhs": 0.0, "band": 1.0
    }


def test_mass_critical_dichotomy(gs_mc):
    low = mass_critical(multiple(gs_mc, 0.9), MC, ZERO, gs_mc)
    assert low.verdict == GLOBAL_CANDIDATE
    ev = evidence_map(low)
    assert ev["mass_norm_vs_threshold"].lhs < ev["mass_norm_vs_threshold"].rhs
    assert ev["energy_vs_zero"].lhs > 0

    high = mass_critical(multiple(gs_mc, 1.2), MC, ZERO, gs_mc)
    assert high.verdict == BLOWUP_CANDIDATE
    assert evidence_map(high)["energy_vs_zero"].lhs < 0
    assert any("negative energy" in n for n in high.notes)

    at = mass_critical(multiple(gs_mc, 1.0), MC, ZERO, gs_mc)
    assert at.verdict == UNDETERMINED
    assert at.near_boundary
    assert near_note(at) == ["near_boundary: mass_norm_vs_threshold inside the dead band"]


def test_mass_critical_gates_on_criticality(gs_f1):
    entry = mass_critical(multiple(gs_f1, 0.5), F1, ZERO, gs_f1)
    assert entry.verdict == NOT_APPLICABLE
    assert entry.assumptions["criticality_mass_critical"] == "Fails"
    assert any("gating failed" in n for n in entry.notes)


def test_intercritical_dichotomy(gs_f1):
    low = intercritical(multiple(gs_f1, 0.5), F1, ZERO, gs_f1)
    assert low.verdict == GLOBAL_CANDIDATE
    ev = evidence_map(low)
    # Each product row is log(product/threshold) against 0, banded by 1e-6:
    # log(27.8986305911/178.551655229) for the energy-mass product, and
    # (1 + sigma) log 0.5 with sigma = 1 for the gradient-mass product of 0.5Q.
    em, grad = ev["em_product_vs_threshold"], ev["grad_product_vs_threshold"]
    assert em.lhs == pytest.approx(-1.85630033953, abs=1e-9)
    assert grad.lhs == pytest.approx(2 * math.log(0.5), abs=1e-12)
    assert (em.rhs, em.band) == (grad.rhs, grad.band) == (0.0, 1e-6)

    high = intercritical(multiple(gs_f1, 1.5), F1, ZERO, gs_f1)
    assert high.verdict == BLOWUP_CANDIDATE
    ev = evidence_map(high)
    # A negative energy passes the energy-mass gate outright: E_Q > 0.
    assert ev["energy_vs_zero"].lhs < 0 and ev["energy_vs_zero"].band == 0.0
    assert ev["grad_product_vs_threshold"].lhs > 0
    assert any("radial branch also applies (p < 4)" in n for n in high.notes)

    at = intercritical(multiple(gs_f1, 1.0), F1, ZERO, gs_f1)
    assert at.verdict == UNDETERMINED
    assert at.near_boundary
    assert near_note(at) == ["near_boundary: em_product_vs_threshold inside the dead band"]


def test_intercritical_blow_up_without_the_radial_branch():
    # p = 4 is intercritical for (n, b, c) = (3, 0, 1) and inside the
    # interpolation window, but the radial branch needs p < 4.
    params = ProblemParams(3, 0.0, 1.0, 4.0)
    gs = solve(params, 4096)
    entry = intercritical(multiple(gs, 1.2), params, ZERO, gs)
    assert entry.verdict == BLOWUP_CANDIDATE
    assert entry.notes[-1] == "radial branch unavailable (p >= 4)"


def test_intercritical_energy_mass_product_above_threshold(gs_f1):
    # A thin shell of positive energy whose energy-mass product is more
    # than three times the ground state's: neither branch applies.
    grid = gs_f1.profile.grid
    u0 = RadialField(grid, 0.3 * np.exp(-(((grid.nodes - 5.0) / 0.5) ** 2)))
    entry = intercritical(u0, F1, ZERO, gs_f1)
    em = evidence_map(entry)["em_product_vs_threshold"]
    assert em.lhs > math.log(3) and em.rhs == 0
    assert entry.verdict == UNDETERMINED
    assert not entry.near_boundary
    assert entry.notes == ("energy-mass product above threshold: no branch applies",)


def test_intercritical_is_phase_invariant(gs_f1):
    u = multiple(gs_f1, 0.5)
    rotated = RadialField(u.grid, np.exp(0.7j) * u.values)
    a = intercritical(u, F1, ZERO, gs_f1)
    b = intercritical(rotated, F1, ZERO, gs_f1)
    assert b.verdict == a.verdict
    ea, eb = evidence_map(a), evidence_map(b)
    for name in ea:
        assert eb[name].lhs == pytest.approx(ea[name].lhs, rel=1e-12)


def test_intercritical_gates_on_potential_assumptions(gs_f1):
    # Steep inverse power: (I) fails, so the route must stand down.
    entry = intercritical(
        multiple(gs_f1, 0.5), F1, PotentialSpec.inverse_power(1.0, 3.0), gs_f1
    )
    assert entry.verdict == NOT_APPLICABLE
    assert entry.assumptions["assumption_I"] == "Fails"


def test_sets_membership_positive_k(gs_f1):
    entry = sets(multiple(gs_f1, 0.1), F1, ZERO, gs_f1, omega=1.0)
    assert entry.verdict == GLOBAL_CANDIDATE
    assert any("nonnegative-K set" in n for n in entry.notes)
    ev = evidence_map(entry)
    assert ev["action_vs_min_action"].lhs < ev["action_vs_min_action"].rhs
    assert ev["k_n2_vs_zero"].lhs > 0


def test_sets_membership_negative_k_without_window(gs_f1):
    entry = sets(multiple(gs_f1, 1.5), F1, ZERO, gs_f1, omega=1.0)
    # b = 0 leaves the blow-up window bound undefined, so membership in
    # the negative-K set alone stays Undetermined.
    assert entry.verdict == UNDETERMINED
    assert any("negative-K set" in n for n in entry.notes)
    assert any("undefined at b = 0" in n for n in entry.notes)
    ev = evidence_map(entry)
    assert ev["k_n2_vs_zero"].lhs < 0
    assert "k_gap_bound" in ev


def test_sets_negative_k_outside_the_blow_up_window(gs_f2):
    # F2 has c <= b < 0, but p_c = 7 lies above the window bound
    # 2c(2-b)/b = 5, so the negative-K set alone stays Undetermined.
    entry = sets(multiple(gs_f2, 1.2), F2, ZERO, gs_f2, omega=1.0)
    assert entry.verdict == UNDETERMINED
    assert not entry.near_boundary
    assert entry.notes[-1] == "inside the negative-K set but outside the blow-up window"
    window = evidence_map(entry)["pc_vs_blowup_window"]
    assert (window.lhs, window.rhs) == (pytest.approx(7.0), pytest.approx(5.0))


def test_sets_ground_state_sits_on_boundary(gs_f1):
    entry = sets(multiple(gs_f1, 1.0), F1, ZERO, gs_f1, omega=1.0)
    assert entry.verdict == NOT_APPLICABLE
    assert entry.near_boundary
    assert any("action not below" in n for n in entry.notes)
    assert near_note(entry) == ["near_boundary: action_vs_min_action inside the dead band"]


def test_k_band_does_not_move_with_the_frequency():
    # A small NMINUS Gaussian: its optimized frequency is 3.5e16, where
    # omega*M dwarfs K^{n,2} = 0.947.  K has no omega term, so neither
    # its band nor the set-route verdict may depend on omega.
    gs = solve(NM, 4096)
    g = gs.profile.grid
    u0 = RadialField(g, 0.3 * np.exp(-((g.nodes / 0.5) ** 2)))
    cls = classify_all(u0, NM, ZERO, gs)
    assert cls.frequency.omega0 > 1e16
    entries = [cls.entry("action_set_membership")]
    entries += [sets(u0, NM, ZERO, gs, 10.0**k) for k in range(17)]
    k_rows = [evidence_map(e)["k_n2_vs_zero"] for e in entries]
    assert {e.verdict for e in entries} == {GLOBAL_CANDIDATE}
    assert not any(e.near_boundary for e in entries)
    assert len({(r.lhs, r.band) for r in k_rows}) == 1
    assert 0 < 1e3 * k_rows[0].band < k_rows[0].lhs


def test_set_route_decides_near_the_mass_line():
    # sigma = 88.6 puts omega0 at 1.6e8 for 0.9Q; K^{n,2} = 20.3 is far
    # outside a band of 1e-6 times the sizes of its terms.
    params = ProblemParams(3, 0.0, 0.0, 4 / 3 + 1e-2)
    gs = solve(params, 4096)
    cls = classify_all(multiple(gs, 0.9), params, ZERO, gs)
    assert cls.frequency.omega0 > 1e8
    assert [e.verdict for e in cls.entries] == [NOT_APPLICABLE, GLOBAL_CANDIDATE, GLOBAL_CANDIDATE]
    assert not any(e.near_boundary for e in cls.entries)


@pytest.mark.parametrize("params", [F1, F2, NM], ids=["F1", "F2", "NMINUS"])
def test_verdicts_are_invariant_under_dilation(params):
    # The products and the optimized set route are invariant under
    # u -> lam^{(2-b+c)/p} u(lam .), so no verdict may change with lam.
    gs = solve(params, 8192)
    r = gs.profile.grid.nodes
    rng = np.random.default_rng(7)
    for amp, width in zip(rng.uniform(0.3, 2.0, 15), rng.uniform(0.5, 2.0, 15)):
        verdicts = set()
        for lam in (0.5, 0.71, 1.0, 1.41, 2.0):
            scale = lam ** ((2 - params.b + params.c) / params.p)
            u0 = RadialField(gs.profile.grid, scale * amp * np.exp(-((lam * r / width) ** 2)))
            verdicts.add(tuple(e.verdict for e in classify_all(u0, params, ZERO, gs).entries))
        assert len(verdicts) == 1, (amp, width, verdicts)


def test_gap_bound_violated_against_an_inflated_minimal_action(gs_f1):
    # The gate equivalence still holds, but against a minimal action ten
    # times too large K^{n,2} of 1.5Q no longer meets the gap bound.
    entry = sets(multiple(gs_f1, 1.5), F1, ZERO, inflated(gs_f1, 10), omega=1.0)
    gap = evidence_map(entry)["k_gap_bound"]
    assert gap.side == "above"
    assert "gap bound violated: check resolution of the minimal action" in entry.notes
    assert entry.verdict == UNDETERMINED


def test_k_inside_its_band_withholds_the_set_verdict(gs_f1):
    # On K^{n,2} = 0 the action is at least m_omega, so only an inflated
    # minimal action lets such a datum into the sub-action sets; there
    # the sign of K is undecided.  A Gaussian is scaled onto K = 0.
    g = gs_f1.profile.grid
    phi = np.exp(-(g.nodes**2))
    rep = evaluate_all(RadialField(g, phi), F1, ZERO)
    ratio = (2 - F1.b) * (F1.p + 2) * rep.grad_sq / (F1.p_c * rep.nonlinear_term)
    u0 = RadialField(g, ratio ** (1 / F1.p) * phi)
    entry = sets(u0, F1, ZERO, inflated(gs_f1, 10), omega=1.0)
    assert evidence_map(entry)["k_n2_vs_zero"].side == "band"
    assert entry.verdict == UNDETERMINED
    assert near_note(entry) == ["near_boundary: k_n2_vs_zero inside the dead band"]


def test_sets_rescales_min_action_for_other_frequencies(gs_f1):
    entry = sets(multiple(gs_f1, 0.1), F1, ZERO, gs_f1, omega=2.0)
    assert any("rescaled from omega = 1" in n for n in entry.notes)
    ev = evidence_map(entry)
    # m_2 = 2^{1/2} m_1 for these exponents.
    assert ev["action_vs_min_action"].rhs == pytest.approx(
        np.sqrt(2.0) * gs_f1.m_omega, rel=1e-12
    )
    with pytest.raises(ClassifyError, match="positive"):
        sets(multiple(gs_f1, 0.1), F1, ZERO, gs_f1, omega=0.0)


def test_optimal_frequency_frozen_values(gs_f1):
    rep = optimal_frequency(multiple(gs_f1, 0.5), F1, gs_f1)
    assert rep.omega0 == pytest.approx(16.0001252898, rel=1e-9)
    assert rep.gap.lhs == pytest.approx(31.8891254463, rel=1e-9)
    assert rep.em.lhs == pytest.approx(-1.85630033953, abs=1e-9)
    assert not rep.near_boundary
    assert rep.gap.side == "above" and rep.em.side == "below"
    assert rep.as_dict() == {
        "omega0": rep.omega0,
        "gap": rep.gap.as_dict(),
        "em": rep.em.as_dict(),
        "near_boundary": False,
    }
    assert rep.as_dict()["em"] == {
        "name": "em_product_vs_threshold", "lhs": rep.em.lhs, "rhs": 0.0, "band": 1e-6
    }


def test_intercritical_route_decides_on_the_frequency_row(gs_f1):
    cls = classify_all(multiple(gs_f1, 0.5), F1, ZERO, gs_f1)
    em = evidence_map(cls.entry("intercritical_threshold"))["em_product_vs_threshold"]
    assert em is cls.frequency.em
    # The threshold is Q's own report: no power of the mass is formed.
    u, q = evaluate_all(multiple(gs_f1, 0.5), F1, ZERO), gs_f1.report
    log_em = math.log(u.energy) - math.log(q.energy) + F1.sigma * (
        math.log(u.mass) - math.log(q.mass)
    )
    assert (em.lhs, em.rhs) == (log_em, 0.0)


def test_gate_equivalence_violation_is_refused(gs_f1):
    # A gradient term 0.8 times Q's breaks the Pohozaev identities that
    # tie f(omega0) > 0 to the energy-mass gate; 0.7Q then reads a
    # positive gap but a product above the threshold.
    bad = with_report(gs_f1, grad_sq=0.8 * gs_f1.report.grad_sq)
    with pytest.raises(ClassifyError, match="gate equivalence violated"):
        optimal_frequency(multiple(gs_f1, 0.7), F1, bad)


def test_optimal_frequency_maximizes_the_gap(gs_f1):
    # f(w) = w^kappa m_1 - S_w(u0) evaluated directly must peak at omega0.
    u0 = multiple(gs_f1, 0.5)
    rep = optimal_frequency(u0, F1, gs_f1)
    base = evaluate_all(u0, F1, ZERO)
    kappa = 0.5

    def f(w):
        return w**kappa * gs_f1.m_omega - (base.energy + 0.5 * w * base.mass)

    assert f(rep.omega0) == pytest.approx(rep.gap.lhs, rel=1e-12)
    for w in (0.5 * rep.omega0, 0.9 * rep.omega0, 1.1 * rep.omega0, 2 * rep.omega0):
        assert f(w) < rep.gap.lhs


def test_optimal_frequency_requires_intercritical(gs_mc):
    with pytest.raises(ClassifyError, match="intercritical"):
        optimal_frequency(multiple(gs_mc, 0.5), MC, gs_mc)


def test_optimal_frequency_names_a_mass_that_underflows(gs_f1):
    # The mass of an F1 Gaussian of amplitude 1e-200 underflows to 0,
    # though the datum is not zero; the zero datum is refused as such.
    g = grid_for(3, 0.0, 1024)
    tiny = RadialField(g, 1e-200 * np.exp(-(g.nodes**2) / 2))
    for route in (optimal_frequency, lambda u, p, gs: classify_all(u, p, ZERO, gs)):
        with pytest.raises(ClassifyError, match="mass of this datum underflows to 0 .*1e-200"):
            route(tiny, F1, gs_f1)
        with pytest.raises(ClassifyError, match="needs a nonzero datum"):
            route(RadialField(g, np.zeros(g.N)), F1, gs_f1)


def test_optimal_frequency_requires_frequency_one(gs_f1):
    gs2 = solve(F1.with_omega(2.0), 2048)
    with pytest.raises(ClassifyError, match="frequency-1"):
        optimal_frequency(multiple(gs_f1, 0.5), F1.with_omega(2.0), gs2)


def test_routes_refuse_the_ground_state_of_another_equation(gs_f1):
    # Same n and b, other p: its thresholds and minimal action belong to
    # another equation, so the verdicts would be read against them.
    gs_other = solve(ProblemParams(3, 0.0, 0.0, 1.5), 4096)
    u0 = multiple(gs_f1, 0.5)
    with pytest.raises(ClassifyError, match="frequency-1 ground state of"):
        classify_all(u0, F1, ZERO, gs_other)
    with pytest.raises(ClassifyError, match="frequency-1 ground state of"):
        optimal_frequency(u0, F1, gs_other)


def test_classify_all_runs_every_route(gs_f1):
    cls = classify_all(multiple(gs_f1, 0.5), F1, ZERO, gs_f1)
    assert [e.theorem for e in cls.entries] == [
        "mass_critical_threshold",
        "intercritical_threshold",
        "action_set_membership",
    ]
    assert [e.verdict for e in cls.entries] == [
        NOT_APPLICABLE,
        GLOBAL_CANDIDATE,
        GLOBAL_CANDIDATE,
    ]
    rows = cls.as_json_list()
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {
            "id",
            "verdict",
            "assumptions",
            "evidence",
            "notes",
            "near_boundary",
        }


def test_classify_all_integrates_the_datum_once(gs_f1, count_calls):
    calls = count_calls("evaluate_all", "check_assumptions")
    classify_all(multiple(gs_f1, 0.5), F1, ZERO, gs_f1)
    assert calls == {"evaluate_all": 1, "check_assumptions": 1}


def test_classify_all_carries_the_optimized_frequency(gs_f1, gs_mc):
    u0 = multiple(gs_f1, 0.5)
    bump = PotentialSpec.const_plus_gaussian(0.1)
    for spec in (ZERO, bump):
        cls = classify_all(u0, F1, spec, gs_f1)
        assert cls.frequency.as_dict() == optimal_frequency(u0, F1, gs_f1, spec).as_dict()
    # An explicit set-route frequency does not change the report.
    assert classify_all(u0, F1, ZERO, gs_f1, 2.0).frequency == optimal_frequency(u0, F1, gs_f1)
    assert classify_all(multiple(gs_mc, 0.5), MC, ZERO, gs_mc).frequency is None


def test_set_route_runs_at_the_optimized_frequency(gs_f1):
    u0 = multiple(gs_f1, 0.5)
    cls = classify_all(u0, F1, ZERO, gs_f1)
    entry = cls.entry("action_set_membership")
    assert entry == sets(u0, F1, ZERO, gs_f1, cls.frequency.omega0)
    assert f"omega = {cls.frequency.omega0:.12g}" in entry.notes
    with pytest.raises(KeyError):
        cls.entry("no_such_theorem")


def test_the_intercritical_route_decides_up_to_the_mass_line():
    # sigma = 8.56, 88.6 and 889 at p = 4/3 + delta: the products are
    # compared in log form against Q's report, so no power of the mass
    # is formed, and the verdicts of 0.9Q and 1.1Q hold up to the line.
    for delta in (1e-1, 1e-2, 1e-3):
        params = ProblemParams(3, 0.0, 0.0, 4 / 3 + delta)
        gs = solve(params, 4096)
        for t, verdict in ((0.9, GLOBAL_CANDIDATE), (1.1, BLOWUP_CANDIDATE)):
            cls = classify_all(multiple(gs, t), params, ZERO, gs)
            assert cls.entry("intercritical_threshold").verdict == verdict
            rows = [x for e in cls.entries for x in e.evidence]
            assert all(math.isfinite(v) for x in rows for v in (x.lhs, x.rhs, x.band))
            assert math.isfinite(cls.frequency.omega0)
    # At sigma = 88.6, E M^sigma of 10Q is beyond the float range; the
    # energy of 3Q and 10Q is negative, so their energy-mass row is
    # energy_vs_zero and they classify.
    params = ProblemParams(3, 0.0, 0.0, 4 / 3 + 1e-2)
    gs = solve(params, 4096)
    for t in (3.0, 10.0):
        cls = classify_all(multiple(gs, t), params, ZERO, gs)
        em = cls.frequency.em
        assert em.name == "energy_vs_zero" and em.lhs < 0 and em.band == 0.0
        assert cls.entry("intercritical_threshold").verdict == BLOWUP_CANDIDATE


def test_an_optimized_frequency_off_the_floats_is_refused_naming_it():
    # At sigma = 8889, omega0 = exp(1873) overflows for 0.9Q and
    # exp(-1695) underflows for 1.1Q.
    params = ProblemParams(3, 0.0, 0.0, 4 / 3 + 1e-4)
    gs = solve(params, 4096)
    for t, log_omega0 in ((0.9, r"1873\.23"), (1.1, r"-1694\.52")):
        with pytest.raises(
            ClassifyError,
            match=rf"exp\({log_omega0}\) is not a positive finite float at sigma = 8888\.56",
        ):
            classify_all(multiple(gs, t), params, ZERO, gs)
