"""Ground-state solvers: convergence invariants, regressions, dual routes."""

from dataclasses import replace

import numpy as np
import pytest

from inls_lab import groundstate
from inls_lab.functionals import evaluate_all
from inls_lab.grid import RadialField, weighted_norm
from inls_lab.groundstate import (
    BracketNotFound,
    GroundStateError,
    derive_thresholds,
    gn_ratio,
    petviashvili_solve,
    pohozaev_residuals,
    shooting_solve,
)
from inls_lab.params import ProblemParams
from inls_lab.potential import PotentialSpec

from conftest import F1, F2, MC, NM, grid_for, solve


def report(u, params=F1):
    return evaluate_all(u, params, PotentialSpec.zero())


def test_fixture_convergence_invariants(gs_f1, gs_f2):
    for gs in (gs_f1, gs_f2):
        assert gs.residual < 1e-8
        assert max(gs.pohozaev_res) < 1e-4
        assert gs.omega == 1.0
        vals = gs.profile.values.real
        assert np.all(vals > 0)
        peak = int(np.argmax(vals))
        assert np.all(np.diff(vals[peak:]) <= 1e-14 * vals[peak])
        assert gs.m_omega > 0


def test_frozen_action_values(gs_f1):
    # Regression values at r_max = 30, N = 4096, grading 2.
    assert gs_f1.m_omega == pytest.approx(18.8971773147, rel=1e-9)
    assert solve(NM, 4096).m_omega == pytest.approx(16.6830241602, rel=1e-9)


def test_frozen_threshold_values(gs_f1):
    th = gs_f1.thresholds
    assert th["mass_threshold"] == pytest.approx(4.34707986858, rel=1e-9)
    assert th["em_sigma"] == pytest.approx(178.551655229, rel=1e-9)
    assert th["grad_mass"] == pytest.approx(32.7308285446, rel=1e-9)


def test_mass_critical_thresholds_structure(gs_mc):
    th = gs_mc.thresholds
    assert th["em_sigma"] is None
    assert th["grad_mass"] is None
    assert th["mass_threshold"] == pytest.approx(
        weighted_norm(gs_mc.profile, 0.0, 2.0), rel=1e-14
    )


def test_pohozaev_defect_refines_at_second_order(gs_f1):
    coarse = solve(F1, 2048).pohozaev_res
    fine = gs_f1.pohozaev_res
    assert min(c / f for c, f in zip(coarse, fine)) > 3.0


def test_shooting_agrees_with_fixed_point():
    g = grid_for(3, 0.0, 2048)
    ode = shooting_solve(F1, grid=g)
    fp = solve(F1, 2048).profile
    scale = float(np.max(np.abs(fp.values)))
    assert np.max(np.abs(ode.values - fp.values)) < 1e-3 * scale


def test_perturbed_profile_fails_identities(gs_f1):
    g = gs_f1.profile.grid
    bad = RadialField(g, gs_f1.profile.values.real + 0.1 * np.exp(-g.nodes**2 / 2))
    res = pohozaev_residuals(report(bad), F1)
    assert min(res) > 1e-2
    assert gn_ratio(report(bad), F1) < gs_f1.c_gn


def test_gn_ratio_scaling_invariances(gs_f1):
    from inls_lab.functionals import scale_soliton

    q = gs_f1.profile
    base = gn_ratio(report(q), F1)
    assert base == gs_f1.c_gn
    assert gn_ratio(report(RadialField(q.grid, 2.7 * q.values)), F1) == pytest.approx(
        base, rel=1e-12
    )
    for lam in (0.5, 2.0):
        assert gn_ratio(report(scale_soliton(q, lam, F1)), F1) == pytest.approx(base, rel=1e-5)


def test_derive_thresholds_certified_grid():
    gs = solve(F2, 8192)
    th = derive_thresholds(gs, F2)
    assert th["mass_threshold"] == pytest.approx(4.08888513887, rel=1e-9)
    assert th["em_sigma"] == pytest.approx(380.981521285, rel=1e-9)
    assert th["grad_mass"] == pytest.approx(51.6417373757, rel=1e-9)


def test_derive_thresholds_returns_the_stored_constants():
    gs = solve(F2, 8192)
    assert derive_thresholds(gs, F2) == gs.thresholds


def test_derive_thresholds_names_missing_constants():
    gs = solve(F2, 8192)
    stripped = replace(gs, thresholds={**gs.thresholds, "grad_mass": None})
    with pytest.raises(GroundStateError, match="lacks thresholds \\['grad_mass'\\]"):
        derive_thresholds(stripped, F2)


def test_derive_thresholds_refuses_coarse_grid(gs_f1):
    # At N = 4096 the direct and closed-form routes differ by more than
    # the 1e-6 cross-check, so the certification must refuse.
    with pytest.raises(GroundStateError, match="disagrees between routes"):
        derive_thresholds(gs_f1, F1)


def test_derive_thresholds_requires_frequency_one():
    gs2 = solve(F1.with_omega(2.0), 2048)
    with pytest.raises(GroundStateError, match="require omega = 1"):
        derive_thresholds(gs2, F1.with_omega(2.0))


def test_derive_thresholds_requires_critical_window():
    sub = ProblemParams(3, 0.0, 0.0, 1.0)
    gs = solve(sub, 2048)
    with pytest.raises(GroundStateError, match="undefined"):
        derive_thresholds(gs, sub)


def test_frequency_power_law_of_action():
    # m_omega = omega^kappa m_1 with kappa = ((2-b)(p+2) - p_c)/((2-b)p);
    # for these exponents kappa = 1/2.
    m1 = solve(F1, 2048).m_omega
    m2 = solve(F1.with_omega(2.0), 2048).m_omega
    assert m2 == pytest.approx(np.sqrt(2.0) * m1, rel=1e-4)


def test_solver_rejects_unusable_exponents():
    with pytest.raises(GroundStateError, match="energy-critical"):
        petviashvili_solve(ProblemParams(3, 0.0, 0.0, 4.0))
    with pytest.raises(GroundStateError, match="window"):
        petviashvili_solve(ProblemParams(3, 0.0, 2.0, 1.5))


def test_solver_rejects_mismatched_grid():
    with pytest.raises(GroundStateError, match="grid built for"):
        petviashvili_solve(F1, grid=grid_for(3, -0.5, 256))


def count_shots(monkeypatch):
    """Wrap solve_ivp (imported per shot) and return the dense_output flag of every call."""
    import scipy.integrate

    dense = []
    ivp = scipy.integrate.solve_ivp

    def counting(*args, **kwargs):
        dense.append(kwargs.get("dense_output", False))
        return ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    return dense


def test_shooting_needs_a_bracket(monkeypatch):
    monkeypatch.setattr(groundstate, "SCAN_LO", 1e-3)
    monkeypatch.setattr(groundstate, "SCAN_HI", 2e-3)
    g = grid_for(3, 0.0, 512)
    shots = count_shots(monkeypatch)
    with pytest.raises(BracketNotFound, match="ends shoot regrow and regrow"):
        shooting_solve(F1, grid=g)
    assert len(shots) == 2


def first_transition(classes):
    """Linear walk: index of the first adjacent regrow -> cross pair."""
    prev = None
    for i, beh in enumerate(classes):
        if (prev, beh) == ("regrow", "cross"):
            return i - 1
        prev = beh
    return None


def bracket_of(classes):
    asked = []

    def classify(k):
        asked.append(k)
        return classes[k]

    return groundstate._scan_bracket(classify, len(classes)), asked


def test_scan_bracket_matches_linear_walk():
    for t in range(1, 61):
        classes = ["regrow"] * t + ["cross"] * (61 - t)
        i, asked = bracket_of(classes)
        assert i == first_transition(classes) == t - 1
        assert len(asked) <= 8


@pytest.mark.parametrize(
    "classes, named",
    [
        (["regrow"] * 61, "regrow and regrow"),
        (["cross"] * 61, "cross and cross"),
        (["regrow"] + ["decay"] * 59 + ["cross"], "shoot decay and cross"),
    ],
)
def test_scan_bracket_refusals(classes, named):
    with pytest.raises(BracketNotFound, match=named):
        bracket_of(classes)


def test_shooting_bracket_is_first_scan_transition(monkeypatch):
    # F2 (c < 0) at N = 2048, the cheapest oracle fixture.
    g = grid_for(3, -0.5, 2048)
    found = []
    scan_bracket = groundstate._scan_bracket

    def recording(classify, n):
        found.append(scan_bracket(classify, n))
        return found[-1]

    monkeypatch.setattr(groundstate, "_scan_bracket", recording)
    shots = count_shots(monkeypatch)
    shooting_solve(F2, grid=g)
    assert len(shots) <= 52
    assert shots.count(True) == 1 and shots[-1]
    scan = np.geomspace(groundstate.SCAN_LO, groundstate.SCAN_HI, 61)
    walk = (groundstate._shoot_once(F2, float(q), g.r_max)[0] for q in scan)
    assert found == [first_transition(walk)]


def test_ground_state_serialization(gs_f1):
    d = gs_f1.as_dict()
    assert set(d) == {
        "omega",
        "residual",
        "pohozaev_res_mass_nonlinear",
        "pohozaev_res_mass_gradient",
        "c_gn",
        "m_omega",
        "mass_threshold",
        "em_sigma",
        "grad_mass",
    }
    assert d["omega"] == 1.0
    assert d["m_omega"] == gs_f1.m_omega
