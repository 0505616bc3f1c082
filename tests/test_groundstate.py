"""Ground-state solvers: convergence invariants, regressions, dual routes."""

import re
from dataclasses import replace

import numpy as np
import pytest

from inls_lab import groundstate
from inls_lab.functionals import evaluate_all
from inls_lab.grid import GridError, RadialField, gradient_norm_sq
from inls_lab.groundstate import (
    BracketNotFound,
    GroundStateError,
    NonConvergence,
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
    q = gs_mc.profile
    mass = np.sum(q.grid.measure_weights * abs(q.values) ** 2)
    assert th["mass_threshold"] == pytest.approx(mass**0.5, rel=1e-14)


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
    res = pohozaev_residuals(report(bad))
    assert min(res) > 1e-2
    assert gn_ratio(report(bad)) < gs_f1.c_gn


def test_gn_ratio_scaling_invariances(gs_f1):
    from inls_lab.functionals import scale_soliton

    q = gs_f1.profile
    base = gn_ratio(report(q))
    assert base == gs_f1.c_gn
    assert gn_ratio(report(RadialField(q.grid, 2.7 * q.values))) == pytest.approx(
        base, rel=1e-12
    )
    for lam in (0.5, 2.0):
        assert gn_ratio(report(scale_soliton(q, lam, F1))) == pytest.approx(base, rel=1e-5)


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
    with pytest.raises(GridError, match="grid built for"):
        petviashvili_solve(F1, grid=grid_for(3, -0.5, 256))


def test_pohozaev_gate_reports_python_floats(gs_f1):
    g = gs_f1.profile.grid
    assert type(gradient_norm_sq(g, gs_f1.profile.values)) is float
    assert type(report(gs_f1.profile).grad_sq) is float
    assert all(type(res) is float for res in gs_f1.pohozaev_res)
    # At N = 256 the defects of F1 sit near 1e-3, above the 1e-4 gate.
    with pytest.raises(NonConvergence) as exc:
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 256))
    assert re.fullmatch(r"Pohozaev defects \(\d\.\d{3}e-\d\d, \d\.\d{3}e-\d\d\) exceed 1e-4",
                        str(exc.value))


def test_petviashvili_stops_on_a_non_finite_iterate(monkeypatch):
    def poisoned(grid, shift, rhs):
        return np.full(rhs.shape, np.nan)

    monkeypatch.setattr(groundstate, "solve_shifted", poisoned)
    with pytest.raises(NonConvergence, match="no longer finite"):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 256))


def record_shots(monkeypatch):
    """Wrap _shoot_once and return the (center value, dense) pair of every shot."""
    shots = []
    shoot = groundstate._shoot_once

    def recording(params, q0, r_end, *, dense=False):
        shots.append((q0, dense))
        return shoot(params, q0, r_end, dense=dense)

    monkeypatch.setattr(groundstate, "_shoot_once", recording)
    return shots


def test_shooting_rejects_mismatched_grid(monkeypatch):
    shots = record_shots(monkeypatch)
    with pytest.raises(GridError, match="grid built for"):
        shooting_solve(F2, grid=grid_for(3, 0.0, 256))
    assert shots == []


def test_shooting_needs_a_bracket(monkeypatch):
    g = grid_for(3, 0.0, 512)
    shots = record_shots(monkeypatch)
    for lo, hi, named in ((1e-3, 2e-3, "regrow and regrow"), (10.0, 20.0, "cross and cross")):
        monkeypatch.setattr(groundstate, "SCAN_LO", lo)
        monkeypatch.setattr(groundstate, "SCAN_HI", hi)
        shots.clear()
        with pytest.raises(BracketNotFound, match=f"ends shoot {named}"):
            shooting_solve(F1, grid=g)
        assert shots == [(lo, False), (hi, False)]


def first_transition(classes):
    """Linear walk: index of the first adjacent regrow -> cross pair."""
    prev = None
    for i, beh in enumerate(classes):
        if (prev, beh) == ("regrow", "cross"):
            return i - 1
        prev = beh
    return None


def test_shooting_bracket_is_first_scan_transition(monkeypatch):
    # F2 (c < 0) at N = 2048, the cheapest oracle fixture.  The critical
    # center value lies in the first regrow -> cross pair of the 61-point
    # geometric scan of the bracket.
    g = grid_for(3, -0.5, 2048)
    scan = np.geomspace(groundstate.SCAN_LO, groundstate.SCAN_HI, 61)
    i = first_transition(groundstate._shoot_once(F2, float(q), g.r_max)[0] for q in scan)
    shots = record_shots(monkeypatch)
    shooting_solve(F2, grid=g)
    assert len(shots) <= 52
    assert [dense for _, dense in shots].count(True) == 1 and shots[-1][1]
    assert scan[i] <= shots[-1][0] <= scan[i + 1]


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
