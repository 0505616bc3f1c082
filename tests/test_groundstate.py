"""Ground-state solvers: convergence invariants, regressions, dual routes."""

import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg.lapack import dptsv

from inls_lab import groundstate
from inls_lab.functionals import FunctionalReport, evaluate_all
from inls_lab.grid import GridError, RadialField, add_stiffness, build_grid, gradient_norm_sq
from inls_lab.groundstate import (
    BracketNotFound,
    GroundState,
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

from conftest import F1, F2, F3, MC, NM, STANDING, grid_for, solve


def report(u, params=F1):
    return evaluate_all(u, params, PotentialSpec.zero())


def shifted_solve(g, shift, rhs):
    """Reference (A + shift)^{-1} rhs on g: one dptsv call on the grid's
    bands, sharing no code with the solve's factor."""
    mu = g.measure_weights
    *_, x, info = dptsv(g.stiffness_diag + shift * mu, -g.face_weights, mu * rhs)
    assert info == 0
    return x


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
    # Each threshold is a closed form of Q's mass, energy and gradient term.
    rep, sigma = gs_f1.report, F1.sigma
    assert rep.mass**0.5 == pytest.approx(4.34707986204, rel=1e-9)
    assert rep.energy * rep.mass**sigma == pytest.approx(178.551655229, rel=1e-9)
    assert math.sqrt(rep.grad_sq * rep.mass**sigma) == pytest.approx(32.7308285118, rel=1e-9)


def test_mass_critical_thresholds_structure(gs_mc):
    th = derive_thresholds(gs_mc, MC)
    assert th["em_sigma"] is None
    assert th["grad_mass"] is None
    assert th["mass_threshold"] == gs_mc.report.mass**0.5


def assert_constants_follow(gs, rep):
    """Every constant of gs is its closed form of rep, bit for bit."""
    assert gs.params == rep.params
    assert gs.m_omega == rep.action
    assert gs.c_gn == gn_ratio(rep)
    assert gs.pohozaev_res == pohozaev_residuals(rep)
    d = gs.as_dict()
    assert (d["mass"], d["energy"], d["grad_sq"]) == (rep.mass, rep.energy, rep.grad_sq)


# gs_f2 (c = -0.5) covers the mu r^c the solve forms for its own report.
@pytest.mark.parametrize("fixture", ["gs_f1", "gs_f2", "gs_mc"])
def test_every_constant_is_read_off_the_report(fixture, request):
    gs = request.getfixturevalue(fixture)
    assert [f.name for f in fields(GroundState)] == [
        "profile", "report", "residual", "strong_residual", "history", "levels",
    ]
    rep = evaluate_all(gs.profile, gs.params, PotentialSpec.zero())
    assert gs.report == rep
    assert_constants_follow(gs, rep)
    # A state holding another report reads every constant off that one.
    scaled = evaluate_all(
        RadialField(gs.profile.grid, 0.9 * gs.profile.values), gs.params, PotentialSpec.zero()
    )
    moved = replace(gs, report=scaled)
    assert_constants_follow(moved, scaled)
    assert moved.m_omega != gs.m_omega
    assert moved.as_dict()["energy"] != gs.as_dict()["energy"]


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
    q = gs_f1.profile
    base = gn_ratio(gs_f1.report)
    assert gn_ratio(report(RadialField(q.grid, 2.7 * q.values))) == pytest.approx(
        base, rel=1e-12
    )

    # The soliton slice lam^{(2-b+c)/p} g(lam r) of g(r) = exp(-r^2/2), in closed form.
    def slice_ratio(lam):
        alpha = (2 - F1.b + F1.c) / F1.p
        g = lam**alpha * np.exp(-((lam * q.grid.nodes) ** 2) / 2)
        return gn_ratio(report(RadialField(q.grid, g)))

    for lam in (0.5, 2.0):
        assert slice_ratio(lam) == pytest.approx(slice_ratio(1.0), rel=1e-5)


def test_derive_thresholds_certified_grid():
    gs = solve(F2, 8192)
    th = derive_thresholds(gs, F2)
    assert th["mass_threshold"] == pytest.approx(4.08888513887, rel=1e-9)
    assert th["em_sigma"] == pytest.approx(380.981521285, rel=1e-9)
    assert th["grad_mass"] == pytest.approx(51.6417373757, rel=1e-9)


def test_derive_thresholds_returns_the_stored_constants():
    # Bit for bit the closed forms of the three numbers groundstate.json stores.
    gs = solve(F2, 8192)
    d, sigma = gs.as_dict(), F2.sigma
    assert derive_thresholds(gs, F2) == {
        "mass_threshold": d["mass"] ** 0.5,
        "em_sigma": d["energy"] * d["mass"] ** sigma,
        "grad_mass": math.sqrt(d["grad_sq"]) * math.sqrt(d["mass"]) ** sigma,
    }


def test_derive_thresholds_refuses_coarse_grid(gs_f1):
    # At N = 4096 the direct and closed-form routes differ by more than
    # the 1e-6 cross-check, so the certification must refuse.
    with pytest.raises(GroundStateError, match="disagrees between routes"):
        derive_thresholds(gs_f1, F1)


def test_derive_thresholds_refuses_a_sharp_constant_off_its_closed_form():
    # Where p_c > 4(2-b) the sharp-constant cross-check is the stricter of
    # the two: at p = 3.5 the energy-mass product agrees at N = 8192 and
    # the sharp constant does not.
    params = ProblemParams(3, 0.0, 0.0, 3.5)
    gs = petviashvili_solve(params, grid=grid_for(3, 0.0, 8192))
    with pytest.raises(GroundStateError, match="^sharp constant disagrees between routes: "):
        derive_thresholds(gs, params)


def test_derive_thresholds_requires_frequency_one():
    gs2 = solve(F1.with_omega(2.0), 2048)
    with pytest.raises(GroundStateError, match="require omega = 1"):
        derive_thresholds(gs2, F1.with_omega(2.0))


def test_derive_thresholds_requires_the_reference_of_params():
    # The F2 ground state is not the reference of the equation with p = 1.8.
    other = ProblemParams(F2.n, F2.b, F2.c, 1.8)
    with pytest.raises(GroundStateError, match="require omega = 1 and the \\(n, b, c, p\\)"):
        derive_thresholds(solve(F2, 8192), other)


def test_derive_thresholds_requires_critical_window():
    sub = ProblemParams(3, 0.0, 0.0, 1.0)
    gs = solve(sub, 2048)
    with pytest.raises(GroundStateError, match="undefined"):
        derive_thresholds(gs, sub)


def test_thresholds_beyond_the_float_range_raise_a_ground_state_error():
    # Just above the mass line sigma is 889: the profile certifies, and
    # only the mass to that power, formed by derive_thresholds alone,
    # leaves the float range.
    near_mass_line = ProblemParams(3, 0.0, 0.0, 4 / 3 + 1e-3)
    gs = petviashvili_solve(near_mass_line, grid=grid_for(3, 0.0, 4096))
    with pytest.raises(GroundStateError, match=r"float range at sigma = 888\.556 for ProblemParams\(n=3, b=0\.0, c=0\.0, p=1\.334"):
        derive_thresholds(gs, near_mass_line)


def test_frequency_power_law_of_action():
    # m_omega = omega^kappa m_1 with kappa = ((2-b)(p+2) - p_c)/((2-b)p);
    # for these exponents kappa = 1/2.
    m1 = solve(F1, 2048).m_omega
    m2 = solve(F1.with_omega(2.0), 2048).m_omega
    assert m2 == pytest.approx(np.sqrt(2.0) * m1, rel=1e-4)


def test_solver_rejects_unusable_exponents():
    with pytest.raises(GroundStateError, match="energy-critical"):
        petviashvili_solve(ProblemParams(3, 0.0, 0.0, 4.0), grid=grid_for(3, 0.0, 256))
    with pytest.raises(GroundStateError, match="window"):
        petviashvili_solve(ProblemParams(3, 0.0, 2.0, 1.5), grid=grid_for(3, 0.0, 256))


def test_solver_rejects_mismatched_grid():
    with pytest.raises(GridError, match="grid built for"):
        petviashvili_solve(F1, grid=grid_for(3, -0.5, 256))


def test_pohozaev_gate_reports_python_floats(gs_f1):
    g = gs_f1.profile.grid
    assert type(gradient_norm_sq(g, gs_f1.profile.values)) is float
    assert type(gs_f1.report.grad_sq) is float
    assert all(type(res) is float for res in gs_f1.pohozaev_res)
    # At N = 256 the defects of F1 sit near 1e-3, above the 1e-4 gate.
    with pytest.raises(NonConvergence) as exc:
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 256))
    assert re.fullmatch(r"Pohozaev defects \(\d\.\d{3}e-\d\d, \d\.\d{3}e-\d\d\) exceed 1e-4",
                        str(exc.value))


def test_petviashvili_stops_on_a_non_finite_iterate(monkeypatch):
    def poisoned(grid, shift):
        return lambda rhs: np.full(rhs.shape, np.nan)

    monkeypatch.setattr(groundstate, "factor_shifted", poisoned)
    with pytest.raises(NonConvergence, match="no longer finite"):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 256))


def test_petviashvili_stops_on_a_failed_newton_solve(monkeypatch):
    def singular(dl, d, du, b, *overwrite):
        return dl, d, du, b, 1

    monkeypatch.setattr(groundstate, "dgtsv", singular)
    with pytest.raises(NonConvergence, match=r"Newton solve failed \(dgtsv info 1\)"):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 256))


def test_newton_stops_at_its_cap_naming_the_mesh(monkeypatch):
    monkeypatch.setattr(groundstate, "NEWTON_CAP", 1)
    cap = r"^Newton on the 64-cell mesh: correction .* after 1 steps$"
    with pytest.raises(NonConvergence, match=cap):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 256))


def test_a_newton_iterate_gone_negative_raises_naming_its_mesh(monkeypatch):
    # The first correction drives the iterate negative everywhere; at
    # p = 2.5 its next power is NaN, which must end the solve with
    # NonConvergence on that mesh, not with a RuntimeWarning.
    lapack = groundstate.dgtsv
    calls = []

    def overshoot(dl, d, du, b, *overwrite):
        calls.append(1)
        if len(calls) == 1:
            return dl, d, du, np.full_like(b, 1e3), 0
        return lapack(dl, d, du, b, *overwrite)

    monkeypatch.setattr(groundstate, "dgtsv", overshoot)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergence, match=r"no longer finite on the 512-cell mesh"):
            petviashvili_solve(F3, grid=grid_for(4, -1.0, 2048))


def test_a_negative_newton_tail_is_named_by_its_radius():
    # On a box far beyond r_max = 30 the first Newton step on the grid
    # leaves 122 tail nodes negative, from r = 76.16; the next step takes
    # their power 2.5.
    with pytest.raises(NonConvergence, match=re.escape(
        "iterate is no longer finite on the 4096-cell mesh: "
        "the previous iterate was negative from r = 76.1572"
    )):
        petviashvili_solve(F3.with_omega(2.0), grid=build_grid(4, -1.0, 100.0, 4096, 2.0))


def test_a_map_of_a_sign_changed_iterate_refuses_naming_both_pairings(monkeypatch):
    # With the solve's sign flipped the first map turns the iterate
    # negative, and the second map's nonlinear pairing is negative.
    factor = groundstate.factor_shifted

    def flipped(g, w):
        solve = factor(g, w)
        return lambda rhs: -solve(rhs)

    monkeypatch.setattr(groundstate, "factor_shifted", flipped)
    with pytest.raises(NonConvergence, match=(
        r"^<\(A\+omega\)Q, Q> = \d+\.?\d*, <r\^c Q\^\(p\+1\), Q> = -\d+\.?\d*: "
        r"not both positive$"
    )):
        petviashvili_solve(STANDING, grid=grid_for(3, 0.0, 256))


def test_map_budget_refuses_naming_the_last_change(monkeypatch):
    monkeypatch.setattr(groundstate, "MAX_ITER", 1)
    budget = r"^no fixed point after 1 maps \(last change \d\.\d{3}e-01\)$"
    with pytest.raises(NonConvergence, match=budget):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 256))


@pytest.mark.parametrize("gate, message", [
    ("RESIDUAL_GATE", r"^exit residual \d\.\d{3}e-\d\d not below 1e-300$"),
    ("STAB_GATE", r"^stabilizing factor off by \d\.\d{3}e[+-]\d\d at exit$"),
])
def test_exit_gates_refuse_naming_their_measure(monkeypatch, gate, message):
    monkeypatch.setattr(groundstate, gate, 1e-300)
    with pytest.raises(NonConvergence, match=message):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 2048))


def test_a_tail_beyond_the_floats_refuses_positivity():
    # On a box far beyond r_max = 30 the tail of Q underflows to 0.
    with pytest.raises(NonConvergence, match="^profile lost strict positivity$"):
        petviashvili_solve(F2.with_omega(4.0), grid=build_grid(3, -0.5, 150.0, 4096, 2.0))


def test_a_rising_tail_refuses_monotone_decay(monkeypatch):
    # A solve that adds 1e-12 at the fifth node from the edge raises the
    # tail there (Q is about 1e-15 near r = 30) and leaves every other gate
    # passing: the final map and the residual see the same bump.
    factor = groundstate.factor_shifted

    def bumped(g, w):
        solve, bump = factor(g, w), np.zeros(g.N)
        bump[-5] = 1e-12
        return lambda rhs: solve(rhs) + bump

    monkeypatch.setattr(groundstate, "factor_shifted", bumped)
    with pytest.raises(NonConvergence, match="^profile not monotone beyond its maximum$"):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 2048))


def test_a_non_positive_action_refuses(monkeypatch):
    # Pohozaev defects below 1e-4 keep the action of a real solve positive
    # for p > 4e-4, so a report whose action reads -1 stands in.
    monkeypatch.setattr(FunctionalReport, "action", property(lambda self: -1.0))
    with pytest.raises(NonConvergence, match=r"^ground-state action -1\.0 not positive$"):
        petviashvili_solve(F1, grid=grid_for(3, 0.0, 4096))


MESHES = {"N2048": (2048, 2.0), "N4096-uniform": (4096, 1.0), "N4100": (4100, 2.0)}


@pytest.mark.parametrize("omega", [0.5, 2.0])
@pytest.mark.parametrize("mesh", list(MESHES))
@pytest.mark.parametrize("params", [F1, F2, F3, MC, NM], ids=["F1", "F2", "F3", "MC", "NM"])
def test_every_solve_certifies_or_refuses_without_warnings(params, mesh, omega):
    N, grading = MESHES[mesh]
    g = grid_for(params.n, params.b, N, grading)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            gs = petviashvili_solve(params.with_omega(omega), grid=g)
        except NonConvergence as exc:
            # only the uniform mesh is too coarse at the origin for Pohozaev
            assert mesh == "N4096-uniform" and "Pohozaev" in str(exc)
            return
    assert gs.residual < groundstate.RESIDUAL_GATE
    assert max(gs.pohozaev_res) < 1e-4
    assert [cells for cells, _ in gs.levels][-1] == N


def plain_petviashvili(params, g, maps):
    """Reference: the stabilized map alone, from the solver's start, for a
    fixed number of maps."""
    mu, rc, w, p = g.measure_weights, g.nodes**params.c, params.omega, params.p
    Q = np.exp(-(g.nodes**2) / 2)
    for _ in range(maps):
        nl = rc * Q ** (p + 1)
        stab = (gradient_norm_sq(g, Q) + w * np.sum(mu * Q**2)) / np.sum(mu * nl * Q)
        Q = stab ** ((p + 1) / p) * shifted_solve(g, w, nl)
    return Q


def test_polished_profile_is_the_fixed_point_of_the_map():
    # At N = 16384 the maps run on the 1024-cell mesh and Newton climbs
    # the ladder through 4096 cells; the plain map on the grid must still
    # land on the same Q.
    for N in (2048, 16384):
        g = grid_for(3, 0.0, N)
        reference = plain_petviashvili(F1, g, 400)
        q = solve(F1, N).profile.values.real
        assert np.max(np.abs(q - reference)) < 1e-11 * np.max(reference), N


LADDERS = [(2048, [512]), (4096, [1024]), (16384, [1024, 4096]), (65536, [1024, 4096, 16384])]


@pytest.mark.parametrize(
    "N, ladder", LADDERS, ids=["-".join(map(str, [N, *ladder])) for N, ladder in LADDERS]
)
def test_maps_run_on_the_coarsest_mesh_of_the_ladder(count_calls, N, ladder):
    # a grid of its own: a cached one may keep its ladder from an earlier solve
    grid = build_grid(3, 0.0, r_max=30.0, N=N, grading=2.0)
    cells = {"dpttrf": [], "dpttrs": []}

    def record(name, args):
        if name in cells:
            cells[name].append(len(args[0]))

    calls = count_calls("dpttrf", "dpttrs", "build_grid", record=record)
    gs = petviashvili_solve(F1, grid=grid)
    maps = gs.iterations - 1
    # one factor on the coarsest mesh serves every map there, and one on
    # the grid the final map and the residual's solve; Newton solves with
    # dgtsv on every mesh
    assert cells["dpttrf"] == [ladder[0], N]
    assert cells["dpttrs"] == [ladder[0]] * maps + [N, N]
    assert [cells for cells, _ in gs.levels] == ladder + [N]
    # each mesh below the grid is built once, and kept by the mesh above
    # it, so a second solve on the grid builds none
    assert calls["build_grid"] == len(ladder)
    assert petviashvili_solve(F1, grid=grid).levels == gs.levels
    assert calls["build_grid"] == len(ladder)


def test_newton_converges_quadratically_from_the_coarse_start():
    gs = solve(F1, 16384)
    maps = gs.iterations - 1
    assert gs.history[maps - 1] < groundstate.NEWTON_SWITCH <= gs.history[maps - 2]
    # the grid is the last mesh of the ladder, so its corrections end history
    cells, steps = gs.levels[-1]
    assert cells == 16384 and steps >= 2
    corrections = gs.history[-steps:]
    for first, second in zip(corrections, corrections[1:]):
        assert second < 100 * first**2
    assert corrections[-1] < groundstate.NEWTON_TOL <= min(corrections[:-1])


def test_newton_lands_on_the_fixed_point_of_the_map_at_n_131072():
    # Newton's residual must not lose digits to the cancellation in M Q
    # near the origin: with M Q formed as diag Q minus its neighbour terms,
    # the stabilizing factor of the polished F2 profile sat 1.3e-10 to
    # 1.6e-10 off 1 at exit and the 1e-10 gate refused it; with M Q from
    # the face fluxes it sits 9e-16 off.  (F2 at omega = 0.5 sits 2.2e-11
    # off with the diag form, inside the gate, so it would not tell.)
    gs = petviashvili_solve(F2, grid=grid_for(3, -0.5, 131072))
    assert gs.residual < groundstate.RESIDUAL_GATE
    assert [cells for cells, _ in gs.levels] == [2048, 8192, 32768, 131072]


def test_a_grid_4_does_not_divide_certifies():
    gs = solve(F1, 4100)
    assert gs.residual < 1e-10
    assert max(gs.pohozaev_res) < 1e-4
    assert gs.iterations == solve(F1, 4096).iterations


def test_a_solve_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate costs about half a second to import, paid by every
    # CLI process that loads it; the mesh ladder transfers with np.interp,
    # and the k-derivative check evaluates its scaling arcs in closed form.
    code = (
        "import sys, inls_lab\n"
        "from inls_lab.verification import F1, _solve, check_k_derivative\n"
        "_solve(F1, 16384)\n"
        "check_k_derivative()\n"
        "print('scipy.interpolate' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_newton_polish_certifies_in_few_maps(gs_f1):
    assert gs_f1.iterations <= 40


@pytest.mark.parametrize("params", [F1, F2, F3, MC, NM], ids=["F1", "F2", "F3", "MC", "NM"])
def test_fixed_point_residual_sits_far_below_the_gate(params):
    gs = solve(params, 4096)
    assert gs.residual < 1e-10
    assert gs.strong_residual < 1e-8


def test_fixed_point_residual_is_the_energy_norm_defect(gs_f1):
    g, q = gs_f1.profile.grid, gs_f1.profile.values.real
    mu, w = g.measure_weights, gs_f1.omega

    def energy_sq(v):
        return gradient_norm_sq(g, v) + w * np.sum(mu * v**2)

    defect = q - shifted_solve(g, w, q ** (F1.p + 1))
    assert gs_f1.residual == pytest.approx(np.sqrt(energy_sq(defect) / energy_sq(q)), rel=1e-6)
    # Newton's residual F(Q) = M Q + mu (omega - Q^p) Q at the profile, M Q
    # from the grid's face fluxes (r^c = 1 for F1), read as F / mu
    strong = add_stiffness(g, q, mu * (w - q**F1.p) * q) / mu
    assert gs_f1.strong_residual == float(np.sqrt(np.sum(mu * strong**2) / np.sum(mu * q**2)))


# The strong-form residual of these solves sits at its roundoff floor in Q
# (about 1.2e-8 and 1.6e-8, growing 16x per 4x in N), above 1e-8; the
# fixed-point residual, the gated measure, certifies them.
@pytest.mark.parametrize("params, N", [(F3, 16384), (F1, 65536)], ids=["F3_N16384", "F1_N65536"])
def test_fine_meshes_certify(params, N):
    gs = solve(params, N)
    assert gs.residual < groundstate.RESIDUAL_GATE
    assert max(gs.pohozaev_res) < 1e-4


def record_shots(monkeypatch, classes=None, steps=None):
    """Wrap the shots of every oracle solve and return the center value of
    every shot, the final one last; each shot's class is appended to
    classes, and its count of accepted steps to steps, when given."""
    shots = []
    shooter = groundstate._shooter

    def recording_shooter(params, r_end):
        shoot = shooter(params, r_end)

        def recording(q0):
            shots.append(q0)
            out = shoot(q0)
            if classes is not None:
                classes.append(out[0])
            if steps is not None:
                steps.append(len(out[2]) - 1)
            return out

        return recording

    monkeypatch.setattr(groundstate, "_shooter", recording_shooter)
    return shots


def test_shooting_rejects_mismatched_grid(monkeypatch):
    shots = record_shots(monkeypatch)
    with pytest.raises(GridError, match="grid built for"):
        shooting_solve(F2, grid=grid_for(3, 0.0, 256))
    assert shots == []


def test_shooting_needs_a_bracket(monkeypatch):
    # F1's critical center value is 4.34.  The walk starts at the
    # frequency scale q_s = 1, moved into the window, and steps by
    # SCAN_STEP towards the other class until the window's end.
    g = grid_for(3, 0.0, 512)
    searches = record_searches(monkeypatch)
    shots = record_shots(monkeypatch)
    for lo, hi, walk, named in (
        (1e-3, 2.0, [1.0, 2.0], "regrows or decays"),
        (1e-3, 3.0, [1.0, 3.0], "regrows or decays"),
        (10.0, 20.0, [10.0], "crosses zero"),
    ):
        monkeypatch.setattr(groundstate, "SCAN_LO", lo)
        monkeypatch.setattr(groundstate, "SCAN_HI", hi)
        shots.clear()
        with pytest.raises(BracketNotFound, match=f"to {walk[-1]:g} {named}$"):
            shooting_solve(F1, grid=g)
        assert shots == walk
    assert searches == []


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
    shoot = groundstate._shooter(F2, g.r_max)
    i = first_transition(shoot(float(q))[0] for q in scan)
    shots = record_shots(monkeypatch)
    shooting_solve(F2, grid=g)
    assert len(shots) <= 30
    assert scan[i] <= shots[-1] <= scan[i + 1]


def assert_tightest_bracket(shots, classes):
    """The final shot sits at the geometric midpoint of the closest
    regrow/cross pair of all the shots before it, and that pair meets the
    stop rule."""
    searched = list(zip(shots[:-1], classes[:-1]))
    lo = max(q for q, kind in searched if kind != "cross")
    hi = min(q for q, kind in searched if kind == "cross")
    assert lo < hi
    assert hi - lo < groundstate.BISECT_TOL * np.sqrt(lo * hi)
    assert shots[-1] == np.sqrt(lo * hi)


def test_shooting_returns_the_tightest_bracket(monkeypatch):
    classes = []
    shots = record_shots(monkeypatch, classes)
    shooting_solve(F2, grid=grid_for(3, -0.5, 2048))
    assert_tightest_bracket(shots, classes)


def record_searches(monkeypatch, xtol=None):
    """Wrap scipy.optimize.brentq and return (f, a, b) of every call of the
    oracle's search, the call with xtol = BISECT_TOL rather than an event
    location; xtol, when given, replaces the search's tolerance."""
    import scipy.optimize

    brentq = scipy.optimize.brentq
    searches = []

    def recording(f, a, b, **kwargs):
        if kwargs.get("xtol") == groundstate.BISECT_TOL:
            searches.append((f, a, b))
            if xtol is not None:
                kwargs["xtol"] = xtol
        return brentq(f, a, b, **kwargs)

    monkeypatch.setattr(scipy.optimize, "brentq", recording)
    return searches


def test_shooting_bisects_what_brentq_leaves_open(monkeypatch):
    searches = record_searches(monkeypatch, xtol=1e-3)
    classes = []
    shots = record_shots(monkeypatch, classes)
    shooting_solve(F2, grid=grid_for(3, -0.5, 2048))
    assert len(searches) == 1
    assert_tightest_bracket(shots, classes)


def test_brentq_starts_from_the_first_class_flip_of_a_walk_from_the_scale_of_q(monkeypatch):
    # Q_w(r) = w^((2-b+c)/(p(2-b))) Q_1(w^(1/(2-b)) r), so the walk starts
    # at q_s = w^((2-b+c)/(p(2-b))) and steps by SCAN_STEP = 4 away from
    # its class; brentq starts from the two shots around the first flip,
    # with both misses known.  F1 walks 1 -> 4 -> 16 at w = 1, F2 one step.
    searches = record_searches(monkeypatch)
    classes = []
    shots = record_shots(monkeypatch, classes)
    for params in (F1, F2):
        b, c, p = params.b, params.c, params.p
        g = grid_for(params.n, b, 2048)
        for omega in (0.5, 1.0, 2.0):
            del searches[:], shots[:], classes[:]
            shooting_solve(params.with_omega(omega), grid=g)
            flip = next(i for i, kind in enumerate(classes) if kind == "cross")
            assert flip >= 1
            q_s = omega ** ((2 - b + c) / (p * (2 - b)))
            assert shots[: flip + 1] == [q_s * 4.0**k for k in range(flip + 1)]
            lo, hi = shots[flip - 1], shots[flip]
            assert [(x, y) for _, x, y in searches] == [(math.log(lo), math.log(hi))]
            assert hi / lo <= groundstate.SCAN_STEP


def bisect_center_value(params, r_end):
    """Reference: geometric bisection of [SCAN_LO, SCAN_HI] on cross / not cross."""
    lo, hi = groundstate.SCAN_LO, groundstate.SCAN_HI
    shoot = groundstate._shooter(params, r_end)
    while True:
        mid = np.sqrt(lo * hi)
        if shoot(mid)[0] == "cross":
            hi = mid
        else:
            lo = mid
        if hi - lo < groundstate.BISECT_TOL * mid:
            return np.sqrt(lo * hi)


def test_shooting_matches_plain_bisection(monkeypatch):
    g = grid_for(3, -0.5, 2048)
    reference = bisect_center_value(F2, g.r_max)
    shots = record_shots(monkeypatch)
    shooting_solve(F2, grid=g)
    assert shots[-1] == pytest.approx(reference, rel=2 * groundstate.BISECT_TOL, abs=0)


@pytest.mark.parametrize("params", [F1, F2, F3, NM], ids=["F1", "F2", "F3", "NM"])
def test_search_miss_is_linear_in_the_offset_on_both_sides(monkeypatch, params):
    # The miss brentq steers by is the ratio of the growing to the
    # decaying Bessel mode of the linearised equation at the event, so a
    # shot delta off q* misses by the same multiple of delta on either
    # side; exp(-2 sqrt(omega) r_e^e / e) alone differs by 20-30 % there.
    g = grid_for(params.n, params.b, 4096)
    q_star = bisect_center_value(params, g.r_max)
    searches = record_searches(monkeypatch)
    shooting_solve(params, grid=g)
    ((miss, _, _),) = searches
    slopes = []
    for delta in (1e-6, -1e-6):
        s = math.log(q_star * (1 + delta))
        slopes.append(miss(s) / (math.exp(s) / q_star - 1))
    assert slopes[0] > 0
    assert slopes[0] / slopes[1] == pytest.approx(1, abs=1e-3)


def test_oracle_solves_take_at_most_13_shots(monkeypatch):
    # Brent steered by a miss linear in delta converges superlinearly from
    # a bracket of hi/lo <= 4: 11-12 shots per solve here, the final one
    # included, and 8915 accepted DOP853 steps over the 12 solves.  Each
    # solve reports its own counts, checked against the shots it made.
    steps = []
    shots = record_shots(monkeypatch, steps=steps)
    total = 0
    for params in (F1, F2, F3, NM):
        g = grid_for(params.n, params.b, 4096)
        for omega in (0.5, 1.0, 2.0):
            del shots[:], steps[:]
            solved = shooting_solve(params.with_omega(omega), grid=g)
            assert (solved.shots, solved.steps) == (len(shots), sum(steps))
            assert solved.q_star == shots[-1]
            assert solved.shots <= 13, (params, omega)
            total += solved.steps
    assert total <= 9000


def profile_rhs(params):
    """The right-hand side of the oracle's shots, for solve_ivp."""
    n, b, c, p, w = params.n, params.b, params.c, params.p, params.omega

    def rhs(r, y):
        q, dq = y.tolist()
        qp = math.copysign(abs(q) ** (p + 1), q)
        return [dq, -(n - 1 + b) / r * dq - r ** (-b) * (-w * q + r**c * qp)]

    return rhs


def shot_events():
    """The oracle's events, for solve_ivp: terminal, in _EVENTS order."""

    def event(k, direction):
        def crossing(r, y):
            return y[k]

        crossing.terminal, crossing.direction = True, direction
        return crossing

    return [event(k, direction) for _, k, direction in groundstate._EVENTS]


def dense_reference(params, q0, g):
    """The oracle's profile from center value q0, sampled on g by
    solve_ivp's DOP853 dense output: the same start radius, right-hand
    side, tolerances, events and event rule as the oracle's shots, and
    the same series below the start radius and zero beyond the event
    radius."""
    from scipy.integrate import solve_ivp

    r0 = groundstate._start_radius(params, q0)

    sol = solve_ivp(
        profile_rhs(params), (r0, g.r_max), list(groundstate._series_start(params, q0, r0)),
        method="DOP853", events=shot_events(), dense_output=True, rtol=1e-10, atol=1e-12,
    )
    assert sol.success
    r = g.nodes
    vals = np.zeros(g.N)
    below = r < r0
    vals[below] = groundstate._series_start(params, q0, r[below])[0]
    inside = ~below & (r <= sol.t[-1])
    vals[inside] = sol.sol(r[inside])[0]
    return np.maximum(vals, 0.0)


@pytest.mark.parametrize("params", [F1, F2, F3, NM], ids=["F1", "F2", "F3", "NM"])
def test_search_and_dense_shots_agree_near_the_critical_value(monkeypatch, params):
    # Shots classify by their side of q* down to 1e-7 of it; closer than
    # about 1e-10 the integration error, not q0, decides the class.  The
    # final shot's quintic sample lands within 1e-6 of solve_ivp's dense
    # output of the same shot (2.5e-7 at worst on these fixtures; a cubic
    # on Q and Q' alone is off by 2-4e-6).
    g = grid_for(params.n, params.b, 4096)
    shots = record_shots(monkeypatch)
    sampled = shooting_solve(params, grid=g).values.real
    q_star = shots[-1]
    shoot = groundstate._shooter(params, g.r_max)
    for offset in (-1e-3, -1e-5, -1e-7, 1e-7, 1e-5, 1e-3):
        assert shoot(q_star * (1 + offset))[0] == ("cross" if offset > 0 else "regrow")
    reference = dense_reference(params, q_star, g)
    assert abs(sampled - reference).max() < 1e-6 * abs(reference).max()


def test_center_value_matches_a_tight_tolerance_bisection():
    # A reference built like dense_reference but at rtol 1e-13, atol 1e-16
    # and the old fixed start radius 1e-6 bisects a bracket of 1e-8 around
    # the oracle's q* on the class alone down to 1e-12.  The oracle lands
    # within 1e-11 of it (9.5e-12 here; 7.1e-12 from a start at 1e-6).
    from scipy.integrate import solve_ivp

    g = grid_for(3, -0.5, 2048)
    q_star = shooting_solve(F2, grid=g).q_star
    rhs, events, r0 = profile_rhs(F2), shot_events(), 1e-6

    def crosses(q0):
        sol = solve_ivp(
            rhs, (r0, g.r_max), list(groundstate._series_start(F2, q0, r0)),
            method="DOP853", events=events, rtol=1e-13, atol=1e-16,
        )
        assert sol.success
        return sol.t_events[0].size > 0

    lo, hi = q_star * (1 - 1e-8), q_star * (1 + 1e-8)
    assert not crosses(lo) and crosses(hi)
    while hi - lo > 1e-12 * q_star:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if crosses(mid) else (mid, hi)
    assert q_star == pytest.approx((lo + hi) / 2, rel=1e-10, abs=0)


@pytest.mark.parametrize("params", [F1, F2, F3, NM], ids=["F1", "F2", "F3", "NM"])
def test_shots_start_where_the_larger_series_correction_is_series_tol(monkeypatch, params):
    # At r0 the larger of a1 r0^e1 and |a2| r0^e2 is SERIES_TOL q0, so the
    # terms the series leaves out are about 1e-16 q0.  The grid sample
    # takes the series at every node below the final shot's r0 and the
    # shot above it: across r0 its step between neighbouring nodes is
    # the series' own, to 1e-14 of q* (4e-16 at worst here).
    g = grid_for(params.n, params.b, 4096)
    shots = record_shots(monkeypatch)
    sampled = shooting_solve(params, grid=g).values.real
    for q0 in shots:
        a1, a2, e1, e2 = groundstate._series_terms(params, q0)
        r0 = groundstate._start_radius(params, q0)
        corrections = (a1 * r0**e1, abs(a2) * r0**e2)
        assert max(corrections) == pytest.approx(groundstate.SERIES_TOL * q0, rel=1e-12)
    q_star = shots[-1]
    r = g.nodes
    i = int(np.searchsorted(r, groundstate._start_radius(params, q_star)))
    assert 2 <= i < g.N
    series = groundstate._series_start(params, q_star, r[: i + 1])[0]
    assert np.array_equal(sampled[:i], series[:i])
    assert abs((sampled[i] - sampled[i - 1]) - (series[i] - series[i - 1])) < 1e-14 * q_star


def test_the_constant_solution_counts_below():
    # Q = 1 solves F1's equation at omega = 1: Q' starts at zero, so the
    # shot finds a regrow within its first step, and never a cross.
    shoot = groundstate._shooter(F1, grid_for(3, 0.0, 4096).r_max)
    assert shoot(1.0)[0] != "cross"


def test_a_search_shot_out_of_steps_raises_naming_it(monkeypatch):
    monkeypatch.setattr(groundstate, "_SHOT_STEPS", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match=r"q0 = 1\.0 failed: .*larger nsteps is needed"):
            shooting_solve(F2, grid=grid_for(3, -0.5, 2048))


def test_an_oracle_solve_runs_no_solve_ivp(monkeypatch):
    import scipy.integrate

    def refused(*args, **kwargs):
        raise AssertionError("the oracle called solve_ivp")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refused)
    shooting_solve(F2, grid=grid_for(3, -0.5, 2048))


def test_oracle_solves_retain_no_shot(monkeypatch):
    # scipy keeps each solve's integrator, and so its solout closure,
    # alive for good: about 4 kB per solve with the search constants as
    # they ship (tracemalloc).  The bound is that plus 50 %.  Here a solve
    # leaves about 2.3 kB behind; a closure that also kept the final
    # shot's 54 step ends would leave about 12 kB.  A narrow window
    # around q* = 3.03 and a loose stop rule make each solve three shots,
    # which keeps the traced solves cheap; what a solve leaves behind
    # does not depend on how many shots it took.
    monkeypatch.setattr(groundstate, "SCAN_LO", 2.9)
    monkeypatch.setattr(groundstate, "SCAN_HI", 3.2)
    monkeypatch.setattr(groundstate, "BISECT_TOL", 0.5)
    g = grid_for(3, -0.5, 256)
    shooting_solve(F2, grid=g)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            shooting_solve(F2, grid=g)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 20 * 6000


def test_each_oracle_solve_keeps_at_most_one_integrator_alive():
    # scipy's compiled DOP853 wrapper keeps every integrator it ran alive.
    def integrators():
        gc.collect()
        return sum(type(o).__name__ == "dop853" for o in gc.get_objects())

    g = grid_for(3, -0.5, 2048)
    before = integrators()
    for _ in range(5):
        shooting_solve(F2, grid=g)
    assert integrators() - before <= 5


def test_ground_state_serialization(gs_f1):
    d = gs_f1.as_dict()
    assert set(d) == {
        "omega",
        "residual",
        "strong_residual",
        "iterations",
        "history",
        "levels",
        "pohozaev_res_mass_nonlinear",
        "pohozaev_res_mass_gradient",
        "c_gn",
        "m_omega",
        "mass",
        "energy",
        "grad_sq",
    }
    assert d["omega"] == 1.0
    assert (d["mass"], d["energy"], d["grad_sq"]) == (
        gs_f1.report.mass, gs_f1.report.energy, gs_f1.report.grad_sq
    )
    assert d["m_omega"] == gs_f1.m_omega
    assert d["iterations"] == gs_f1.iterations
    assert d["history"] == list(gs_f1.history)
    assert d["levels"] == [{"cells": 1024, "newton_steps": gs_f1.levels[0][1]},
                           {"cells": 4096, "newton_steps": gs_f1.levels[1][1]}]
