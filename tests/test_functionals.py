"""Scalar functionals: internal identities, scalings, threshold algebra."""

import numpy as np
import pytest

from inls_lab.functionals import (
    FunctionalError,
    TruncationWarning,
    at_frequency,
    evaluate_all,
    k_from_report,
    scale_alpha_beta,
    scale_soliton,
    threshold_function,
    threshold_peak,
)
from inls_lab.grid import GridError, RadialField, gradient_norm_sq
from inls_lab.potential import PotentialSpec

from conftest import F1, F2, MC, NM, grid_for

BUMP = PotentialSpec.smooth_bump(0.4, 2.0)
ZERO = PotentialSpec.zero()


def sample_field(params, N=2048, seed=5):
    g = grid_for(params.n, params.b, N)
    rng = np.random.default_rng(seed)
    vals = np.zeros(g.N, dtype=complex)
    for _ in range(3):
        amp = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        ctr = rng.uniform(0.0, 5.0)
        wid = rng.uniform(1.0, 2.5)
        vals += amp * np.exp(-((g.nodes - ctr) ** 2) / wid**2)
    return RadialField(g, vals)


def test_report_internal_identities():
    u = sample_field(F2)
    rep = evaluate_all(u, F2, BUMP)
    p, w = F2.p, F2.omega
    grad_V_sq = rep.grad_norm_V**2
    assert rep.energy == pytest.approx(
        0.5 * grad_V_sq - rep.nonlinear_term / (p + 2), rel=1e-12
    )
    assert rep.action == pytest.approx(rep.energy + 0.5 * w * rep.mass, rel=1e-12)
    assert rep.nehari == pytest.approx(
        grad_V_sq + w * rep.mass - rep.nonlinear_term, rel=1e-12
    )
    assert rep.L == pytest.approx(grad_V_sq + w * rep.mass, rel=1e-12)
    # Raw ingredients agree with direct quadrature.
    mu, r, dens = u.grid.measure_weights, u.grid.nodes, abs(u.values) ** 2
    assert rep.mass == pytest.approx(np.sum(mu * dens), rel=1e-12)
    assert rep.variance == pytest.approx(np.sum(mu * r ** (2 - F2.b) * dens), rel=1e-12)
    assert grad_V_sq - rep.potential_energy == pytest.approx(
        gradient_norm_sq(u.grid, u.values), rel=1e-12
    )
    assert rep.grad_sq == gradient_norm_sq(u.grid, u.values)
    assert rep.nonlinear_term == pytest.approx(
        np.sum(mu * r**F2.c * abs(u.values) ** (p + 2)), rel=1e-12
    )


def test_nonlinear_term_is_the_midpoint_sum():
    # ||u||^{p+2}_{c,p+2} is the midpoint sum itself, to the last bit.
    for params in (F2, NM):
        u = sample_field(params)
        g = u.grid
        want = np.sum(g.measure_weights * g.nodes**params.c * abs(u.values) ** (params.p + 2))
        assert evaluate_all(u, params, BUMP).nonlinear_term == want


def test_overflowing_nonlinear_term_is_refused():
    # |u|^4 overflows while the mass and gradient stay finite.
    g = grid_for(3, 0.0, 256)
    u = RadialField(g, 1e100 * np.exp(-(g.nodes**2)))
    with np.errstate(over="ignore"), pytest.raises(FunctionalError, match="nonlinear_term"):
        evaluate_all(u, F1, ZERO)


def test_k_special_cases_collapse_to_named_functionals():
    u = sample_field(F2, seed=9)
    rep = evaluate_all(u, F2, BUMP)
    # (1,0) is the Nehari derivative, (n,2) is 2-b times the virial form.
    assert k_from_report(rep, 1.0, 0.0, F2) == pytest.approx(rep.nehari, rel=1e-12)
    assert k_from_report(rep, F2.n, 2.0, F2) == pytest.approx(
        (2 - F2.b) * rep.virial, rel=1e-12
    )


@pytest.mark.parametrize("omega", [0.3, 1.0, 2.0, 16.0001251935])
def test_closed_forms_equal_a_second_pass_at_another_frequency(omega):
    u = sample_field(F2, seed=11)
    pw = F2.with_omega(omega)
    moved = at_frequency(evaluate_all(u, F2, BUMP), pw)
    assert moved == evaluate_all(u, pw, BUMP)
    for alpha, beta in ((1.0, 0.0), (float(F2.n), 2.0), (2.0, 1.0)):
        assert k_from_report(moved, alpha, beta, pw) == k_from_report(
            evaluate_all(u, pw, BUMP), alpha, beta, pw
        )


def test_k_matches_scaling_derivative_of_action():
    # Fourth-order difference of lam -> S(e^{alpha lam} u(e^{beta lam} r)).
    u = sample_field(F1, seed=3)
    alpha, beta = 2.0, 1.0

    def s_at(lam):
        return evaluate_all(scale_alpha_beta(u, alpha, beta, lam), F1, ZERO).action

    h = 1e-3
    fd = (8 * (s_at(h) - s_at(-h)) - (s_at(2 * h) - s_at(-2 * h))) / (12 * h)
    k = k_from_report(evaluate_all(u, F1, ZERO), alpha, beta, F1)
    assert fd == pytest.approx(k, rel=1e-4, abs=1e-6 * (1 + abs(s_at(0.0))))


def test_scale_alpha_beta_identity_and_amplitude():
    u = sample_field(F1, seed=1)
    same = scale_alpha_beta(u, 2.0, 1.0, 0.0)
    assert same is not u
    assert np.array_equal(same.values, u.values)
    # beta = 0 never moves nodes, so the scaling is a pure prefactor.
    amp = scale_alpha_beta(u, 0.7, 0.0, 0.5)
    assert amp.values == pytest.approx(np.exp(0.35) * u.values, rel=1e-9)


def test_scale_alpha_beta_mass_law():
    g = grid_for(3, 0.0, 4096)
    u = RadialField(g, np.exp(-g.nodes**2 / 2))
    m0 = evaluate_all(u, F1, ZERO).mass
    alpha, beta, lam = 1.5, 1.0, 0.1
    scaled = scale_alpha_beta(u, alpha, beta, lam)
    want = np.exp((2 * alpha - F1.n * beta) * lam) * m0
    assert evaluate_all(scaled, F1, ZERO).mass == pytest.approx(want, rel=1e-6)


def test_scale_alpha_beta_zeroes_outside_mesh():
    g = grid_for(3, 0.0, 1024)
    u = RadialField(g, np.exp(-g.nodes / 2))
    grown = scale_alpha_beta(u, 0.0, 1.0, 0.5)
    # Source radius e^{0.5} r exceeds r_max on the outer nodes.
    outside = np.exp(0.5) * g.nodes > g.r_max
    assert np.any(outside)
    assert np.all(grown.values[outside] == 0)


def test_scale_alpha_beta_warns_on_truncated_tail():
    g = grid_for(3, 0.0, 1024)
    u = RadialField(g, np.exp(-(g.nodes**2) / 64.0))
    with pytest.warns(TruncationWarning):
        scale_alpha_beta(u, 0.0, 1.0, -0.5)


def test_scale_soliton_mass_law():
    g = grid_for(3, -0.5, 4096)
    u = RadialField(g, np.exp(-g.nodes**2 / 2))
    m0 = evaluate_all(u, F2, ZERO).mass
    for lam in (0.5, 2.0):
        scaled = scale_soliton(u, lam, F2)
        ex = 2 * (2 - F2.b + F2.c) / F2.p - F2.n
        assert evaluate_all(scaled, F2, ZERO).mass == pytest.approx(
            lam**ex * m0, rel=1e-6
        )
    assert np.array_equal(scale_soliton(u, 1.0, F2).values, u.values)
    with pytest.raises(ValueError):
        scale_soliton(u, 0.0, F2)
    with pytest.raises(ValueError):
        scale_soliton(u, -2.0, F2)


def test_ground_state_action_is_nehari_fraction(gs_f1):
    # On the Nehari constraint, 2 S = L p / (p + 2).
    rep = evaluate_all(gs_f1.profile, F1, ZERO)
    assert abs(rep.nehari) < 1e-4 * rep.L
    assert 2 * rep.action == pytest.approx(rep.L * F1.p / (F1.p + 2), rel=1e-4)


def test_threshold_function_peaks_at_alpha():
    alpha = 1.7
    peak = threshold_peak(F1, alpha)
    assert threshold_function(alpha, F1, alpha) == pytest.approx(peak, rel=1e-12)
    # Strict maximum among nearby samples.
    for x in (0.5 * alpha, 0.9 * alpha, 1.1 * alpha, 2.0 * alpha):
        assert threshold_function(x, F1, alpha) < peak
    # Stationarity at the peak.
    h = 1e-6
    fd = (threshold_function(alpha + h, F1, alpha) - threshold_function(alpha - h, F1, alpha)) / (2 * h)
    assert abs(fd) < 1e-8 * alpha


def test_threshold_functions_need_intercritical_params():
    with pytest.raises(ValueError):
        threshold_function(1.0, MC, 1.0)
    with pytest.raises(ValueError):
        threshold_peak(MC, 1.0)
    with pytest.raises(ValueError):
        threshold_function(1.0, F1, 0.0)


def test_functionals_reject_mismatched_grid():
    u = sample_field(F1)
    with pytest.raises(GridError, match="grid built for"):
        evaluate_all(u, F2, ZERO)
