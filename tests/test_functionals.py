"""Scalar functionals: internal identities, the scaling derivative K on
exact arcs."""

import dataclasses
import math

import numpy as np
import pytest

from inls_lab.functionals import FunctionalError, evaluate_all, quadrature
from inls_lab.grid import GridError, RadialField, gradient_norm_sq
from inls_lab.potential import PotentialSpec, eval_potential

from conftest import F1, F2, NM, grid_for

BUMP = PotentialSpec.smooth_bump(0.4, 2.0)
ZERO = PotentialSpec.zero()


def sample_profile(seed=5):
    """Three seeded complex Gaussian bumps as a closed-form function of r."""
    rng = np.random.default_rng(seed)
    bumps = []
    for _ in range(3):
        amp = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        ctr = rng.uniform(0.0, 5.0)
        wid = rng.uniform(1.0, 2.5)
        bumps.append((amp, ctr, wid))
    return lambda r: sum(amp * np.exp(-((r - ctr) ** 2) / wid**2) for amp, ctr, wid in bumps)


def sample_field(params, N=2048, seed=5):
    g = grid_for(params.n, params.b, N)
    return RadialField(g, sample_profile(seed)(g.nodes))


def test_report_internal_identities():
    u = sample_field(F2)
    rep = evaluate_all(u, F2, BUMP)
    p, w = F2.p, F2.omega
    grad_V_sq = rep.grad_sq + rep.potential_energy
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
    # ||u||^{p+2}_{c,p+2} and the other quadratures but the gradient are
    # midpoint sums, each one dot product of a weight premultiplied by mu
    # with one |u|^2 array, to the last bit.  A one-node field makes each
    # sum a single term, so the bits of |u|^2 = re^2 + im^2 reach the
    # result; in a long sum a last-bit change of some terms mostly
    # rounds away.
    rng = np.random.default_rng(3)
    for params in (F2, NM):
        u = sample_field(params)
        g = u.grid
        mu, r = g.measure_weights, g.nodes
        V, rVp, _ = eval_potential(BUMP, r)
        fields = [u.values]
        for k in rng.integers(0, g.N, 8):
            one = np.zeros(g.N, dtype=complex)
            one[k] = complex(*rng.standard_normal(2))
            fields.append(one)
        for v in fields:
            sq = v.real * v.real + v.imag * v.imag
            rep = evaluate_all(RadialField(g, v), params, BUMP)
            assert rep.nonlinear_term == np.dot(mu * r**params.c, sq ** ((params.p + 2) / 2))
            assert rep.mass == np.dot(mu, sq)
            assert rep.variance == np.dot(mu * r ** (2 - params.b), sq)
            assert rep.potential_energy == np.dot(mu * V, sq)
            assert rep.xgradV_term == np.dot(mu * rVp, sq)


# Bound on |quadrature - fsum(terms)| / fsum(|terms|): two units of
# roundoff, 4.4e-16.  Measured with OpenBLAS 0.3.31 (Haswell kernels) at
# N = 4096: the worst of the 8 cases below (4 seeds each) is 2.2e-16
# (variance); over F1, F2, MC and NMINUS, both potentials, 100 seeds,
# complex and real fields, it is 4.35e-16 (xgradV_term).  The dot
# products sum in long runs, not pairwise, so the bound holds at this
# N, not at any N: at N = 65536, over 10 seeds, the same sweep reads up
# to 1.3e-15.
FSUM_BOUND = 2 * np.finfo(float).eps


@pytest.mark.parametrize("is_complex", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("spec", [ZERO, BUMP], ids=["zero", "bump"])
@pytest.mark.parametrize("params", [F2, NM], ids=["F2", "NMINUS"])
def test_quadratures_lie_within_two_ulps_of_fsum(params, spec, is_complex):
    g = grid_for(params.n, params.b, 4096)
    mu, r = g.measure_weights, g.nodes
    V, rVp, _ = eval_potential(spec, r) if not spec.is_zero else (0 * r, 0 * r, None)
    for seed in range(4):
        u = sample_profile(seed)(r)
        if not is_complex:
            u = u.real.copy()
        a2 = np.abs(u) ** 2
        terms = {
            "grad_sq": np.append(
                g.face_weights * np.abs(np.diff(u)) ** 2, g.outer_face_weight * abs(u[-1]) ** 2
            ),
            "mass": mu * a2,
            "variance": mu * r ** (2 - params.b) * a2,
            "potential_energy": mu * V * a2,
            "xgradV_term": mu * rVp * a2,
            "nonlinear_term": mu * r**params.c * np.abs(u) ** (params.p + 2),
        }
        rep = evaluate_all(RadialField(g, u), params, spec)
        for name, t in terms.items():
            err = abs(getattr(rep, name) - math.fsum(t))
            assert err <= FSUM_BOUND * math.fsum(np.abs(t)), (name, seed)


@pytest.mark.parametrize("params, spec", [(F2, BUMP), (NM, ZERO)], ids=["F2-bump", "NMINUS-zero"])
def test_report_reads_strided_and_single_precision_values(params, spec):
    # A strided view and complex64 values are read as their C-contiguous
    # complex128 copy; a bare float view would raise on the first and
    # misread the second.
    g = grid_for(params.n, params.b, 2048)
    body = quadrature(g, params, spec)
    u2 = np.repeat(sample_profile(7)(g.nodes), 2)
    assert body.report(u2[::2]) == body.report(np.ascontiguousarray(u2[::2]))
    single = u2[::2].astype(np.complex64)
    assert body.report(single) == body.report(single.astype(complex))
    real = u2.real[::2]
    assert body.report(real) == body.report(real.copy())


def test_overflowing_nonlinear_term_is_refused():
    # |u|^4 overflows while the mass and gradient stay finite.
    g = grid_for(3, 0.0, 256)
    u = RadialField(g, 1e100 * np.exp(-(g.nodes**2)))
    with np.errstate(over="ignore"), pytest.raises(FunctionalError, match="nonlinear_term"):
        evaluate_all(u, F1, ZERO)


def test_k_special_cases_collapse_to_named_functionals():
    u = sample_field(F2, seed=9)
    rep = evaluate_all(u, F2, BUMP)
    # (1,0) is the Nehari derivative, (n,2) is 2-b times the virial form;
    # each pair shares one closed form, so they agree to the last bit.
    assert rep.nehari == rep.k(1, 0)
    assert rep.virial == rep.k(F2.n, 2) / (2 - F2.b)
    assert rep.k(F2.n, 2) == rep.k(float(F2.n), 2.0)


@pytest.mark.parametrize("omega", [0.3, 1.0, 2.0, 16.0001251935])
def test_closed_forms_equal_a_second_pass_at_another_frequency(omega):
    u = sample_field(F2, seed=11)
    moved = evaluate_all(u, F2, BUMP).at(omega)
    again = evaluate_all(u, F2.with_omega(omega), BUMP)
    assert moved == again
    for alpha, beta in ((1.0, 0.0), (float(F2.n), 2.0), (2.0, 1.0)):
        assert moved.k(alpha, beta) == again.k(alpha, beta)
    for name in ("energy", "action", "L", "nehari", "virial"):
        assert getattr(moved, name) == getattr(again, name)


def test_report_at_another_frequency_keeps_all_but_omega():
    rep = evaluate_all(sample_field(F2, seed=11), F2, BUMP)
    moved = rep.at(2.5)
    for f in dataclasses.fields(rep):
        if f.name != "params":
            assert getattr(moved, f.name) == getattr(rep, f.name)
    assert moved.params == dataclasses.replace(F2, omega=2.5)
    # Only omega enters the frequency-dependent forms.
    assert moved.energy == rep.energy
    assert moved.action == pytest.approx(rep.action + 0.5 * (2.5 - F2.omega) * rep.mass, rel=1e-14)


def test_k_matches_scaling_derivative_of_action():
    # Fourth-order difference of lam -> S(e^{alpha lam} u(e^{beta lam} r)),
    # with the arc evaluated in closed form at the nodes.
    u = sample_profile(seed=3)
    g = grid_for(F1.n, F1.b, 2048)
    alpha, beta = 2.0, 1.0

    def s_at(lam):
        arc = RadialField(g, np.exp(alpha * lam) * u(np.exp(beta * lam) * g.nodes))
        return evaluate_all(arc, F1, ZERO).action

    h = 1e-3
    fd = (8 * (s_at(h) - s_at(-h)) - (s_at(2 * h) - s_at(-2 * h))) / (12 * h)
    k = evaluate_all(RadialField(g, u(g.nodes)), F1, ZERO).k(alpha, beta)
    assert fd == pytest.approx(k, rel=1e-4, abs=1e-6 * (1 + abs(s_at(0.0))))


def test_ground_state_action_is_nehari_fraction(gs_f1):
    # On the Nehari constraint, 2 S = L p / (p + 2).
    rep = gs_f1.report
    assert abs(rep.nehari) < 1e-4 * rep.L
    assert 2 * rep.action == pytest.approx(rep.L * F1.p / (F1.p + 2), rel=1e-4)


def test_functionals_reject_mismatched_grid():
    u = sample_field(F1)
    with pytest.raises(GridError, match="grid built for"):
        evaluate_all(u, F2, ZERO)
