"""Time stepping: structure preservation, events, trace machinery."""

import json

import numpy as np
import pytest

from inls_lab.evolve import (
    EvolutionConfig,
    EvolutionTrace,
    EvolveError,
    RelaxationStepper,
    evolve,
    trace_to_csv,
    variance_concavity,
    virial_check,
)
from inls_lab.grid import GridError, RadialField, build_grid, gradient_norm_sq
from inls_lab.potential import PotentialSpec, eval_potential

from conftest import F1, F2, grid_for, solve

ZERO = PotentialSpec.zero()
BUMP = PotentialSpec.smooth_bump(0.4, 2.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt0=0.0),
        dict(dt0=1e-3, dt_min=1e-3),
        dict(dt0=1e-3, dt_min=0.0),
        dict(blowup_factor=1.0),
        dict(t_end=0.0),
        dict(sample_every=0),
        dict(dt0=np.inf),
        dict(t_end=np.inf),
        dict(blowup_factor=np.inf),
        dict(dt_min=np.inf),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(EvolveError):
        EvolutionConfig(**kwargs)


def gaussian(grid, width=1.5):
    return RadialField(grid, np.exp(-((grid.nodes / width) ** 2)))


def test_step_is_time_reversible():
    g = grid_for(3, -0.5, 512)
    u0 = gaussian(g)
    stepper = RelaxationStepper(g, F2, BUMP)
    dt = 1e-3
    u1 = stepper.step(u0.values, dt)
    u2 = stepper.step(u1, -dt)
    assert np.max(np.abs(u2 - u0.values)) < 1e-12
    with pytest.raises(EvolveError):
        stepper.step(u0.values, 0.0)


def test_step_preserves_mass_exactly():
    # Each relaxed Cayley step is unitary in the weighted norm, potential
    # and singular weights included.
    g = grid_for(3, -0.5, 512)
    mu = g.measure_weights
    v = gaussian(g).values
    m0 = np.sum(mu * abs(v) ** 2)
    stepper = RelaxationStepper(g, F2, BUMP)
    for _ in range(20):
        v = stepper.step(v, 1e-3)
    assert np.sum(mu * abs(v) ** 2) == pytest.approx(m0, rel=1e-13)


def test_stepper_bands_add_the_potential_quadratic_form():
    # <M_V u, u> = ||grad u||^2_{b,2} + int V|u|^2 on the stepper's bands.
    g = grid_for(3, -0.5, 256)
    stepper = RelaxationStepper(g, F2, BUMP)
    V = eval_potential(BUMP, g.nodes)[0]
    u = np.random.default_rng(13).standard_normal(g.N)
    Mu = stepper.sym_diag * u
    Mu[:-1] += stepper.sym_off * u[1:]
    Mu[1:] += stepper.sym_off * u[:-1]
    want = gradient_norm_sq(g, u) + float(np.sum(g.measure_weights * V * u**2))
    assert np.sum(Mu * u) == pytest.approx(want, rel=1e-12)


def test_standing_wave_rotates_at_omega():
    gs = solve(F1, 1024)
    q = gs.profile.values
    stepper = RelaxationStepper(gs.profile.grid, F1, ZERO)
    u = q
    dt, nsteps = 1e-3, 200
    for _ in range(nsteps):
        u = stepper.step(u, dt)
    phase = np.exp(1j * F1.omega * dt * nsteps)
    peak = float(np.max(np.abs(q)))
    assert np.max(np.abs(u - phase * q)) < 1e-3 * peak
    assert np.max(np.abs(np.abs(u) - np.abs(q))) < 1e-3 * peak


def test_cayley_matches_dense_solve():
    # Two steps against dense solves of the relaxed system
    # (mu + i dt/2 H) u+ = (mu - i dt/2 H) u, H = M - diag(mu r^c phi),
    # the second at a new dt so the extrapolation weight rho is not 1.
    rng = np.random.default_rng(3)
    g = build_grid(3, -0.5, r_max=10.0, N=40, grading=2.0)
    assert F2.c < 0
    stepper = RelaxationStepper(g, F2, BUMP)
    M = np.diag(stepper.sym_diag) + np.diag(stepper.sym_off, -1) + np.diag(stepper.sym_off, 1)
    mu = np.diag(stepper.mu)
    rc = g.nodes**F2.c
    u = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    phi = np.abs(u) ** F2.p  # phi^{-1/2} = |u^0|^p
    for dt_prev, dt in ((0.3, 0.3), (0.3, 0.1)):
        rho = dt / dt_prev
        phi = (1 + rho) * np.abs(u) ** F2.p - rho * phi
        H = M - np.diag(g.measure_weights * rc * phi)
        z = 1j * dt / 2
        want = np.linalg.solve(mu + z * H, (mu - z * H) @ u)
        u = stepper.step(u, dt)
        assert u == pytest.approx(want, rel=1e-11)


def test_evolve_completes_and_conserves():
    g = grid_for(3, 0.0, 512)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.2, sample_every=10, adaptivity=False)
    trace = evolve(gaussian(g), cfg, F1, ZERO)
    assert trace.events == [("Completed", pytest.approx(0.2, abs=1e-9))]
    assert trace.times[0] == 0.0
    m = np.asarray(trace.mass)
    assert np.max(np.abs(m - m[0])) < 1e-12 * m[0]
    e = np.asarray(trace.energy)
    assert np.max(np.abs(e - e[0])) < 1e-6 * max(1.0, abs(e[0]))
    assert trace.final_state is not None
    lists = (
        trace.mass,
        trace.energy,
        trace.grad_norm,
        trace.virial,
        trace.k_n2,
        trace.variance,
        trace.nehari,
        trace.outer_amp,
        trace.inner_amp,
    )
    assert all(len(s) == len(trace.times) for s in lists)


def test_gradient_series_is_the_raw_quadrature():
    # A large constant potential dominates ||grad u||^2_{b,V}; the recorded
    # gradient must not be recovered from it by cancellation.
    g = grid_for(3, 0.0, 512)
    u0 = gaussian(g)
    cfg = EvolutionConfig(dt0=1e-3, t_end=1e-3, sample_every=1)
    trace = evolve(u0, cfg, F1, PotentialSpec.const_plus_gaussian(1e8))
    assert trace.grad_norm[0] == np.sqrt(gradient_norm_sq(g, u0.values))


def test_evolve_rejects_mismatched_grid():
    g = grid_for(3, -0.5, 256)
    with pytest.raises(GridError, match="grid built for"):
        evolve(gaussian(g), EvolutionConfig(t_end=0.01), F1, ZERO)


def test_supercritical_multiple_triggers_blowup():
    gs = solve(F1, 1024)
    u0 = RadialField(gs.profile.grid, 1.5 * gs.profile.values)
    cfg = EvolutionConfig(
        dt0=1e-3, t_end=2.0, sample_every=10, blowup_factor=10.0, adaptivity=True
    )
    trace = evolve(u0, cfg, F1, ZERO)
    kind, t_event = trace.events[-1]
    assert kind == "BlowupTriggered"
    assert 0.0 < t_event < 2.0
    assert trace.grad_norm[-1] > 9.5 * trace.grad_norm[0]
    # Trailing variance samples are concave at the trigger.
    assert variance_concavity(trace) < 0
    m = np.asarray(trace.mass)
    assert np.max(np.abs(m - m[0])) < 1e-12 * m[0]


def test_benign_adaptive_run_keeps_dt0(tmp_path):
    # The gradient of a dispersing Gaussian never exceeds its initial
    # value, so the adaptive step stays at dt0 and the adaptive run
    # writes the same trace as a fixed-dt run, byte for byte.
    g = grid_for(3, 0.0, 512)
    u0 = RadialField(g, 0.5 * gaussian(g).values)
    text = {}
    for adaptivity in (True, False):
        cfg = EvolutionConfig(dt0=1e-3, t_end=0.1, sample_every=1, adaptivity=adaptivity)
        trace = evolve(u0, cfg, F1, ZERO)
        assert max(trace.grad_norm[1:]) < trace.grad_norm[0]
        trace_to_csv(trace, tmp_path / f"{adaptivity}.csv")
        text[adaptivity] = (tmp_path / f"{adaptivity}.csv").read_bytes()
    assert text[True] == text[False]


def test_zero_gradient_data_keep_dt0():
    # A gradient that is zero or underflows at t = 0 must not make dt zero.
    g = grid_for(3, 0.0, 256)
    for scale in (0.0, 1e-200):
        u0 = RadialField(g, scale * gaussian(g).values)
        trace = evolve(u0, EvolutionConfig(dt0=1e-3, t_end=0.01), F1, ZERO)
        assert trace.events == [("Completed", pytest.approx(0.01, abs=1e-12))]
        assert trace.steps == 10 and trace.dt_max == 1e-3


def test_unsampled_non_finite_gradient_names_the_time(monkeypatch):
    step = RelaxationStepper.step

    def poisoned(self, u, dt):
        out = step(self, u, dt).copy()
        out[7] = np.nan
        return out

    monkeypatch.setattr(RelaxationStepper, "step", poisoned)
    g = grid_for(3, 0.0, 256)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.1, sample_every=10)
    with pytest.raises(EvolveError, match="non-finite gradient norm at t = 0.001"):
        evolve(gaussian(g), cfg, F1, ZERO)


def test_adaptive_floor_stops_collapse():
    gs = solve(F1, 1024)
    u0 = RadialField(gs.profile.grid, 1.5 * gs.profile.values)
    # Floor just under dt0: gradient growth past 1 % pushes the adaptive
    # step below it.
    cfg = EvolutionConfig(
        dt0=1e-3, t_end=2.0, sample_every=5, blowup_factor=1e6, dt_min=9.9e-4
    )
    trace = evolve(u0, cfg, F1, ZERO)
    kind, t_event = trace.events[-1]
    assert kind == "StepFloorHit"
    assert t_event < 2.0


def test_step_floor_exit_state_is_sampled():
    # The F1 alpha = 2 sweep point: the step floor stops the run between
    # samples, and the last sample must describe the state it ended in.
    gs = solve(F1, 4096)
    u0 = RadialField(gs.profile.grid, 2.0 * gs.profile.values)
    trace = evolve(u0, EvolutionConfig(t_end=0.2), F1, ZERO)
    t_exit = trace.events[0][1]
    assert trace.events[0][0] == "StepFloorHit"
    assert trace.times[-1] == t_exit
    g = u0.grid
    growth = np.sqrt(gradient_norm_sq(g, trace.final_state.values) / gradient_norm_sq(g, u0.values))
    assert trace.grad_norm[-1] / trace.grad_norm[0] == pytest.approx(growth, rel=1e-12)
    # The trigger is evaluated on that sample: growth past 100 with a
    # concave variance.
    assert growth > 100 and variance_concavity(trace) < 0
    assert trace.events[-1] == ("BlowupTriggered", t_exit)


def test_variance_concavity_needs_three_samples():
    # Two samples support no second difference: no evidence of concavity.
    tr = EvolutionTrace(times=[0.0, 0.1], variance=[1.0, 0.5])
    assert variance_concavity(tr) == np.inf


def test_variance_concavity_on_nonuniform_concave_quadratic():
    # The nonuniform stencil is exact on quadratics: every second
    # difference of I(t) = 2 + t - 0.8 t^2 equals I'' = -1.6.
    ts = [0.0, 0.05, 0.2, 0.22, 0.4, 0.7, 0.75, 1.0, 1.3, 1.32, 1.6, 2.0]
    tr = EvolutionTrace(times=ts, variance=[2.0 + t - 0.8 * t**2 for t in ts])
    assert variance_concavity(tr) == pytest.approx(-1.6, rel=1e-9)


def test_virial_check_validates_sampling():
    tr = EvolutionTrace(times=[0.0, 0.1], variance=[1.0, 1.0], virial=[0.0, 0.0])
    with pytest.raises(EvolveError, match="3 samples"):
        virial_check(tr, F1)
    tr = EvolutionTrace(
        times=[0.0, 0.1, 0.3], variance=[1.0, 1.0, 1.0], virial=[0.0, 0.0, 0.0]
    )
    with pytest.raises(EvolveError, match="equally spaced"):
        virial_check(tr, F1)


def test_virial_check_zero_defect_on_exact_data():
    # I(t) = 1 + a t^2 and constant P with 2(2-b)^2 P = 2a satisfy the
    # identity exactly, including through the nonuniform-safe stencil.
    a = 0.7
    ts = [0.1 * k for k in range(8)]
    b = F2.b
    P = 2 * a / (2 * (2 - b) ** 2)
    tr = EvolutionTrace(
        times=ts,
        variance=[1.0 + a * t**2 for t in ts],
        virial=[P] * len(ts),
    )
    assert virial_check(tr, F2) < 1e-10


def test_trace_csv_and_events_sidecar(tmp_path):
    g = grid_for(3, 0.0, 256)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.05, sample_every=5, adaptivity=False)
    trace = evolve(gaussian(g), cfg, F1, ZERO)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass,energy,grad_norm,P,K_n2,variance,nehari,outer_amp,inner_amp"
    assert len(lines) == 1 + len(trace.times)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == trace.times[0]
    assert first[1] == trace.mass[0]
    assert first[8] == trace.outer_amp[0]
    assert first[9] == trace.inner_amp[0]
    sidecar = json.loads((tmp_path / "trace.events.json").read_text())
    assert sidecar["events"] == [{"kind": "Completed", "t": trace.events[0][1]}]
    assert sidecar["steps"] == trace.steps == 50
    assert sidecar["dt_max"] == 1e-3
    assert 0 < sidecar["dt_min"] <= 1e-3
    assert set(sidecar) == {"events", "steps", "dt_min", "dt_max"}


def test_c_negative_graded_march_stays_accurate(tmp_path):
    # An F2 Gaussian of amplitude 4 on the graded mesh puts its first
    # node at r ~ 1e-4, where r^c |u|^p is largest.  The march must end
    # in few steps with the energy conserved and no spike at the origin.
    g = grid_for(3, -0.5, 256)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.02)
    trace = evolve(RadialField(g, 4.0 * gaussian(g).values), cfg, F2, ZERO)
    assert trace.events == [("Completed", pytest.approx(0.02, abs=1e-12))]
    assert trace.steps <= 100
    e = np.asarray(trace.energy)
    assert np.max(np.abs(e - e[0])) < 1e-3 * abs(e[0])
    assert max(trace.inner_amp) < 1.01
    trace_to_csv(trace, tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert [float(r.split(",")[-1]) for r in rows[1:]] == trace.inner_amp
