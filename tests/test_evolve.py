"""Time stepping: structure preservation, events, trace machinery."""

import json
import math
import re
import sys

import numpy as np
import pytest

from inls_lab.evolve import (
    EvolutionConfig,
    EvolutionTrace,
    EvolveError,
    RelaxationStepper,
    evolve,
    relative_drift,
    variance_concavity,
    virial_check,
)
from inls_lab.cli import trace_to_csv
from inls_lab.functionals import FunctionalError, FunctionalReport, evaluate_all
from inls_lab.grid import GridError, RadialField, build_grid, gradient_norm_sq, zgtsv
from inls_lab.potential import PotentialSpec, eval_potential

from conftest import F1, F2, MC, NM, grid_for, solve

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


def test_sample_every_must_be_a_positive_integer():
    # 2.5 would sample every 5 steps without saying so.  A NumPy
    # integer is an integer.
    for every in (2.5, 2.0, "3"):
        with pytest.raises(EvolveError, match=re.escape(f"an integer >= 1, got {every!r}")):
            EvolutionConfig(sample_every=every)
    assert EvolutionConfig(sample_every=np.int64(3)).sample_every == 3


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


def test_step_names_a_failed_cayley_solve(monkeypatch):
    def singular(dl, d, du, b, *overwrite):
        return dl, d, du, b, 1

    # the package binds the name evolve to the function, so reach the module by its name
    monkeypatch.setattr(sys.modules[RelaxationStepper.__module__], "zgtsv", singular)
    g = grid_for(3, -0.5, 512)
    with pytest.raises(EvolveError, match=r"^Cayley solve failed \(zgtsv info 1\)$"):
        RelaxationStepper(g, F2, BUMP).step(gaussian(g).values, 1e-3)


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


def test_step_is_the_besse_step_to_the_last_bit():
    # A direct transcription of the relaxation step, over dt changes of
    # both signs, so that the extrapolation weight rho takes negative
    # values and values other than 1.
    g = grid_for(3, -0.5, 512)
    assert F2.c < 0
    mu = g.measure_weights
    sym_diag = g.stiffness_diag + mu * eval_potential(BUMP, g.nodes)[0]
    sym_off = -g.face_weights
    mu_rc = mu * g.nodes**F2.c
    stepper = RelaxationStepper(g, F2, BUMP)
    u = v = gaussian(g).values
    phi_prev = dt_prev = None
    for dt in (1e-3, 1e-3, 7e-4, 1.3e-3, -1e-3, -5e-4, -5e-4, 2e-3):
        phi = np.abs(v) ** F2.p
        if phi_prev is not None:
            rho = dt / dt_prev
            phi = (1 + rho) * phi - rho * phi_prev
        phi_prev, dt_prev = phi, dt
        diag = mu + 1j * ((sym_diag - mu_rc * phi) * (dt / 2))
        off = (0.5j * dt) * sym_off
        y = zgtsv(off, diag, off.copy(), (2 * mu) * v)[3]
        v = y - v
        u = stepper.step(u, dt)
        assert np.array_equal(stepper.phi, phi)
        assert np.array_equal(u, v)


def test_evolve_completes_and_conserves():
    g = grid_for(3, 0.0, 512)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.2, sample_every=10, adaptivity=False)
    trace = evolve(gaussian(g), cfg, F1, ZERO)
    assert trace.events == [("Completed", pytest.approx(0.2, abs=1e-9))]
    assert trace.times[0] == 0.0
    m = np.asarray(trace.mass)
    assert np.max(np.abs(m - m[0])) < 1e-12 * m[0]
    e = np.asarray([r.energy for r in trace.reports])
    assert np.max(np.abs(e - e[0])) < 1e-6 * max(1.0, abs(e[0]))
    assert trace.final_state is not None


def test_gradient_series_is_the_raw_quadrature():
    # A large constant potential dominates ||grad u||^2_{b,V}; the recorded
    # gradient must not be recovered from it by cancellation.
    g = grid_for(3, 0.0, 512)
    u0 = gaussian(g)
    cfg = EvolutionConfig(dt0=1e-3, t_end=1e-3, sample_every=1)
    trace = evolve(u0, cfg, F1, PotentialSpec.const_plus_gaussian(1e8))
    assert trace.reports[0].grad_sq == gradient_norm_sq(g, u0.values)


@pytest.mark.parametrize("params, spec", [(F1, BUMP), (NM, ZERO), (NM, BUMP)])
def test_march_samples_are_evaluate_all_reports(params, spec):
    # A march reports its samples through evaluate_all's own body: the
    # first and the last sample equal evaluate_all of that field, bit for bit.
    g = grid_for(params.n, params.b, 512)
    u0 = gaussian(g)
    trace = evolve(u0, EvolutionConfig(dt0=1e-3, t_end=0.02, sample_every=3), params, spec)
    for i, u in ((0, u0), (-1, trace.final_state)):
        assert trace.reports[i] == evaluate_all(u, params, spec)


@pytest.mark.parametrize("adaptivity", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("params, amp", [(F1, 2.5), (F2, 2.5), (MC, 6.0)], ids=["F1", "F2", "MC"])
def test_sampling_only_reads_the_march(params, amp, adaptivity):
    # Whatever sample_every is, a march takes the same steps to the same
    # state, bit for bit.  The adaptive data focus, so that dt varies.
    g = grid_for(params.n, params.b, 1024)
    u0 = RadialField(g, amp * np.exp(-(g.nodes**2)))
    runs = []
    for every in (1, 7, 10):
        cfg = EvolutionConfig(dt0=1e-3, t_end=0.3, sample_every=every, adaptivity=adaptivity)
        trace = evolve(u0, cfg, params, ZERO)
        assert trace.events == [("Completed", pytest.approx(0.3, abs=1e-12))]
        runs.append((trace.steps, trace.dt_min, trace.dt_max, trace.final_state.values))
    steps, dt_min, dt_max, final = runs[0]
    if adaptivity:
        assert dt_min < 0.75 * dt_max
    for other in runs[1:]:
        assert other[:3] == (steps, dt_min, dt_max)
        assert np.array_equal(other[3], final)


def test_march_evaluates_the_potential_once(count_calls):
    g = grid_for(3, 0.0, 256)
    calls = count_calls("eval_potential")
    seen = []
    for every in (1, 10):
        cfg = EvolutionConfig(dt0=1e-3, t_end=0.02, sample_every=every, adaptivity=False)
        before = calls["eval_potential"]
        trace = evolve(gaussian(g), cfg, F1, BUMP)
        seen.append((len(trace.times), calls["eval_potential"] - before))
    assert seen == [(21, 1), (3, 1)]


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
    assert trace.grad_growth > 9.5
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
        assert max(r.grad_sq for r in trace.reports[1:]) < trace.reports[0].grad_sq
        trace_to_csv(trace, tmp_path / f"{adaptivity}.csv", tmp_path / f"{adaptivity}.events.json")
        text[adaptivity] = (tmp_path / f"{adaptivity}.csv").read_bytes()
    assert text[True] == text[False]


def test_run_ends_without_a_sliver_step():
    # The gradient law holds dt a hair below dt0 here, so a last step of
    # what is left of t_end would be 2.6e-7 long.
    g = grid_for(3, 0.0, 2048)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.5)
    trace = evolve(gaussian(g, width=1.0), cfg, F1, PotentialSpec.smooth_bump(0.5, 2.0))
    assert trace.events == [("Completed", pytest.approx(0.5, abs=1e-12))]
    assert trace.dt_min >= cfg.dt0 / 2
    assert np.min(np.diff(trace.times)) >= cfg.dt0 / 2


def test_zero_gradient_data_keep_dt0():
    # A gradient that is zero or underflows at t = 0 must not make dt zero.
    g = grid_for(3, 0.0, 256)
    for scale in (0.0, 1e-200):
        u0 = RadialField(g, scale * gaussian(g).values)
        trace = evolve(u0, EvolutionConfig(dt0=1e-3, t_end=0.01), F1, ZERO)
        assert trace.events == [("Completed", pytest.approx(0.01, abs=1e-12))]
        assert trace.steps == 10 and trace.dt_max == 1e-3
        # no growth is defined from a zero gradient, nor from one whose
        # square underflows (the 1e-200 Gaussian's growth is about 1)
        assert trace.grad_growth is None


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


def test_sampled_non_finite_field_names_the_time(monkeypatch):
    # A NaN planted by the step just before a sample reaches the sample
    # itself, which must name it as a non-finite field at that time.
    step = RelaxationStepper.step
    steps = []

    def poisoned(self, u, dt):
        out = step(self, u, dt)
        steps.append(dt)
        if len(steps) == 10:
            out[7] = np.nan
        return out

    monkeypatch.setattr(RelaxationStepper, "step", poisoned)
    g = grid_for(3, 0.0, 256)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.1, sample_every=10)
    with pytest.raises(EvolveError, match=r"non-finite field at t = 0\.01$"):
        evolve(gaussian(g), cfg, F1, ZERO)


def test_march_refuses_an_overflowing_nonlinear_term():
    # The field is finite, so the refusal is the quadrature's own.
    g = grid_for(3, 0.0, 256)
    u0 = RadialField(g, 1e100 * np.exp(-(g.nodes**2)))
    with np.errstate(over="ignore"), pytest.raises(FunctionalError, match="nonlinear_term"):
        evolve(u0, EvolutionConfig(t_end=0.01), F1, ZERO)


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
    assert trace.grad_growth == pytest.approx(growth, rel=1e-12)
    # The trigger is evaluated on that sample: growth past 100 with a
    # concave variance.
    assert growth > 100 and variance_concavity(trace) < 0
    assert trace.events[-1] == ("BlowupTriggered", t_exit)


def sample(variance, virial=0.0):
    """A report with the given variance and, with zero potential and
    nonlinear terms, a virial equal to its grad_sq."""
    return FunctionalReport(1.0, variance, virial, 0.0, 0.0, 0.0, F2)


def test_variance_concavity_needs_three_samples():
    # Two samples support no second difference: no evidence of concavity.
    tr = EvolutionTrace(times=[0.0, 0.1], reports=[sample(1.0), sample(0.5)])
    assert variance_concavity(tr) == np.inf


def test_variance_concavity_on_nonuniform_concave_quadratic():
    # The nonuniform stencil is exact on quadratics: every second
    # difference of I(t) = 2 + t - 0.8 t^2 equals I'' = -1.6.
    ts = [0.0, 0.05, 0.2, 0.22, 0.4, 0.7, 0.75, 1.0, 1.3, 1.32, 1.6, 2.0]
    tr = EvolutionTrace(times=ts, reports=[sample(2.0 + t - 0.8 * t**2) for t in ts])
    # Only the trailing ten samples are read, so earlier ones may be anything.
    tr.reports[:2] = [None, None]
    assert variance_concavity(tr) == pytest.approx(-1.6, rel=1e-9)


def test_virial_check_validates_sampling():
    tr = EvolutionTrace(times=[0.0, 0.1], reports=[sample(1.0)] * 2)
    with pytest.raises(EvolveError, match="3 samples"):
        virial_check(tr, F1)
    tr = EvolutionTrace(times=[0.0, 0.1, 0.3], reports=[sample(1.0)] * 3)
    with pytest.raises(EvolveError, match="equally spaced"):
        virial_check(tr, F1)


def test_virial_check_zero_defect_on_exact_data():
    # I(t) = 1 + a t^2 and constant P with 2(2-b)^2 P = 2a satisfy the
    # identity exactly, including through the nonuniform-safe stencil.
    a = 0.7
    ts = [0.1 * k for k in range(8)]
    b = F2.b
    P = 2 * a / (2 * (2 - b) ** 2)
    tr = EvolutionTrace(times=ts, reports=[sample(1.0 + a * t**2, P) for t in ts])
    assert tr.reports[0].virial == pytest.approx(P, rel=1e-15)
    assert virial_check(tr, F2) < 1e-10


def test_trace_csv_and_events_sidecar(tmp_path):
    g = grid_for(3, 0.0, 256)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.05, sample_every=5, adaptivity=False)
    trace = evolve(gaussian(g), cfg, F1, ZERO)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path, tmp_path / "trace.events.json")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass,energy,grad_norm,P,K_n2,variance,nehari,outer_amp,inner_amp"
    assert len(lines) == 1 + len(trace.times)
    # every column of every row is the .17g form of its sample's value
    for line, t, r, outer, inner in zip(
        lines[1:], trace.times, trace.reports, trace.outer_amp, trace.inner_amp
    ):
        want = (t, r.mass, r.energy, math.sqrt(r.grad_sq), r.virial, r.k(F1.n, 2),
                r.variance, r.nehari, outer, inner)
        assert line.split(",") == [f"{x:.17g}" for x in want]
    sidecar = json.loads((tmp_path / "trace.events.json").read_text())
    assert sidecar["events"] == [{"kind": "Completed", "t": trace.events[0][1]}]
    assert sidecar["steps"] == trace.steps == 50
    assert sidecar["dt_max"] == 1e-3
    assert 0 < sidecar["dt_min"] <= 1e-3
    m, e = np.asarray(trace.mass), np.asarray([r.energy for r in trace.reports])
    assert sidecar["mass_drift"] == np.max(np.abs(m - m[0])) / m[0] < 1e-12
    assert sidecar["energy_drift"] == np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6
    assert sidecar["inner_amp_max"] == max(trace.inner_amp)
    assert set(sidecar) == {
        "events", "steps", "dt_min", "dt_max", "mass_drift", "energy_drift", "inner_amp_max"
    }


def test_relative_drift_needs_a_nonzero_start():
    assert relative_drift([]) is None
    assert relative_drift([0.0, 0.0]) is None
    assert relative_drift([-2.0, -2.5, -1.0]) == 0.5


def test_c_negative_graded_march_stays_accurate(tmp_path):
    # An F2 Gaussian of amplitude 4 on the graded mesh puts its first
    # node at r ~ 1e-4, where r^c |u|^p is largest.  The march must end
    # in few steps with the energy conserved and no spike at the origin.
    g = grid_for(3, -0.5, 256)
    cfg = EvolutionConfig(dt0=1e-3, t_end=0.02)
    trace = evolve(RadialField(g, 4.0 * gaussian(g).values), cfg, F2, ZERO)
    assert trace.events == [("Completed", pytest.approx(0.02, abs=1e-12))]
    assert trace.steps <= 100
    e = np.asarray([r.energy for r in trace.reports])
    assert np.max(np.abs(e - e[0])) < 1e-3 * abs(e[0])
    assert max(trace.inner_amp) < 1.01
    trace_to_csv(trace, tmp_path / "trace.csv", tmp_path / "trace.events.json")
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    column = [float(r.split(",")[-1]) for r in rows[1:]]
    assert column == trace.inner_amp
    sidecar = json.loads((tmp_path / "trace.events.json").read_text())
    assert sidecar["inner_amp_max"] == max(column)
