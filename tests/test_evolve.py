"""Time stepping: structure preservation, events, trace machinery."""

import json

import numpy as np
import pytest

from inls_lab.evolve import (
    EvolutionConfig,
    EvolutionTrace,
    EvolveError,
    evolve,
    step,
    trace_to_csv,
    variance_concavity,
    virial_check,
)
from inls_lab.grid import RadialField, gradient_norm_sq, weighted_norm
from inls_lab.potential import PotentialSpec

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
    dt = 1e-3
    u1 = step(u0, dt, F2, BUMP)
    u2 = step(u1, -dt, F2, BUMP)
    assert np.max(np.abs(u2.values - u0.values)) < 1e-12
    with pytest.raises(EvolveError):
        step(u0, 0.0, F2, BUMP)


def test_step_preserves_mass_exactly():
    # Cayley linear step and pointwise phase are both unitary in the
    # weighted norm, potential and singular weights included.
    g = grid_for(3, -0.5, 512)
    u = gaussian(g)
    m0 = weighted_norm(u, 0.0, 2.0)
    for _ in range(20):
        u = step(u, 1e-3, F2, BUMP)
    assert weighted_norm(u, 0.0, 2.0) == pytest.approx(m0, rel=1e-13)


def test_standing_wave_rotates_at_omega():
    gs = solve(F1, 1024)
    q = gs.profile.values
    u = gs.profile
    dt, nsteps = 1e-3, 200
    for _ in range(nsteps):
        u = step(u, dt, F1, ZERO)
    phase = np.exp(1j * F1.omega * dt * nsteps)
    peak = float(np.max(np.abs(q)))
    assert np.max(np.abs(u.values - phase * q)) < 1e-3 * peak
    assert np.max(np.abs(np.abs(u.values) - np.abs(q))) < 1e-3 * peak


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
    )
    assert all(len(s) == len(trace.times) for s in lists)


def test_evolve_rejects_mismatched_grid():
    g = grid_for(3, -0.5, 256)
    with pytest.raises(EvolveError, match="grid built for"):
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


def test_adaptive_floor_stops_collapse():
    gs = solve(F1, 1024)
    u0 = RadialField(gs.profile.grid, 1.5 * gs.profile.values)
    # Floor just under dt0: the first few percent of gradient growth
    # already push the adaptive step below it.
    cfg = EvolutionConfig(
        dt0=1e-3, t_end=2.0, sample_every=5, blowup_factor=1e6, dt_min=9.9e-4
    )
    trace = evolve(u0, cfg, F1, ZERO)
    kind, t_event = trace.events[-1]
    assert kind == "StepFloorHit"
    assert t_event < 2.0


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
    assert lines[0] == "t,mass,energy,grad_norm,P,K_n2,variance,nehari"
    assert len(lines) == 1 + len(trace.times)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == trace.times[0]
    assert first[1] == trace.mass[0]
    sidecar = tmp_path / "trace.events.json"
    events = json.loads(sidecar.read_text())["events"]
    assert events == [{"kind": "Completed", "t": trace.events[0][1]}]
