"""Time integration of the Cauchy problem with conservation-exact bookkeeping.

The flow

    i u_t + div(r^b grad u) - V u = -r^c |u|^p u

splits into an exactly solvable nonlinear phase (the modulus is
invariant under it, so u <- u exp(i (dt/2) r^c |u|^p) integrates the
nonlinear part with no error) and a linear part advanced by the Cayley
transform

    (1 + i (dt/2) A) u+ = (1 - i (dt/2) A) u,

which is exactly unitary in the mu-weighted inner product because A is
discretely self-adjoint.  The Strang composition
nonlinear-linear-nonlinear is therefore mass-exact to solver roundoff
and second-order accurate in time for the energy.

Adaptive stepping follows the self-similar collapse scale,
dt = dt0 min(1, ||grad u0||^2/||grad u||^2), with two safeguards: a
hard floor dt_min that ends the run honestly (StepFloorHit), and a
phase-resolution cap dt <= theta_max / max(r^c |u|^p).  The cap is
invisible on benign data but essential when c < 0: the nonlinear phase
angle at the innermost node scales like r^c, and once a half-step
rotates that node by an O(1) angle the split scheme pumps amplitude
into the origin cell (a purely numerical kicked-rotor resonance) and
corrupts every gradient-based diagnostic downstream.

Blow-up is reported as a candidate event, never a proof: the trigger
requires gradient growth past blowup_factor together with a negative
second difference of the variance over the trailing samples, so that
isolated gradient spikes do not masquerade as collapse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .functionals import evaluate_all
from .grid import (
    RadialField,
    assemble_operator,
    gradient_norm_sq,
    solve_tridiagonal,
    weighted_norm,
)
from .params import ProblemParams
from .potential import PotentialSpec, eval_potential

__all__ = [
    "EvolutionConfig",
    "EvolutionTrace",
    "EvolveError",
    "evolve",
    "step",
    "trace_to_csv",
    "variance_concavity",
    "virial_check",
]

# Largest nonlinear half-phase angle (radians) an adaptive step may
# apply at any node; see the module docstring.
PHASE_CAP = 1.0


class EvolveError(RuntimeError):
    """Evolution failures: invalid configuration or non-finite fields."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Stepping policy for one run."""

    dt0: float = 1e-3
    t_end: float = 1.0
    sample_every: int = 10
    blowup_factor: float = 100.0
    dt_min: float = 1e-9
    adaptivity: bool = True

    def __post_init__(self) -> None:
        if not self.dt0 > self.dt_min > 0:
            raise EvolveError(
                f"need dt0 > dt_min > 0, got dt0={self.dt0}, dt_min={self.dt_min}"
            )
        if not self.blowup_factor > 1:
            raise EvolveError(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        if not self.t_end > 0:
            raise EvolveError(f"t_end must be positive, got {self.t_end}")
        if self.sample_every < 1:
            raise EvolveError(f"sample_every must be >= 1, got {self.sample_every}")


@dataclass
class EvolutionTrace:
    """Sampled diagnostics of one run; all series share `times`.

    variance is the weighted square norm ||u||^2_{2-b,2} whose second
    time derivative the virial identity controls.  outer_amp records
    |u| at the outermost cell as a boundary-contamination witness.
    events holds (kind, time) pairs with kind in {"BlowupTriggered",
    "Completed", "StepFloorHit"}.
    """

    times: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    virial: list[float] = field(default_factory=list)
    k_n2: list[float] = field(default_factory=list)
    variance: list[float] = field(default_factory=list)
    nehari: list[float] = field(default_factory=list)
    outer_amp: list[float] = field(default_factory=list)
    events: list[tuple[str, float]] = field(default_factory=list)
    final_state: RadialField | None = None


def _nonlinear_phase(u: np.ndarray, rc: np.ndarray, p: float, half_dt: float) -> np.ndarray:
    return u * np.exp(1j * half_dt * rc * np.abs(u) ** p)


def _cayley(sym_diag, sym_off, mu, u, dt):
    """One unitary linear step (1 + i dt/2 A) u+ = (1 - i dt/2 A) u.

    Solved in the symmetric form (mu + i dt/2 M) u+ = (mu - i dt/2 M) u
    so both sides share the tridiagonal bands of M.
    """
    z = 1j * (dt / 2)
    rhs = (mu - z * sym_diag) * u
    rhs[:-1] -= z * sym_off * u[1:]
    rhs[1:] -= z * sym_off * u[:-1]
    return solve_tridiagonal(mu + z * sym_diag, z * sym_off, rhs)


def _strang(op, mu, rc, p, u, dt):
    """nonlinear(dt/2) o Cayley(dt) o nonlinear(dt/2) on node values."""
    v = _nonlinear_phase(u, rc, p, dt / 2)
    v = _cayley(op.sym_diag, op.sym_off, mu, v, dt)
    return _nonlinear_phase(v, rc, p, dt / 2)


def variance_concavity(trace: EvolutionTrace) -> float:
    """Largest nonuniform second difference of the variance over the
    trailing ten samples: negative means concave.  Fewer than three
    samples give +inf, so concavity is never claimed without evidence.
    """
    ts = np.array(trace.times[-10:])
    Is = np.array(trace.variance[-10:])
    if ts.size < 3:
        return float("inf")
    h1 = ts[1:-1] - ts[:-2]
    h2 = ts[2:] - ts[1:-1]
    d2 = 2 * (h1 * Is[2:] - (h1 + h2) * Is[1:-1] + h2 * Is[:-2]) / (
        h1 * h2 * (h1 + h2)
    )
    return float(np.max(d2))


def step(
    u: RadialField, dt: float, params: ProblemParams, spec: PotentialSpec
) -> RadialField:
    """One Strang step nonlinear(dt/2) o Cayley(dt) o nonlinear(dt/2)."""
    if dt == 0.0:
        raise EvolveError("dt must be nonzero")
    g = u.grid
    V = eval_potential(spec, g.nodes)[0]
    op = assemble_operator(g, V)
    rc = g.nodes**params.c
    return RadialField(g, _strang(op, g.measure_weights, rc, params.p, u.values, dt))


def evolve(
    u0: RadialField,
    cfg: EvolutionConfig,
    params: ProblemParams,
    spec: PotentialSpec,
) -> EvolutionTrace:
    """Run the splitting scheme from u0 and record diagnostics.

    Stops at t_end (Completed), at the blow-up trigger
    (BlowupTriggered), or when the adaptive step hits the floor
    (StepFloorHit).  The trigger fires at the first sample where the
    gradient norm exceeds blowup_factor times its initial value AND
    the variance is concave in time over the trailing ten samples;
    gradient growth alone is treated as unconfirmed until at least
    three samples support the second difference.
    """
    g = u0.grid
    if g.n != params.n or g.b != params.b:
        raise EvolveError(
            f"grid built for (n={g.n}, b={g.b}) but params have "
            f"(n={params.n}, b={params.b})"
        )
    V = eval_potential(spec, g.nodes)[0]
    op = assemble_operator(g, V)
    mu = g.measure_weights
    rc = g.nodes**params.c
    p = params.p

    u = u0.values.astype(complex, copy=True)
    grad0_sq = gradient_norm_sq(u0)
    trigger_sq = cfg.blowup_factor**2 * grad0_sq

    trace = EvolutionTrace()

    def sample(t: float, vals: np.ndarray) -> float:
        f = RadialField(g, vals)
        rep = evaluate_all(f, params, spec)
        trace.times.append(t)
        trace.mass.append(rep.mass)
        trace.energy.append(rep.energy)
        gsq = rep.grad_norm_V**2 - rep.potential_energy
        trace.grad_norm.append(float(np.sqrt(max(gsq, 0.0))))
        trace.virial.append(rep.virial)
        trace.k_n2.append((2 - params.b) * rep.virial)  # K^{n,2} = (2-b) P
        trace.variance.append(weighted_norm(f, 2 - params.b, 2.0) ** 2)
        trace.nehari.append(rep.nehari)
        trace.outer_amp.append(float(np.abs(vals[-1])))
        return gsq

    t = 0.0
    gsq = sample(t, u)
    steps = 0
    while t < cfg.t_end - 1e-12:
        if cfg.adaptivity:
            dt = cfg.dt0 * float(min(1.0, grad0_sq / max(gsq, 1e-300)))
            phase_rate = float(np.max(rc * np.abs(u) ** p))
            if phase_rate > 0:
                dt = min(dt, PHASE_CAP / phase_rate)
            if dt < cfg.dt_min:
                trace.events.append(("StepFloorHit", t))
                break
        else:
            dt = cfg.dt0
        dt = min(dt, cfg.t_end - t)

        u = _strang(op, mu, rc, p, u, dt)
        t += dt
        steps += 1

        if steps % cfg.sample_every == 0 or t >= cfg.t_end - 1e-12:
            if not np.all(np.isfinite(u)):
                raise EvolveError(f"non-finite field at t = {t:.6g}")
            gsq = sample(t, u)
            if gsq >= trigger_sq and variance_concavity(trace) < 0:
                trace.events.append(("BlowupTriggered", t))
                break
        else:
            # keep the adaptive law responsive between samples
            gsq = gradient_norm_sq(RadialField(g, u))
    else:
        trace.events.append(("Completed", t))

    trace.final_state = RadialField(g, u)
    return trace


def virial_check(trace: EvolutionTrace, params: ProblemParams, floor: float = 1.0) -> float:
    """Max relative defect of d^2/dt^2 variance = 2(2-b)^2 P.

    Requires at least three equally spaced samples; the defect at each
    interior sample is measured against max(|2(2-b)^2 P|, floor) so
    that standing waves (both sides near zero) are judged against an
    absolute scale rather than 0/0.
    """
    ts = np.asarray(trace.times)
    if ts.size < 3:
        raise EvolveError("virial check needs at least 3 samples")
    dts = np.diff(ts)
    h = dts[0]
    if np.max(np.abs(dts - h)) > 1e-9 * h:
        raise EvolveError("virial check needs equally spaced samples")
    I = np.asarray(trace.variance)
    P = np.asarray(trace.virial)
    lhs = (I[2:] - 2 * I[1:-1] + I[:-2]) / h**2
    rhs = 2 * (2 - params.b) ** 2 * P[1:-1]
    defect = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), floor)
    return float(np.max(defect))


def trace_to_csv(trace: EvolutionTrace, path) -> None:
    """Write the sampled series as CSV plus a JSON events sidecar."""
    path = str(path)
    with open(path, "w") as fh:
        fh.write("t,mass,energy,grad_norm,P,K_n2,variance,nehari\n")
        for row in zip(
            trace.times,
            trace.mass,
            trace.energy,
            trace.grad_norm,
            trace.virial,
            trace.k_n2,
            trace.variance,
            trace.nehari,
        ):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    sidecar = path[:-4] + ".events.json" if path.endswith(".csv") else path + ".events.json"
    with open(sidecar, "w") as fh:
        json.dump(
            {"events": [{"kind": k, "t": t} for k, t in trace.events]},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
