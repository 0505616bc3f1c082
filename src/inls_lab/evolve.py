"""Time integration of the Cauchy problem with conservation-exact bookkeeping.

The flow

    i u_t + div(r^b grad u) - V u = -r^c |u|^p u

is advanced by the relaxation Cayley scheme of Besse (SIAM J. Numer.
Anal. 42 (2004) 934-952).  The nonlinearity enters as a potential phi
staggered half a step from u and extrapolated linearly in time,

    phi^{n+1/2} = (1 + rho) |u^n|^p - rho phi^{n-1/2},
    rho = dt_n / dt_{n-1},   phi^{-1/2} = |u^0|^p,

and u is advanced by the Cayley transform of the linear operator that
potential makes,

    (1 + i (dt/2) H) u^{n+1} = (1 - i (dt/2) H) u^n,
    H = A - diag(r^c phi^{n+1/2}).

H is discretely self-adjoint in the mu-weighted inner product, so each
step is exactly unitary there: mass is conserved to solver roundoff,
and the scheme is second-order accurate and time reversible.  No node
is rotated on its own, so singular weights (c < 0) need no phase bound
and no special mesh.  Multiplied by mu the system is tridiagonal,
(mu + i (dt/2) (M - diag(mu r^c phi))) u^{n+1} = (mu - ...) u^n, with M
the grid's M_{b,0} plus diag(mu V); its diagonal changes with phi on
every step, so each step is one LAPACK zgtsv solve with nothing to
cache.  Writing y = u^{n+1} + u^n turns the right-hand side into
2 mu u^n, so no band multiply is needed.

Adaptive stepping follows the self-similar collapse scale,
dt = dt0 min(1, ||grad u0||^2/||grad u||^2).  A hard floor dt_min on it
ends the run honestly (StepFloorHit).  Between samples the law reads
the gradient norm of the node values directly; a non-finite one stops
the run with an EvolveError.

Blow-up is reported as a candidate event, never a proof: the trigger
requires gradient growth past blowup_factor together with a negative
second difference of the variance over the trailing samples, so that
isolated gradient spikes do not masquerade as collapse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgtsv

from .functionals import evaluate_all
from .grid import RadialField, RadialGrid, check_grid, gradient_norm_sq
from .params import ProblemParams
from .potential import PotentialSpec, eval_potential

__all__ = [
    "EvolutionConfig",
    "EvolutionTrace",
    "EvolveError",
    "RelaxationStepper",
    "evolve",
    "trace_to_csv",
    "variance_concavity",
    "virial_check",
]

# Neighbours of node 0 that inner_amp compares it with.
INNER_NEIGHBOURS = 4

# Absolute scale below which virial_check measures its defect: standing
# waves have both sides of the virial identity near zero.
VIRIAL_FLOOR = 1.0


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
        for name in ("dt0", "t_end", "blowup_factor", "dt_min"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise EvolveError(f"{name} must be finite, got {value}")
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
    |u| at the outermost cell as a boundary-contamination witness, and
    inner_amp |u| at node 0 over the largest |u| of its next
    INNER_NEIGHBOURS nodes as an origin-spike witness (near 1 on a
    smooth field).  events holds (kind, time) pairs with kind in
    {"BlowupTriggered", "Completed", "StepFloorHit"}; a run stopped by
    the step floor samples its exit state, and BlowupTriggered follows
    StepFloorHit when the trigger fires on that sample.  steps and the
    dt range (None before the first step) describe the march.
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
    inner_amp: list[float] = field(default_factory=list)
    events: list[tuple[str, float]] = field(default_factory=list)
    final_state: RadialField | None = None
    steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None


class RelaxationStepper:
    """Relaxation Cayley steps of one march on one grid (module docstring).

    Holds the symmetric bands of M (the grid's M_{b,0} plus diag(mu V)),
    mu, 2 mu, mu r^c and p, and the relaxation state: the potential
    phi^{n-1/2} and the last dt.  The first step starts the state at
    phi^{-1/2} = |u^0|^p, so a new march needs a new stepper.
    """

    def __init__(self, grid: RadialGrid, params: ProblemParams, spec: PotentialSpec):
        self.mu = grid.measure_weights
        self.sym_diag = grid.stiffness_diag + self.mu * eval_potential(spec, grid.nodes)[0]
        self.sym_off = -grid.face_weights
        self.two_mu = 2 * self.mu
        self.mu_rc = self.mu * grid.nodes**params.c
        self.p = params.p
        self.phi: np.ndarray | None = None
        self._dt: float | None = None

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        """One step of the node values u^n; returns a new array u^{n+1}."""
        if dt == 0.0:
            raise EvolveError("dt must be nonzero")
        phi = np.abs(u) ** self.p
        if self.phi is not None:
            rho = dt / self._dt
            phi *= 1 + rho
            phi -= rho * self.phi
        self.phi, self._dt = phi, dt
        d = np.empty(u.shape, dtype=complex)
        d.real = self.mu
        d.imag = self.sym_diag - self.mu_rc * phi
        d.imag *= dt / 2
        off = (0.5j * dt) * self.sym_off
        # zgtsv overwrites all four arrays, and each is this step's own
        *_, y, info = zgtsv(off, d, off.copy(), self.two_mu * u, 1, 1, 1, 1)
        if info != 0:
            raise EvolveError(f"Cayley solve failed (zgtsv info {info})")
        y -= u
        return y


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


def evolve(
    u0: RadialField,
    cfg: EvolutionConfig,
    params: ProblemParams,
    spec: PotentialSpec,
) -> EvolutionTrace:
    """Run the relaxation scheme from u0 and record diagnostics.

    Stops at t_end (Completed), at the blow-up trigger
    (BlowupTriggered), or when the adaptive step hits the floor
    (StepFloorHit); a floor exit samples the state the run ended in,
    unless it was just sampled, and evaluates the trigger on that
    sample.  The trigger fires at the first sample where the
    gradient norm exceeds blowup_factor times its initial value AND
    the variance is concave in time over the trailing ten samples;
    gradient growth alone is treated as unconfirmed until at least
    three samples support the second difference.
    """
    g = u0.grid
    check_grid(g, params)
    stepper = RelaxationStepper(g, params, spec)
    u = u0.values.astype(complex, copy=True)
    trace = EvolutionTrace()

    def sample(t: float, vals: np.ndarray) -> float:
        if not np.all(np.isfinite(vals)):
            raise EvolveError(f"non-finite field at t = {t:.6g}")
        rep = evaluate_all(RadialField(g, vals), params, spec)
        trace.times.append(t)
        trace.mass.append(rep.mass)
        trace.energy.append(rep.energy)
        trace.grad_norm.append(float(np.sqrt(rep.grad_sq)))
        trace.virial.append(rep.virial)
        trace.k_n2.append(rep.k(params.n, 2))
        trace.variance.append(rep.variance)
        trace.nehari.append(rep.nehari)
        trace.outer_amp.append(float(np.abs(vals[-1])))
        amp = np.abs(vals[: INNER_NEIGHBOURS + 1])
        trace.inner_amp.append(float(amp[0] / max(amp[1:].max(), np.finfo(float).tiny)))
        return rep.grad_sq

    def triggered(gsq: float) -> bool:
        return gsq >= trigger_sq and variance_concavity(trace) < 0

    t = 0.0
    gsq = grad0_sq = sample(t, u)
    trigger_sq = cfg.blowup_factor**2 * grad0_sq
    sampled = True
    dts = []
    while t < cfg.t_end - 1e-12:
        if cfg.adaptivity:
            dt = cfg.dt0 * (grad0_sq / gsq) if gsq > grad0_sq else cfg.dt0
            if dt < cfg.dt_min:
                trace.events.append(("StepFloorHit", t))
                # the summary must describe the state the run ended in
                if not sampled and triggered(sample(t, u)):
                    trace.events.append(("BlowupTriggered", t))
                break
        else:
            dt = cfg.dt0
        if cfg.t_end - t < dt:
            dt = cfg.t_end - t

        u = stepper.step(u, dt)
        t += dt
        dts.append(dt)

        sampled = len(dts) % cfg.sample_every == 0 or t >= cfg.t_end - 1e-12
        if sampled:
            gsq = sample(t, u)
            if triggered(gsq):
                trace.events.append(("BlowupTriggered", t))
                break
        elif cfg.adaptivity:
            # keep the adaptive law responsive between samples
            gsq = gradient_norm_sq(g, u)
            if not math.isfinite(gsq):
                raise EvolveError(f"non-finite gradient norm at t = {t:.6g}")
    else:
        trace.events.append(("Completed", t))

    trace.steps = len(dts)
    if dts:
        trace.dt_min, trace.dt_max = min(dts), max(dts)
    trace.final_state = RadialField(g, u)
    return trace


def virial_check(trace: EvolutionTrace, params: ProblemParams) -> float:
    """Max relative defect of d^2/dt^2 variance = 2(2-b)^2 P.

    Requires at least three equally spaced samples; the defect at each
    interior sample is measured against max(|2(2-b)^2 P|, VIRIAL_FLOOR) so
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
    defect = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), VIRIAL_FLOOR)
    return float(np.max(defect))


def trace_to_csv(trace: EvolutionTrace, path) -> None:
    """Write the sampled series as CSV plus a JSON sidecar with the
    events and the march counters."""
    path = str(path)
    with open(path, "w") as fh:
        fh.write("t,mass,energy,grad_norm,P,K_n2,variance,nehari,outer_amp,inner_amp\n")
        for row in zip(
            trace.times,
            trace.mass,
            trace.energy,
            trace.grad_norm,
            trace.virial,
            trace.k_n2,
            trace.variance,
            trace.nehari,
            trace.outer_amp,
            trace.inner_amp,
        ):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    sidecar = path[:-4] + ".events.json" if path.endswith(".csv") else path + ".events.json"
    with open(sidecar, "w") as fh:
        json.dump(
            {
                "events": [{"kind": k, "t": t} for k, t in trace.events],
                "steps": trace.steps,
                "dt_min": trace.dt_min,
                "dt_max": trace.dt_max,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
