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
dt = dt0 min(1, ||grad u0||^2/||grad u||^2), and a hard floor dt_min
on it ends the run honestly (StepFloorHit).  Between samples the law
reads the gradient norm of the node values directly; a non-finite one
stops the run with an EvolveError.  A run never ends on a sliver: with
one to two steps left before t_end, it takes two even ones.

A sample is the report of evaluate_all's own body
(functionals.Quadrature) on the node values, with weights premultiplied
by mu that the stepper forms once per march, so it equals evaluate_all
of the same field to the last bit.  It forms |u|^2 once and reads each
quadrature but the gradient as one dot product with it, and it only
reads the state: the adaptive law reads the gradient norm by the same
function between samples and at them, so a march takes the same steps
to the same state whatever sample_every is, unless the blow-up trigger
fires.  The trace keeps that FunctionalReport, and every series written
from the trace is read from it.  The sample's finiteness is read from
the six quadratures: a non-finite node makes the mass non-finite, and
only then is the field scanned, to tell a non-finite field (EvolveError)
from an overflowing quadrature (FunctionalError).

Blow-up is reported as a candidate event, never a proof: the trigger
requires gradient growth past blowup_factor together with a negative
second difference of the variance over the trailing samples, so that
isolated gradient spikes do not masquerade as collapse.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .functionals import FunctionalError, FunctionalReport, quadrature
from .grid import RadialField, RadialGrid, gradient_norm_sq, zgtsv
from .params import ProblemParams
from .potential import PotentialSpec

__all__ = [
    "EvolutionConfig",
    "EvolutionTrace",
    "EvolveError",
    "RelaxationStepper",
    "evolve",
    "relative_drift",
    "variance_concavity",
    "virial_check",
]

# A run that has reached t_end to within this has ended.
END_TOL = 1e-12

# Neighbours of node 0 that inner_amp compares it with.
INNER_NEIGHBOURS = 4

# Absolute scale below which virial_check measures its defect: standing
# waves have both sides of the virial identity near zero.
VIRIAL_FLOOR = 1.0

# Floor of inner_amp's denominator, so that zero neighbours never give 0/0.
TINY = np.finfo(float).tiny


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
        if not (isinstance(self.sample_every, numbers.Integral) and self.sample_every >= 1):
            raise EvolveError(f"sample_every must be an integer >= 1, got {self.sample_every!r}")


@dataclass
class EvolutionTrace:
    """Sampled diagnostics of one run; all series share `times`.

    reports holds each sample's FunctionalReport, from which every
    closed form is read: reports[i].variance is the weighted square
    norm ||u||^2_{2-b,2} whose second time derivative the virial
    identity controls, reports[i].k(a, b) any K^{a,b}.  outer_amp
    records |u| at the outermost cell as a boundary-contamination
    witness, and inner_amp |u| at node 0 over the largest |u| of its
    next INNER_NEIGHBOURS nodes as an origin-spike witness (near 1 on a
    smooth field).  events holds (kind, time) pairs with kind in
    {"BlowupTriggered", "Completed", "StepFloorHit"}; a run stopped by
    the step floor samples its exit state, and BlowupTriggered follows
    StepFloorHit when the trigger fires on that sample.  steps and the
    dt range (None before the first step) describe the march.
    """

    times: list[float] = field(default_factory=list)
    reports: list[FunctionalReport] = field(default_factory=list)
    outer_amp: list[float] = field(default_factory=list)
    inner_amp: list[float] = field(default_factory=list)
    events: list[tuple[str, float]] = field(default_factory=list)
    final_state: RadialField | None = None
    steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None

    @property
    def mass(self) -> list[float]:
        """The sampled masses."""
        return [r.mass for r in self.reports]

    @property
    def grad_growth(self) -> float | None:
        """||grad u||_{b,2} at the last sample over its value at the
        first; None when the first is 0, or its square underflows to 0,
        where no growth is defined."""
        first = math.sqrt(self.reports[0].grad_sq)
        return math.sqrt(self.reports[-1].grad_sq) / first if first > 0 else None

    def as_dict(self) -> dict:
        """The events, the march counters, the relative mass and energy
        drifts and the largest sampled inner_amp."""
        return {
            "events": [{"kind": k, "t": t} for k, t in self.events],
            "steps": self.steps,
            "dt_min": self.dt_min,
            "dt_max": self.dt_max,
            "mass_drift": relative_drift(self.mass),
            "energy_drift": relative_drift([r.energy for r in self.reports]),
            "inner_amp_max": max(self.inner_amp, default=None),
        }


class RelaxationStepper:
    """Relaxation Cayley steps of one march on one grid (module docstring).

    Holds the march's Quadrature (functionals), whose mu r^c weighs the
    nonlinear potential and whose mu V enters the band; the symmetric bands
    of M (the grid's M_{b,0} plus diag(mu V)), mu, 2 mu and p; and the
    relaxation state: the potential phi^{n-1/2} and the last dt.  The
    first step starts the state at phi^{-1/2} = |u^0|^p, so a new march
    needs a new stepper.
    """

    def __init__(self, grid: RadialGrid, params: ProblemParams, spec: PotentialSpec):
        self.quadrature = quadrature(grid, params, spec)
        self.mu = grid.measure_weights
        mu_V = self.quadrature.mu_V
        self.sym_diag = grid.stiffness_diag if mu_V is None else grid.stiffness_diag + mu_V
        self.sym_off = -grid.face_weights
        self.two_mu = 2 * self.mu
        self.mu_rc = self.quadrature.mu_rc
        self.p = params.p
        self.phi: np.ndarray | None = None
        self._dt: float | None = None
        # Work arrays: the next phi and the complex diagonal written through
        # float views of its real and imaginary parts.
        self._phi_next = np.empty(grid.N)
        self._diag = np.empty(grid.N, dtype=complex)
        self._diag_re = self._diag.view(float)[0::2]
        self._diag_im = self._diag.view(float)[1::2]

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        """One step of the node values u^n; returns a new array u^{n+1}."""
        if dt == 0.0:
            raise EvolveError("dt must be nonzero")
        phi = np.abs(u, out=self._phi_next)
        phi **= self.p
        prev = self.phi
        if prev is None:
            prev = np.empty_like(phi)
        else:
            rho = dt / self._dt
            phi *= 1 + rho
            prev *= rho
            phi -= prev
        self.phi, self._phi_next, self._dt = phi, prev, dt
        self._diag_re[:] = self.mu
        im = np.multiply(self.mu_rc, phi, out=self._diag_im)
        np.subtract(self.sym_diag, im, out=im)
        im *= dt / 2
        # zgtsv overwrites all four arrays: the diagonal is rewritten on
        # every step, and the bands and right-hand side are this step's own
        off = (0.5j * dt) * self.sym_off
        *_, y, info = zgtsv(off, self._diag, off.copy(), self.two_mu * u, 1, 1, 1, 1)
        if info != 0:
            raise EvolveError(f"Cayley solve failed (zgtsv info {info})")
        y -= u
        return y


def _second_difference(ts: np.ndarray, Is: np.ndarray) -> np.ndarray:
    """Three-point second differences of Is over the (nonuniform) times
    ts, one per interior sample."""
    h1 = ts[1:-1] - ts[:-2]
    h2 = ts[2:] - ts[1:-1]
    return 2 * (h1 * Is[2:] - (h1 + h2) * Is[1:-1] + h2 * Is[:-2]) / (
        h1 * h2 * (h1 + h2)
    )


def variance_concavity(trace: EvolutionTrace) -> float:
    """Largest second difference of the variance over the trailing ten
    samples: negative means concave.  Fewer than three samples give
    +inf, so concavity is never claimed without evidence.
    """
    ts = np.array(trace.times[-10:])
    Is = np.array([r.variance for r in trace.reports[-10:]])
    if ts.size < 3:
        return float("inf")
    return float(np.max(_second_difference(ts, Is)))


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
    stepper = RelaxationStepper(g, params, spec)
    quad = stepper.quadrature
    u = u0.values.astype(complex, copy=True)
    trace = EvolutionTrace()

    def sample(t: float, vals: np.ndarray) -> float:
        try:
            rep = quad.report(vals)
        except FunctionalError:
            # a non-finite node makes the mass non-finite, so only then is
            # the field scanned, to tell it from an overflowing quadrature
            if not np.all(np.isfinite(vals)):
                raise EvolveError(f"non-finite field at t = {t:.6g}") from None
            raise
        trace.times.append(t)
        trace.reports.append(rep)
        trace.outer_amp.append(float(abs(vals[-1])))
        amp = np.abs(vals[: INNER_NEIGHBOURS + 1])
        trace.inner_amp.append(float(amp[0] / max(amp[1:].max(), TINY)))
        return rep.grad_sq

    def triggered(gsq: float) -> bool:
        return gsq >= trigger_sq and variance_concavity(trace) < 0

    t = 0.0
    gsq = grad0_sq = sample(t, u)
    trigger_sq = cfg.blowup_factor**2 * grad0_sq
    sampled = True
    while t < cfg.t_end - END_TOL:
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
        # END_TOL keeps the rounding of t from splitting a run that dt divides
        rest = cfg.t_end - t
        if rest < dt:
            dt = rest
        elif dt + END_TOL < rest < 2 * dt - END_TOL:
            dt = rest / 2

        u = stepper.step(u, dt)
        t += dt
        trace.steps += 1
        trace.dt_min = dt if trace.dt_min is None else min(trace.dt_min, dt)
        trace.dt_max = dt if trace.dt_max is None else max(trace.dt_max, dt)

        sampled = trace.steps % cfg.sample_every == 0 or t >= cfg.t_end - END_TOL
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
    lhs = _second_difference(ts, np.array([r.variance for r in trace.reports]))
    rhs = 2 * (2 - params.b) ** 2 * np.array([r.virial for r in trace.reports[1:-1]])
    defect = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), VIRIAL_FLOOR)
    return float(np.max(defect))


def relative_drift(series: list[float]) -> float | None:
    """Largest |x - x_0| / |x_0| over a sampled series; None when the
    series is empty or starts at 0, where no relative drift is defined."""
    if not series or series[0] == 0:
        return None
    x = np.asarray(series)
    return float(np.max(np.abs(x - x[0])) / abs(x[0]))

