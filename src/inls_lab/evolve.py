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

StrangStepper holds the operator for a whole run and caches what
repeats.  The LAPACK LU factor (zgttrf) of mu + i (dt/2) M and the
right-hand-side bands are kept for the last dt, so a step at an
unchanged dt costs one band multiply and one zgttrs solve.  Because
the phase leaves |u| unchanged, a step's trailing half-phase
multiplier exp(i (dt/2) r^c |v|^p) is also the next step's leading one
when dt repeats: the first-same-as-last (FSAL) form of Strang
splitting (Hairer-Lubich-Wanner, Geometric Numerical Integration,
II.5).  The stepper keeps r^c |v|^p and that multiplier tied to the
read-only array it returned, so the adaptive phase cap and the next
leading phase reuse them; u is still formed after every step.  The
half-phase multipliers are formed from cos and sin of the angle, which
gives exp(i theta) to the last bit at about half the cost.

Adaptive stepping follows the self-similar collapse scale,
dt = dt0 min(1, ||grad u0||^2/||grad u||^2), bounded by a
phase-resolution cap dt <= PHASE_CAP / max(r^c |u|^p).  The cap is
invisible on benign data but essential when c < 0: the nonlinear phase
angle at the innermost node scales like r^c, and once a half-step
rotates that node by an O(1) angle the split scheme pumps amplitude
into the origin cell (a purely numerical kicked-rotor resonance) and
corrupts every gradient-based diagnostic downstream.  The bounded value
is then rounded down onto the fixed ladder dt0 * 2^(-k/4), k >= 0, so
dt keeps one value, and with it the LU factor and the FSAL multiplier,
while the law moves by less than a rung: the rule by which stiff
integrators keep their step and its factorization while the proposed
step stays within about 20 % (RADAU5; Hairer-Wanner, Solving ODEs II,
IV.8).  The ladder is stateless and every rung lies at or below the
law, so the cap and the accuracy only get tighter.  A hard floor
dt_min on the rounded value ends the run honestly (StepFloorHit).
Between samples the law reads the gradient norm of the node values
directly; a non-finite one stops the run with an EvolveError.

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
from scipy.linalg.lapack import zgttrf, zgttrs

from .functionals import evaluate_all
from .grid import RadialField, RadialGrid, check_grid, gradient_norm_sq
from .params import ProblemParams
from .potential import PotentialSpec, eval_potential

__all__ = [
    "EvolutionConfig",
    "EvolutionTrace",
    "EvolveError",
    "StrangStepper",
    "evolve",
    "trace_to_csv",
    "variance_concavity",
    "virial_check",
]

# Largest nonlinear half-phase angle (radians) an adaptive step may
# apply at any node; see the module docstring.
PHASE_CAP = 1.0

# Ratio of neighbouring rungs of the adaptive dt ladder dt0 * DT_RATIO**k:
# four rungs per halving, so a rounded step is at most 16 % below the law.
DT_RATIO = 2.0**-0.25

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
    |u| at the outermost cell as a boundary-contamination witness.
    events holds (kind, time) pairs with kind in {"BlowupTriggered",
    "Completed", "StepFloorHit"}; a run stopped by the step floor
    samples its exit state, and BlowupTriggered follows StepFloorHit
    when the trigger fires on that sample.  steps, factorizations, the
    dt range (None before the first step) and phase_capped, the number
    of steps whose dt PHASE_CAP set, describe the march.
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
    steps: int = 0
    factorizations: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    phase_capped: int = 0


class StrangStepper:
    """Strang steps nonlinear(dt/2) o Cayley(dt) o nonlinear(dt/2) on one grid.

    Built once per grid, problem and potential: it holds the symmetric
    bands of M (the grid's M_{b,0} plus diag(mu V)), mu, r^c and p.  It
    keeps the LAPACK factor of mu + i dt/2 M for the last dt, and
    r^c |u|^p with the half-phase multiplier of the last array it
    returned (see the module docstring).  Returned arrays are read-only,
    so that cache cannot go stale; any other input is evaluated afresh.
    """

    def __init__(self, grid: RadialGrid, params: ProblemParams, spec: PotentialSpec):
        self.mu = grid.measure_weights
        self.sym_diag = grid.stiffness_diag + self.mu * eval_potential(spec, grid.nodes)[0]
        self.sym_off = -grid.face_weights
        self.rc = grid.nodes**params.c
        self.p = params.p
        self.factorizations = 0
        self._dt: float | None = None
        self._factor: tuple | None = None
        self._z_off: np.ndarray | None = None
        self._rhs_diag: np.ndarray | None = None
        self._last: np.ndarray | None = None
        self._last_rate: np.ndarray | None = None
        self._last_w: np.ndarray | None = None
        self._last_dt: float | None = None

    def phase_rate(self, u: np.ndarray) -> np.ndarray:
        """r^c |u|^p, the nonlinear phase angle per unit time at each node."""
        if u is self._last:
            return self._last_rate
        return self.rc * np.abs(u) ** self.p

    def cayley(self, v: np.ndarray, dt: float) -> np.ndarray:
        """One unitary linear step (1 + i dt/2 A) v+ = (1 - i dt/2 A) v.

        Solved in the symmetric form (mu + i dt/2 M) v+ = (mu - i dt/2 M) v
        so both sides share the tridiagonal bands of M; the left side is
        factored only when dt changes.
        """
        if dt != self._dt:
            z = 1j * (dt / 2)
            z_off = z * self.sym_off
            *factor, info = zgttrf(z_off, self.mu + z * self.sym_diag, z_off)
            if info != 0:
                raise EvolveError(f"Cayley factorization failed (zgttrf info {info})")
            self._dt = dt
            self._factor = tuple(factor)
            self._z_off = z_off
            self._rhs_diag = self.mu - z * self.sym_diag
            self.factorizations += 1
        rhs = self._rhs_diag * v
        rhs[:-1] -= self._z_off * v[1:]
        rhs[1:] -= self._z_off * v[:-1]
        x, info = zgttrs(*self._factor, rhs, overwrite_b=1)
        if info != 0:
            raise EvolveError(f"Cayley solve failed (zgttrs info {info})")
        return x

    @staticmethod
    def half_phase(theta: np.ndarray) -> np.ndarray:
        """exp(i theta) for real angles, from cos and sin written into the
        real and imaginary parts (np.exp of the imaginary array costs
        about twice as much)."""
        w = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=w.real)
        np.sin(theta, out=w.imag)
        return w

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        """One Strang step of the node values u; returns a new read-only array."""
        if dt == 0.0:
            raise EvolveError("dt must be nonzero")
        if u is self._last and dt == self._last_dt:
            w = self._last_w  # first same as last: |u| is the modulus the trailing phase saw
        else:
            w = self.half_phase((dt / 2) * self.phase_rate(u))
        v = self.cayley(u * w, dt)
        rate = self.rc * np.abs(v) ** self.p
        w = self.half_phase((dt / 2) * rate)
        out = v * w
        out.flags.writeable = False
        self._last, self._last_rate, self._last_w, self._last_dt = out, rate, w, dt
        return out


def _ladder_rung(dt: float, dt0: float) -> float:
    """The largest rung dt0 * DT_RATIO**k (k = 0, 1, ...) not above dt;
    0 when dt <= 0."""
    if dt >= dt0:
        return dt0
    if not dt > 0:
        return 0.0
    k = math.ceil(math.log(dt / dt0) / math.log(DT_RATIO))
    # the logarithms round: settle k on the rungs themselves
    while dt0 * DT_RATIO**k > dt:
        k += 1
    while k > 0 and dt0 * DT_RATIO ** (k - 1) <= dt:
        k -= 1
    return dt0 * DT_RATIO**k


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
    """Run the splitting scheme from u0 and record diagnostics.

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
    stepper = StrangStepper(g, params, spec)
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
        return rep.grad_sq

    def triggered(gsq: float) -> bool:
        return gsq >= trigger_sq and variance_concavity(trace) < 0

    t = 0.0
    gsq = grad0_sq = sample(t, u)
    trigger_sq = cfg.blowup_factor**2 * grad0_sq
    sampled = True
    dts = []
    while t < cfg.t_end - 1e-12:
        capped = False
        if cfg.adaptivity:
            dt = cfg.dt0 * (grad0_sq / gsq) if gsq > grad0_sq else cfg.dt0
            phase_rate = float(np.max(stepper.phase_rate(u)))
            if phase_rate > 0 and PHASE_CAP / phase_rate < dt:
                dt, capped = PHASE_CAP / phase_rate, True
            dt = _ladder_rung(dt, cfg.dt0)
            if dt < cfg.dt_min:
                trace.events.append(("StepFloorHit", t))
                # the summary must describe the state the run ended in
                if not sampled and triggered(sample(t, u)):
                    trace.events.append(("BlowupTriggered", t))
                break
        else:
            dt = cfg.dt0
        if cfg.t_end - t < dt:
            dt, capped = cfg.t_end - t, False

        u = stepper.step(u, dt)
        t += dt
        dts.append(dt)
        trace.phase_capped += capped

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
    trace.factorizations = stepper.factorizations
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
        fh.write("t,mass,energy,grad_norm,P,K_n2,variance,nehari,outer_amp\n")
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
        ):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    sidecar = path[:-4] + ".events.json" if path.endswith(".csv") else path + ".events.json"
    with open(sidecar, "w") as fh:
        json.dump(
            {
                "events": [{"kind": k, "t": t} for k, t in trace.events],
                "steps": trace.steps,
                "factorizations": trace.factorizations,
                "dt_min": trace.dt_min,
                "dt_max": trace.dt_max,
                "phase_capped": trace.phase_capped,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
