"""Ground states of the degenerate elliptic profile equation.

The standing-wave profile solves

    div(r^b grad Q) - omega Q + r^c Q^{p+1} = 0,   Q > 0, Q -> 0,

and every threshold constant in the global/blow-up dichotomy is a
functional of it.  Two independent routes compute Q:

* ``petviashvili_solve`` iterates the stabilized fixed-point map
  Q -> M_k^gamma (A + omega)^{-1} [r^c Q^{p+1}] on the graded grid,
  where M_k is the quadratic-form quotient that equals 1 exactly at a
  solution and gamma = (p+1)/p damps the scaling instability of the
  plain map.

* ``shooting_solve`` integrates the radial ODE outward from a series
  start near r = 0 and bisects on the center value between shots that
  cross zero and shots that bottom out and regrow.

The two routes share no discretization, so their agreement (relative
sup norm about 1e-5 at default resolution) is the primary evidence
that either one found the ground state rather than a solver artifact.

Threshold constants (sharp interpolation-inequality constant, the
energy-mass product at the ground state, the ground-state action) and
the Pohozaev defects are closed forms of the one
functionals.evaluate_all report of the converged profile, which
carries the parameters it was evaluated at; derive_thresholds
cross-checks each stored constant that admits a second, independent
expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalReport, evaluate_all, threshold_peak
from .grid import (
    RadialField,
    RadialGrid,
    apply_operator,
    build_grid,
    check_grid,
    gradient_norm_sq,
    solve_shifted,
)
from .params import Criticality, ProblemParams, derive_exponents, validate_gn_window
from .potential import PotentialSpec

__all__ = [
    "BracketNotFound",
    "GroundState",
    "GroundStateError",
    "IndefiniteOperator",
    "NonConvergence",
    "derive_thresholds",
    "gn_ratio",
    "is_frequency_one",
    "petviashvili_solve",
    "pohozaev_residuals",
    "shooting_solve",
]

# Petviashvili iteration: the residual below which it stops, which is
# also the exit gate of every returned state; the successive relative
# change that stops it early; the iteration budget.
RESIDUAL_GATE = 1e-8
CHANGE_TOL = 1e-12
MAX_ITER = 10_000

# Shooting oracle: the series start radius of every shot, the center
# values that bracket the bisection, and the relative bracket width
# that ends it.
SHOOT_R0 = 1e-6
SCAN_LO, SCAN_HI = 1e-3, 1e3
BISECT_TOL = 1e-13


class GroundStateError(RuntimeError):
    """Base class for ground-state solver failures."""


class NonConvergence(GroundStateError):
    """Iteration exhausted or exit-state invariants violated."""


class IndefiniteOperator(GroundStateError):
    """Quadratic form <(A+omega)Q, Q> lost positivity."""


class BracketNotFound(GroundStateError):
    """No overshoot/undershoot dichotomy between the bracket's center values."""


@dataclass(frozen=True)
class GroundState:
    """Converged profile with its consistency metrics and thresholds.

    residual is the relative fixed-point residual
    ||(A+omega)Q - r^c Q^{p+1}||_mu / ||Q||_mu; pohozaev_res is the
    pair of relative defects in the two Pohozaev identities.  c_gn is
    the sharp constant of the weighted interpolation inequality,
    computed as the ratio functional at Q (frequency-independent).
    m_omega is the zero-potential action at Q_omega.  thresholds
    holds the frequency-1 dichotomy constants when the criticality
    class defines them, else None entries.
    """

    profile: RadialField
    omega: float
    residual: float
    pohozaev_res: tuple[float, float]
    c_gn: float
    m_omega: float
    thresholds: dict[str, float | None]

    def as_dict(self) -> dict:
        out = {
            "omega": self.omega,
            "residual": self.residual,
            "pohozaev_res_mass_nonlinear": self.pohozaev_res[0],
            "pohozaev_res_mass_gradient": self.pohozaev_res[1],
            "c_gn": self.c_gn,
            "m_omega": self.m_omega,
        }
        out.update(self.thresholds)
        return out


def _admissible(params: ProblemParams) -> None:
    exps = derive_exponents(params)
    if exps.criticality is Criticality.ENERGY_CRITICAL:
        raise GroundStateError("energy-critical exponents: no ground state here")
    if not validate_gn_window(params):
        raise GroundStateError(
            "exponents outside the interpolation-inequality window"
        )


def is_frequency_one(omega: float) -> bool:
    """Whether omega is the frequency the dichotomy thresholds are defined at."""
    return abs(omega - 1.0) < 1e-14


def pohozaev_residuals(rep: FunctionalReport) -> tuple[float, float]:
    """Relative defects of the two Pohozaev identities at a profile.

    rep is the evaluate_all report of the profile (only its
    potential-free quadratures enter).  res1 tests mass against the
    nonlinear term, res2 tests mass against the gradient term:

        ||Q||_2^2 = [((2-b)(p+2) - p_c)/((2-b)(p+2) omega)] ||Q||^{p+2}_{c,p+2}
        ||Q||_2^2 = [((2-b)(p+2) - p_c)/(omega p_c)] ||grad Q||^2_{b,2}

    Exact solutions satisfy both exactly; the discrete profile carries
    the quadrature error, which decays at second order in the mesh.
    """
    b, p, w = rep.params.b, rep.params.p, rep.params.omega
    pc = rep.params.p_c
    A = (2 - b) * (p + 2)
    m = rep.mass
    res1 = abs(m - (A - pc) / (A * w) * rep.nonlinear_term) / m
    res2 = abs(m - (A - pc) / (w * pc) * rep.grad_sq) / m
    return res1, res2


def gn_ratio(rep: FunctionalReport) -> float:
    """Weighted interpolation ratio whose supremum is the sharp constant.

        R(u) = ||u||^{p+2}_{c,p+2} / (||grad u||^{p_c/(2-b)}_{b,2} ||u||_2^{p+2-p_c/(2-b)})

    from the evaluate_all report of u.  R is invariant under both the
    amplitude and the soliton scalings, and is maximized exactly at the
    ground state.
    """
    s = rep.params.p_c / (2 - rep.params.b)
    gr = np.sqrt(rep.grad_sq)
    m = rep.mass**0.5
    return float(rep.nonlinear_term / (gr**s * m ** (rep.params.p + 2 - s)))


def petviashvili_solve(params: ProblemParams, grid: RadialGrid | None = None) -> GroundState:
    """Ground state by the stabilized fixed-point iteration.

    Starts from the Gaussian exp(-r^2/2) and stops when the successive
    relative change drops below CHANGE_TOL or the fixed-point residual
    below RESIDUAL_GATE, within MAX_ITER iterations.  The returned
    state satisfies: residual < RESIDUAL_GATE, both Pohozaev defects
    < 1e-4, |M_k - 1| < 1e-10 at exit, strict positivity, and monotone
    decay beyond the maximum; any violation raises NonConvergence
    rather than returning a dressed-up failure.
    """
    _admissible(params)
    if grid is None:
        grid = build_grid(params.n, params.b)
    check_grid(grid, params)
    w = params.omega
    p, c = params.p, params.c
    r = grid.nodes
    mu = grid.measure_weights
    rc = r**c

    Q = np.exp(-(r**2) / 2)
    nl = rc * Q ** (p + 1)
    gamma = (p + 1) / p
    stab_gap = np.inf
    for _ in range(MAX_ITER):
        num = gradient_norm_sq(grid, Q) + w * np.sum(mu * Q**2)
        den = float(np.sum(mu * nl * Q))
        if num <= 0:
            raise IndefiniteOperator(f"<(A+omega)Q, Q> = {num} <= 0")
        if den <= 0:
            raise NonConvergence(f"nonlinear pairing {den} <= 0: sign change")
        stab = num / den
        Qn = stab**gamma * solve_shifted(grid, w, nl)
        change = float(np.max(np.abs(Qn - Q)) / np.max(np.abs(Qn)))
        Q = Qn
        nl = rc * Q ** (p + 1)  # the residual's and the next iteration's
        resid_vec = apply_operator(grid, Q) + w * Q - nl
        residual = float(
            np.sqrt(np.sum(mu * resid_vec**2) / np.sum(mu * Q**2))
        )
        if not math.isfinite(residual):
            raise NonConvergence("iterate is no longer finite")
        stab_gap = abs(stab - 1.0)
        if residual < RESIDUAL_GATE or change < CHANGE_TOL:
            break
    else:
        raise NonConvergence(
            f"no fixed point after {MAX_ITER} iterations "
            f"(last residual {residual:.3e})"
        )

    if residual >= RESIDUAL_GATE:
        raise NonConvergence(f"exit residual {residual:.3e} >= {RESIDUAL_GATE:g}")
    if stab_gap >= 1e-10:
        raise NonConvergence(f"stabilizing factor off by {stab_gap:.3e} at exit")
    if np.any(Q <= 0):
        raise NonConvergence("profile lost strict positivity")
    peak = int(np.argmax(Q))
    if np.any(np.diff(Q[peak:]) > 1e-14 * Q[peak]):
        raise NonConvergence("profile not monotone beyond its maximum")

    profile = RadialField(grid, Q)
    rep = evaluate_all(profile, params, PotentialSpec.zero())
    poh = pohozaev_residuals(rep)
    if max(poh) >= 1e-4:
        raise NonConvergence(f"Pohozaev defects ({poh[0]:.3e}, {poh[1]:.3e}) exceed 1e-4")
    if not rep.action > 0:
        raise NonConvergence(f"ground-state action {rep.action} not positive")

    return GroundState(
        profile=profile,
        omega=w,
        residual=residual,
        pohozaev_res=poh,
        c_gn=gn_ratio(rep),
        m_omega=rep.action,
        thresholds=_thresholds(rep),
    )


def _thresholds(rep: FunctionalReport) -> dict[str, float | None]:
    """Dichotomy constants from the report of the profile, direct routes only;
    None where the frequency or the criticality class leaves them undefined."""
    out: dict[str, float | None] = dict.fromkeys(("mass_threshold", "em_sigma", "grad_mass"))
    exps = derive_exponents(rep.params)
    crit, sigma = exps.criticality, exps.sigma
    defined = crit in (Criticality.MASS_CRITICAL, Criticality.INTERCRITICAL)
    if defined and is_frequency_one(rep.params.omega):
        out["mass_threshold"] = mass_norm = rep.mass**0.5
        if crit is Criticality.INTERCRITICAL:
            out["grad_mass"] = float(np.sqrt(rep.grad_sq) * mass_norm**sigma)
            out["em_sigma"] = float(rep.energy * rep.mass**sigma)
    return out


def derive_thresholds(gs1: GroundState, params: ProblemParams) -> dict[str, float | None]:
    """Certified dichotomy constants of a frequency-1 ground state.

    Returns the thresholds stored on gs1: for intercritical exponents
    all of mass_threshold, em_sigma, and grad_mass; for mass-critical
    exponents only the mass threshold is defined, and a missing one
    raises.  Every constant with two independent expressions is
    cross-checked to 1e-6 relative before being reported: em_sigma
    directly as the energy-mass product and via the closed form
    functionals.threshold_peak = [(p_c - 2(2-b))/(2 p_c)] grad_mass^2,
    and the sharp constant

        C_GN = ((2-b)(p+2)/p_c) grad_mass^{2 - p_c/(2-b)}

    against the ratio functional at Q_1.  Both comparisons inherit
    the Pohozaev defect of the discrete profile, so they constrain
    the grid: the profile must be converged on a mesh fine enough
    (about N = 16384 at the default radius) for the defect to sit
    below 1e-6.
    """
    exps = derive_exponents(params)
    if exps.criticality not in (Criticality.MASS_CRITICAL, Criticality.INTERCRITICAL):
        raise GroundStateError(
            f"thresholds undefined for {exps.criticality.value} exponents"
        )
    if not is_frequency_one(gs1.omega):
        raise GroundStateError(f"thresholds require omega = 1, got {gs1.omega}")
    out = dict(gs1.thresholds)
    intercritical = exps.criticality is Criticality.INTERCRITICAL
    keys = ("mass_threshold", "em_sigma", "grad_mass") if intercritical else ("mass_threshold",)
    missing = [k for k in keys if out.get(k) is None]
    if missing:
        raise GroundStateError(f"ground state lacks thresholds {missing}")
    if intercritical:
        pc = params.p_c
        b = params.b
        grad_mass = out["grad_mass"]
        em_direct = out["em_sigma"]
        em_closed = threshold_peak(params, grad_mass)
        if abs(em_direct - em_closed) > 1e-6 * abs(em_closed):
            raise GroundStateError(
                f"energy-mass product disagrees between routes: "
                f"{em_direct:.12e} vs {em_closed:.12e}"
            )
        c_closed = (2 - b) * (params.p + 2) / pc * grad_mass ** (2 - pc / (2 - b))
        if abs(c_closed - gs1.c_gn) > 1e-6 * abs(gs1.c_gn):
            raise GroundStateError(
                f"sharp constant disagrees between routes: "
                f"{c_closed:.12e} vs {gs1.c_gn:.12e}"
            )
    return out


def _series_start(
    params: ProblemParams, q0: float, r0: float
) -> tuple[float, float]:
    """Two-term series value and slope at the start radius.

    Balancing the lowest powers of the profile ODE about r = 0 gives

        Q(r) = q0 + [omega q0/(n(2-b))] r^{2-b}
                  - [q0^{p+1}/((n+c)(2-b+c))] r^{2-b+c} + ...

    which stays valid for b < 0 and c < 0 where the raw coefficients
    are singular.
    """
    n, b, c, p, w = params.n, params.b, params.c, params.p, params.omega
    a1 = w * q0 / (n * (2 - b))
    a2 = -(q0 ** (p + 1)) / ((n + c) * (2 - b + c))
    val = q0 + a1 * r0 ** (2 - b) + a2 * r0 ** (2 - b + c)
    slope = a1 * (2 - b) * r0 ** (1 - b) + a2 * (2 - b + c) * r0 ** (1 - b + c)
    return val, slope


def _shoot_once(params: ProblemParams, q0: float, r_end: float, *, dense: bool = False):
    """One outward shot; returns ('cross'|'regrow'|'decay', solution).

    The solution carries the dense-output interpolant only when dense
    is set: classification reads t_events alone, and DOP853 spends
    three extra right-hand-side evaluations per step on the interpolant.
    """
    from scipy.integrate import solve_ivp  # only the oracle needs the integrator

    n, b, c, p, w = params.n, params.b, params.c, params.p, params.omega

    def rhs(r, y):
        q, dq = y
        qp = np.sign(q) * np.abs(q) ** (p + 1)
        return [dq, -(n - 1 + b) / r * dq - r ** (-b) * (-w * q + r**c * qp)]

    def ev_cross(r, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1

    def ev_regrow(r, y):
        return y[1]

    ev_regrow.terminal = True
    ev_regrow.direction = 1

    y0 = _series_start(params, q0, SHOOT_R0)
    sol = solve_ivp(
        rhs,
        (SHOOT_R0, r_end),
        y0,
        method="DOP853",
        events=[ev_cross, ev_regrow],
        rtol=1e-10,
        atol=1e-12,
        dense_output=dense,
    )
    if sol.t_events[0].size:
        return "cross", sol
    if sol.t_events[1].size:
        return "regrow", sol
    return "decay", sol


def shooting_solve(params: ProblemParams, grid: RadialGrid | None = None) -> RadialField:
    """Ground state by bisection on the center value of outward shots.

    Center values above the critical one drive the profile through
    zero; values below make it bottom out and regrow.  Every shot
    starts from the series at SHOOT_R0.  The bracket [SCAN_LO, SCAN_HI]
    must shoot regrow then cross; it is bisected at geometric midpoints
    until its relative width drops below BISECT_TOL (about 47 shots);
    a clean decay counts as below the critical value.  Classification
    shots skip the integrator's dense output; only the final shot
    builds it, to sample the profile onto the grid, with the series
    filling r below the start radius and zero beyond the last
    integrated radius (where the profile has already decayed).
    """
    _admissible(params)
    if grid is None:
        grid = build_grid(params.n, params.b)
    check_grid(grid, params)
    r_end = grid.r_max

    def classify(q0: float) -> str:
        return _shoot_once(params, q0, r_end)[0]

    lo, hi = SCAN_LO, SCAN_HI
    ends = classify(lo), classify(hi)
    if ends != ("regrow", "cross"):
        raise BracketNotFound(
            f"no overshoot/undershoot transition for q0 in [{SCAN_LO}, {SCAN_HI}]: "
            f"the scan ends shoot {ends[0]} and {ends[1]}, not regrow and cross"
        )
    while True:
        mid = math.sqrt(lo * hi)
        if classify(mid) == "cross":
            hi = mid
        else:
            lo = mid
        if hi - lo < BISECT_TOL * mid:
            break

    q_star = math.sqrt(lo * hi)
    _, sol = _shoot_once(params, q_star, r_end, dense=True)
    vals = np.zeros(grid.N)
    r = grid.nodes
    below = r < SHOOT_R0
    vals[below] = [_series_start(params, q_star, float(ri))[0] for ri in r[below]]
    inside = (~below) & (r <= sol.t[-1])
    vals[inside] = sol.sol(r[inside])[0]
    vals = np.maximum(vals, 0.0)  # dense output can dip to -1e-300 in the far tail
    return RadialField(grid, vals)
