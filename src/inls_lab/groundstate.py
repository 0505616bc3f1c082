"""Ground states of the degenerate elliptic profile equation.

The standing-wave profile solves

    div(r^b grad Q) - omega Q + r^c Q^{p+1} = 0,   Q > 0, Q -> 0,

and every threshold constant in the global/blow-up dichotomy is a
functional of it.  Two independent routes compute Q:

* ``petviashvili_solve`` iterates the stabilized fixed-point map
  Q -> M_k^gamma (A + omega)^{-1} [r^c Q^{p+1}] on the coarsest mesh of
  a ladder of graded meshes below the grid, where M_k is the
  quadratic-form quotient that equals 1 exactly at a solution and
  gamma = (p+1)/p damps the scaling instability of the plain map, then
  converges Newton on the symmetric tridiagonal form of the profile
  equation on each mesh of the ladder in turn, up to the grid.  It certifies
  the result on the fixed-point residual in the (A + omega) energy
  norm (RESIDUAL_GATE), and on M_k within STAB_GATE of 1; the energy
  norm is the one in which the map's convergence is analysed
  (Pelinovsky-Stepanyants, SIAM J. Numer. Anal. 42 (2004); Lakoba-Yang,
  J. Comput. Phys. 226 (2007)).  The defect of the profile equation,
  read off Newton's residual, is reported beside it in L2; it carries
  a roundoff floor of Q that grows about 16x per 4x in N, so it is not
  gated.

* ``shooting_solve`` integrates the radial ODE outward from a series
  start near r = 0 and finds the center value that separates shots
  that cross zero from shots that bottom out and regrow, by Brent's
  method on each shot's ratio of growing to decaying Bessel mode of
  the linearised equation at its event, from a bracket found by
  stepping out from the frequency scale of Q.  Every shot runs Hairer's
  compiled DOP853 behind scipy.integrate.ode, and the final one is
  sampled onto the grid from its own step ends.

The two routes share no discretization, so their agreement (relative
sup norm about 1e-5 at default resolution) is the primary evidence
that either one found the ground state rather than a solver artifact.

A GroundState carries the functionals.evaluate_all report of its
profile, which holds the parameters it was evaluated at, and every
constant is read off that report: the sharp interpolation-inequality
constant, the ground-state action and the Pohozaev defects are closed
forms of it.  The report is also the dichotomy's threshold, which
classify compares a datum's report with in log form; derive_thresholds
alone forms the threshold constants, powers sigma of the mass among
them, and cross-checks each one that admits a second expression.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalReport, Quadrature
from .grid import (
    RadialField,
    RadialGrid,
    add_stiffness,
    check_grid,
    dgtsv,
    factor_shifted,
    gradient_norm_sq,
)
from .params import Criticality, ProblemParams, validate_gn_window

__all__ = [
    "BracketNotFound",
    "GroundState",
    "GroundStateError",
    "NonConvergence",
    "OracleProfile",
    "derive_thresholds",
    "gn_ratio",
    "is_frequency_one",
    "petviashvili_solve",
    "pohozaev_residuals",
    "shooting_solve",
]

# Petviashvili solve: the exit gates on the fixed-point residual and on
# |M_k - 1| of every returned state; the budget of stabilized maps; the
# successive relative change at which the maps hand over to Newton; the
# relative correction that ends Newton on each mesh, and its step budget.
RESIDUAL_GATE = 1e-8
STAB_GATE = 1e-10
MAX_ITER = 10_000
NEWTON_SWITCH = 1e-2
NEWTON_TOL = 1e-8
NEWTON_CAP = 8

# Shooting oracle: the size of the larger series correction, relative to
# the center value, at the radius where a shot starts; the window of
# center values the bracket search may shoot, and the factor it steps by;
# the relative bracket width that ends the search.  A shot may take
# _SHOT_STEPS integrator steps; on the fixtures at N = 4096 a shot takes
# at most about 100.
SERIES_TOL = 1e-8
SCAN_LO, SCAN_HI = 1e-3, 1e3
SCAN_STEP = 4.0
BISECT_TOL = 1e-13
_SHOT_STEPS = 10_000

# The events that end a shot, first listed first named when two are found
# at one radius: the name, the component of (Q, Q') that passes through
# zero, and the direction it passes in (-1 falling, +1 rising).
_EVENTS = (("cross", 0, -1), ("regrow", 1, 1))


class GroundStateError(RuntimeError):
    """Base class for ground-state solver failures."""


class NonConvergence(GroundStateError):
    """Iteration exhausted or exit-state invariants violated."""


class BracketNotFound(GroundStateError):
    """No overshoot/undershoot dichotomy in the window of center values."""


@dataclass(frozen=True)
class OracleProfile(RadialField):
    """The shooting oracle's profile on the grid, with the center value
    q_star of its final shot and the work of the solve that found it:
    its shots, the final one included, and the accepted DOP853 steps of
    all of them."""

    q_star: float
    shots: int
    steps: int


@dataclass(frozen=True)
class GroundState:
    """Converged profile with its consistency metrics and its report.

    report is the functionals.evaluate_all report of the profile with
    the zero potential, at the equation and frequency the profile
    solves; every constant of the state is read off it.  residual
    is the relative fixed-point residual in the (A+omega) energy norm,

        ||Q - (A+omega)^{-1}(r^c Q^{p+1})||_{A+omega} / ||Q||_{A+omega},
        ||v||^2_{A+omega} = ||grad v||^2_{b,2} + omega ||v||^2_mu,

    the exit gate (RESIDUAL_GATE); strong_residual is the defect of the
    profile equation, read off Newton's residual
    F(Q) = M Q + mu (omega - r^c Q^p) Q at the profile,

        ||F(Q)/mu||_mu / ||Q||_mu,   F(Q)/mu = (A+omega)Q - r^c Q^{p+1},

    reported only.  levels is the ladder the solve climbed, coarsest
    mesh first: the cells of each mesh and the Newton steps taken on
    it.  history holds the successive relative change (sup norm) of
    each map on the coarsest mesh, then the relative size of each
    Newton correction, mesh by mesh in the order of levels, so the
    linear rate of the maps and the quadratic one of Newton can be read
    from the output; iterations, the Petviashvili maps with the final
    one included, is read off the two.
    """

    profile: RadialField
    report: FunctionalReport
    residual: float
    strong_residual: float
    history: tuple[float, ...]
    levels: tuple[tuple[int, int], ...]

    @property
    def iterations(self) -> int:
        """The Petviashvili maps, the final one on the grid included."""
        return len(self.history) - sum(steps for _, steps in self.levels) + 1

    @property
    def params(self) -> ProblemParams:
        """The equation and frequency the profile solves."""
        return self.report.params

    @property
    def pohozaev_res(self) -> tuple[float, float]:
        """The relative defects in the two Pohozaev identities."""
        return pohozaev_residuals(self.report)

    @property
    def c_gn(self) -> float:
        """The sharp constant of the weighted interpolation inequality,
        the ratio functional at Q (frequency-independent)."""
        return gn_ratio(self.report)

    @property
    def m_omega(self) -> float:
        """The zero-potential action at Q_omega."""
        return self.report.action

    @property
    def omega(self) -> float:
        return self.params.omega

    def min_action(self, omega: float) -> float:
        """Zero-potential minimal action at frequency omega, by the soliton
        scaling law m_w = (w/omega)^kappa m_omega with
        kappa = ((2-b)(p+2) - p_c)/((2-b)p)."""
        b, p = self.params.b, self.params.p
        kappa = ((2 - b) * (p + 2) - self.params.p_c) / ((2 - b) * p)
        return self.m_omega * (omega / self.omega) ** kappa

    def is_reference_for(self, params: ProblemParams) -> bool:
        """Whether this is the frequency-1 ground state of the equation of
        params (same n, b, c, p): the state every threshold is read from."""
        return is_frequency_one(self.omega) and self.params == params.with_omega(self.omega)

    def as_dict(self) -> dict:
        return {
            "omega": self.omega,
            "residual": self.residual,
            "strong_residual": self.strong_residual,
            "iterations": self.iterations,
            "history": list(self.history),
            "levels": [{"cells": cells, "newton_steps": steps} for cells, steps in self.levels],
            "pohozaev_res_mass_nonlinear": self.pohozaev_res[0],
            "pohozaev_res_mass_gradient": self.pohozaev_res[1],
            "c_gn": self.c_gn,
            "m_omega": self.m_omega,
            "mass": self.report.mass,
            "energy": self.report.energy,
            "grad_sq": self.report.grad_sq,
        }


def _admissible(params: ProblemParams) -> None:
    if params.criticality is Criticality.ENERGY_CRITICAL:
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


def petviashvili_solve(params: ProblemParams, grid: RadialGrid) -> GroundState:
    """Ground state by the stabilized fixed-point map, polished by Newton
    up a ladder of meshes.

    The ladder is the meshes of N // 4, N // 16, ... cells with the
    grid's radius and grading, down to the last one of at least 1024
    cells, or the one mesh of max(N // 4, 16) cells when N < 4096; a
    mesh's faces are every 4th face of the next finer one when 4
    divides that one's size.  The solve reads the ladder off
    grid.coarse, grid.coarse.coarse, ..., each built once per grid, so a
    second solve on the same grid builds no mesh; it climbs them,
    coarsest first and the grid last, forming r^c once on each.
    (A + omega) is factored once on the coarsest mesh, for all its maps,
    and once on the grid, for the final map and the residual
    (grid.factor_shifted).  Starting from the Gaussian exp(-r^2/2),
    the Petviashvili map runs on the coarsest mesh only, until the
    successive relative change drops below NEWTON_SWITCH (within
    MAX_ITER maps; the map converges only linearly, about 0.74 per map,
    at a rate that does not depend on N).  Newton steps on the symmetric form

        F(Q) = M Q + mu (omega - r^c Q^p) Q,

    with M Q formed from the face fluxes by grid.add_stiffness, then
    take Q to the discrete fixed point of each mesh in turn, until the
    relative correction drops below NEWTON_TOL, and np.interp carries
    the converged Q up one mesh as the next start (nested iteration:
    Brandt, Math. Comp. 31 (1977)).  The Jacobian
    M + diag(mu (omega - (p+1) r^c Q^p)) is symmetric tridiagonal and
    indefinite (Morse index 1), so each step is one LAPACK dgtsv solve;
    a mesh whose Newton does not converge within NEWTON_CAP steps, or
    whose iterate turns non-finite, raises NonConvergence naming it.
    On the five fixtures at omega in {0.5, 1, 2} and N from 2048 to
    65536 this is 3-12 maps and 3-4 Newton steps on the coarsest mesh,
    then 2-3 Newton steps on each finer one, and |M_k - 1| at exit
    stays below 5e-15 up to N = 262144.  One final map on the grid, by
    the same map function the coarsest mesh runs, keeps Q positive by
    construction and measures the stabilizing factor M_k at the
    polished profile; strong_residual is F at the profile it returns.
    A map whose <(A+omega)Q, Q> or <r^c Q^{p+1}, Q> is not positive (Q
    vanished or changed sign; A + omega is definite) raises NonConvergence.
    Q's report is read from the solve's own real Q and mu r^c, the same
    bits as evaluate_all of the profile.  Every gate is taken on the
    grid: the returned state has residual < RESIDUAL_GATE, |M_k - 1| <
    STAB_GATE, strict positivity, monotone decay beyond the maximum,
    Pohozaev defects < 1e-4 and a positive action; any violation raises
    NonConvergence rather than returning a dressed-up failure.
    """
    _admissible(params)
    check_grid(grid, params)
    w = params.omega
    p, c = params.p, params.c
    mu = grid.measure_weights
    gamma = (p + 1) / p

    def energy_sq(mesh: RadialGrid, v: np.ndarray) -> float:
        """<(A+omega) v, v>_mu on mesh, the squared (A+omega) energy norm."""
        return gradient_norm_sq(mesh, v) + w * float((mesh.measure_weights * v**2).sum())

    def relative_change(new: np.ndarray, old: np.ndarray, mesh: RadialGrid) -> float:
        change = float(abs(new - old).max() / abs(new).max())
        if not math.isfinite(change):
            message = f"iterate is no longer finite on the {mesh.N}-cell mesh"
            negative = np.flatnonzero(old < 0)
            if negative.size:
                # a power of a negative node is NaN, and the step's solve spreads it
                r = mesh.nodes[negative[0]]
                message += f": the previous iterate was negative from r = {r:.6g}"
            raise NonConvergence(message)
        return change

    def one_map(
        mesh: RadialGrid, rc: np.ndarray, solve: Callable[[np.ndarray], np.ndarray], Q: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """One Petviashvili map of Q on mesh (rc = r^c at its nodes, solve
        the factored (A + omega)^{-1} there): the new iterate and the
        stabilizing factor M_k of Q."""
        nl = rc * Q ** (p + 1)
        num = energy_sq(mesh, Q)
        den = float((mesh.measure_weights * nl * Q).sum())
        if not (num > 0 and den > 0):
            raise NonConvergence(
                f"<(A+omega)Q, Q> = {num:.6g}, <r^c Q^(p+1), Q> = {den:.6g}: not both positive"
            )
        stab = num / den
        return stab**gamma * solve(nl), stab

    def profile_residual(mesh: RadialGrid, Q: np.ndarray, Qp: np.ndarray) -> np.ndarray:
        """F(Q) = M Q + mu (omega - r^c Q^p) Q on mesh, with Qp = r^c Q^p."""
        return add_stiffness(mesh, Q, mesh.measure_weights * (w - Qp) * Q)

    def newton(mesh: RadialGrid, rc: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """Newton steps on mesh (rc = r^c at its nodes) from Q until the
        relative correction drops below NEWTON_TOL: the last iterate and
        every step's correction."""
        nu = mesh.face_weights
        corrections: list[float] = []
        while len(corrections) < NEWTON_CAP:
            Qp = rc * Q**p
            F = profile_residual(mesh, Q, Qp)
            jac = mesh.stiffness_diag + mesh.measure_weights * (w - (p + 1) * Qp)
            # dgtsv overwrites all four arrays, and each is this step's own
            *_, delta, info = dgtsv(-nu, jac, -nu, F, 1, 1, 1, 1)
            if info != 0:
                raise NonConvergence(
                    f"Newton solve failed (dgtsv info {info}) on the {mesh.N}-cell mesh"
                )
            Qn = Q - delta
            corrections.append(relative_change(Qn, Q, mesh))
            Q = Qn
            if corrections[-1] < NEWTON_TOL:
                return Q, corrections
        raise NonConvergence(
            f"Newton on the {mesh.N}-cell mesh: correction {corrections[-1]:.3e} "
            f"after {NEWTON_CAP} steps"
        )

    meshes = [grid.coarse]
    while meshes[-1].N // 4 >= 1024:
        meshes.append(meshes[-1].coarse)
    meshes.reverse()
    meshes.append(grid)
    Q = np.exp(-(meshes[0].nodes**2) / 2)
    history: list[float] = []
    levels: list[tuple[int, int]] = []
    # A power of an iterate that went negative or overflowed is NaN or
    # inf, not a warning: relative_change, one_map and the residual gate
    # raise NonConvergence on it.
    with np.errstate(all="ignore"):
        for k, mesh in enumerate(meshes):
            rc = mesh.nodes**c
            if k == 0:
                solve = factor_shifted(mesh, w)
                for _ in range(MAX_ITER):
                    Qn, _ = one_map(mesh, rc, solve, Q)
                    history.append(relative_change(Qn, Q, mesh))
                    Q = Qn
                    if history[-1] < NEWTON_SWITCH:
                        break
                else:
                    raise NonConvergence(
                        f"no fixed point after {MAX_ITER} maps (last change {history[-1]:.3e})"
                    )
            else:
                # A Newton start, not a field transfer: every gate is taken
                # on the grid.  np.interp keeps scipy.interpolate out of the
                # process.
                Q = np.interp(mesh.nodes, meshes[k - 1].nodes, Q)
            Q, corrections = newton(mesh, rc, Q)
            history += corrections
            levels.append((mesh.N, len(corrections)))

        # The loop ends on the grid, so rc is r^c at the grid's nodes.
        solve = factor_shifted(grid, w)
        Q, stab = one_map(grid, rc, solve, Q)
        nl = rc * Q ** (p + 1)
        defect = Q - solve(nl)
        residual = math.sqrt(energy_sq(grid, defect) / energy_sq(grid, Q))
        strong = profile_residual(grid, Q, rc * Q**p) / mu
    if not residual < RESIDUAL_GATE:
        raise NonConvergence(f"exit residual {residual:.3e} not below {RESIDUAL_GATE:g}")
    strong_residual = float(np.sqrt(np.sum(mu * strong**2) / np.sum(mu * Q**2)))
    stab_gap = abs(stab - 1.0)
    if stab_gap >= STAB_GATE:
        raise NonConvergence(f"stabilizing factor off by {stab_gap:.3e} at exit")
    if np.any(Q <= 0):
        raise NonConvergence("profile lost strict positivity")
    peak = int(np.argmax(Q))
    if np.any(np.diff(Q[peak:]) > 1e-14 * Q[peak]):
        raise NonConvergence("profile not monotone beyond its maximum")

    # mu V and mu rV' are None for the zero potential, as in evaluate_all
    rep = Quadrature(grid, params, mu * rc, None, None).report(Q)
    poh = pohozaev_residuals(rep)
    if max(poh) >= 1e-4:
        raise NonConvergence(f"Pohozaev defects ({poh[0]:.3e}, {poh[1]:.3e}) exceed 1e-4")
    if not rep.action > 0:
        raise NonConvergence(f"ground-state action {rep.action} not positive")

    return GroundState(
        profile=RadialField(grid, Q),
        report=rep,
        residual=residual,
        strong_residual=strong_residual,
        history=tuple(history),
        levels=tuple(levels),
    )


def derive_thresholds(gs1: GroundState, params: ProblemParams) -> dict[str, float | None]:
    """Certified dichotomy constants of the equation of params.

    gs1 must be the reference of params (GroundState.is_reference_for:
    frequency 1, same n, b, c, p), else GroundStateError.  Returns the
    closed forms mass_threshold ||Q||_2, em_sigma E(Q) M(Q)^sigma and
    grad_mass ||grad Q||_{b,2} ||Q||_2^sigma of the report of Q_1, the
    last two None for mass-critical exponents; the one place a power
    sigma of the mass is formed, and one beyond the float range raises
    GroundStateError naming sigma.  Every constant with two
    independent expressions is cross-checked to 1e-6 relative
    before being reported: em_sigma directly as the energy-mass product
    and via the peak of the threshold function,
    [(p_c - 2(2-b))/(2 p_c)] grad_mass^2, and the sharp constant

        C_GN = ((2-b)(p+2)/p_c) grad_mass^{2 - p_c/(2-b)}

    against the ratio functional at Q_1.  Both comparisons inherit
    the Pohozaev defect of the discrete profile, so they constrain
    the grid: the profile must be converged on a mesh fine enough
    (about N = 16384 at the default radius) for the defect to sit
    below 1e-6.
    """
    crit = params.criticality
    if crit not in (Criticality.MASS_CRITICAL, Criticality.INTERCRITICAL):
        raise GroundStateError(f"thresholds undefined for {crit.value} exponents")
    if not gs1.is_reference_for(params):
        raise GroundStateError(
            f"thresholds require omega = 1 and the (n, b, c, p) of {params}; "
            f"got the ground state of {gs1.params}"
        )
    rep = gs1.report
    mass_threshold = rep.mass**0.5
    if crit is Criticality.MASS_CRITICAL:
        return {"mass_threshold": mass_threshold, "em_sigma": None, "grad_mass": None}
    pc, b, sigma = params.p_c, params.b, params.sigma
    try:
        grad_mass = math.sqrt(rep.grad_sq) * math.sqrt(rep.mass) ** sigma
        em_direct = rep.energy * rep.mass**sigma
    except OverflowError:
        grad_mass = em_direct = math.inf
    if not (math.isfinite(grad_mass) and math.isfinite(em_direct)):
        raise GroundStateError(
            f"thresholds overflow the float range at sigma = {sigma:.6g} for {params}"
        )
    em_closed = (pc - 2 * (2 - b)) / (2 * pc) * grad_mass**2
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
    return {"mass_threshold": mass_threshold, "em_sigma": em_direct, "grad_mass": grad_mass}


def _series_terms(params: ProblemParams, q0: float) -> tuple[float, float, float, float]:
    """Coefficients a1, a2 and powers e1, e2 of the two series corrections.

    Balancing the lowest powers of the profile ODE about r = 0 gives

        Q(r) = q0 + a1 r^e1 + a2 r^e2 + ...,
        a1 = omega q0/(n(2-b)),  e1 = 2-b,
        a2 = -q0^{p+1}/((n+c)(2-b+c)),  e2 = 2-b+c,

    which stays valid for b < 0 and c < 0 where the raw coefficients
    are singular.  The first terms left out are products of two
    corrections, of order (a1 r^e1)^2/q0 and the like.
    """
    n, b, c, p, w = params.n, params.b, params.c, params.p, params.omega
    e1, e2 = 2 - b, 2 - b + c
    return w * q0 / (n * e1), -(q0 ** (p + 1)) / ((n + c) * e2), e1, e2


def _series_start(params: ProblemParams, q0: float, r0: float | np.ndarray):
    """Two-term series value and slope at the radii r0 (a float or an array)."""
    a1, a2, e1, e2 = _series_terms(params, q0)
    val = q0 + a1 * r0**e1 + a2 * r0**e2
    slope = a1 * e1 * r0 ** (e1 - 1) + a2 * e2 * r0 ** (e2 - 1)
    return val, slope


def _start_radius(params: ProblemParams, q0: float) -> float:
    """The radius where the larger series correction, a1 r^e1 or |a2| r^e2,
    is SERIES_TOL q0: a shot from center value q0 starts there, and the
    terms the series leaves out are about SERIES_TOL^2 q0 there."""
    a1, a2, e1, e2 = _series_terms(params, q0)
    tol = SERIES_TOL * q0
    return min((tol / a1) ** (1 / e1), (tol / abs(a2)) ** (1 / e2))


def _fires(direction: int, g0: float, g1: float) -> bool:
    """The oracle's event rule: a step's end values g0 and g1 of the event
    component bracket zero in the event's direction, a zero end included."""
    return g0 >= 0 >= g1 if direction < 0 else g0 <= 0 <= g1


def _shooter(params: ProblemParams, r_end: float):
    """The shots of one oracle solve: shoot(q0) -> (kind, r_e, steps).

    A shot integrates the radial ODE for (Q, Q') outward from the series
    start at _start_radius(params, q0), where the larger series
    correction is SERIES_TOL q0 and the series is exact to about
    1e-16 q0, by Hairer's compiled DOP853 behind
    scipy.integrate.ode, at rtol 1e-10 and atol 1e-12, and stops at the
    first event of _EVENTS.  kind names that event, or is 'decay' when
    the shot reaches r_end without one; r_e is the event radius, r_end on
    a decay; steps lists (r, Q, Q', Q'') at the start and at every
    accepted step end, Q'' read off the right-hand side.  solout applies
    the event rule to each step's two ends and locates the event at the
    root of the cubic Hermite interpolant of the event component and its
    slope over the step.  scipy's compiled wrapper never frees an
    integrator it ran, so all shots share one (one per shot would grow
    without bound), and solout lets go of a shot's steps when it ends.
    A shot that does not reach its end (it may take _SHOT_STEPS steps)
    raises NonConvergence naming q0 and the integrator's message, and
    the integrator's warning does not escape.
    """
    from scipy.integrate import ode  # only the oracle needs the integrator
    from scipy.optimize import brentq

    n, b, c, p, w = params.n, params.b, params.c, params.p, params.omega
    drift = -(n - 1 + b)

    def accel(r: float, q: float, dq: float) -> float:
        # Python floats, where NumPy scalars cost more in dispatch than in arithmetic
        qp = math.copysign(abs(q) ** (p + 1), q)
        return drift / r * dq - r ** (-b) * (-w * q + r**c * qp)

    def rhs(r, y):
        q, dq = y.tolist()
        return [dq, accel(r, q, dq)]

    steps = ended = None  # the step ends of the running shot, and its event

    def solout(r, y):
        """Keep the step ending at r; stop the shot at the first event in it.
        A step end holds component k of (Q, Q') at 1 + k, its slope at 2 + k."""
        nonlocal ended
        start = steps[-1]
        h = r - start[0]
        if h == 0:  # the call at the start of the shot
            return 0
        q, dq = y.tolist()
        end = (r, q, dq, accel(r, q, dq))
        steps.append(end)
        first = None
        for kind, k, direction in _EVENTS:
            g0, g1 = start[1 + k], end[1 + k]
            if _fires(direction, g0, g1):
                s0, s1 = h * start[2 + k], h * end[2 + k]
                theta = brentq(
                    lambda t: (1 - t) ** 2 * ((1 + 2 * t) * g0 + t * s0)
                    + t**2 * ((3 - 2 * t) * g1 - (1 - t) * s1),
                    0.0,
                    1.0,
                )
                if first is None or theta < first[1]:
                    first = (kind, theta)
        if first is None:
            return 0
        ended = (first[0], start[0] + first[1] * h)
        return -1

    integrator = ode(rhs).set_integrator("dop853", nsteps=_SHOT_STEPS, rtol=1e-10, atol=1e-12)
    integrator.set_solout(solout)

    def shoot(q0: float):
        nonlocal steps, ended
        r0 = _start_radius(params, q0)
        q, dq = _series_start(params, q0, r0)
        steps, ended = [(r0, q, dq, accel(r0, q, dq))], ("decay", r_end)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            integrator.set_initial_value([q, dq], r0).integrate(r_end)
        shot, steps = steps, None  # the integrator, and so solout, outlives the solve
        if not integrator.successful():
            message = "; ".join(str(m.message) for m in caught)
            raise NonConvergence(f"the shot from q0 = {q0!r} failed: {message}")
        return *ended, shot

    return shoot


def shooting_solve(params: ProblemParams, grid: RadialGrid) -> OracleProfile:
    """Ground state by Brent's method on the center value of outward shots.

    Center values above the critical one drive the profile through
    zero; values below make it bottom out and regrow, and a clean decay
    counts as below.  Every shot starts from the series at the radius
    where its larger correction is SERIES_TOL times its center value
    (_shooter).  The bracket comes from the frequency scaling of Q,

        Q_omega(r) = omega^{(2-b+c)/(p(2-b))} Q_1(omega^{1/(2-b)} r),

    so the first shot is at q_s = omega^{(2-b+c)/(p(2-b))}, moved into
    [SCAN_LO, SCAN_HI], and each next one SCAN_STEP = 4 times further
    from it, towards the other class, until the class flips; a walk
    that reaches the window's end without a flip raises
    BracketNotFound.  Brent then starts at once from the last two shots,
    hi/lo <= 4, with both misses known: the miss below is monotone
    there, though not over the whole window, where a shot near SCAN_LO
    saturates and regrows late with a miss that looks like a root.
    scipy.optimize.brentq finds the sign change, in s = ln q0, of
    the signed miss m of each shot: minus the amplitude of its growing
    mode over that of its decaying mode at its event radius r_e (r_end
    on a decay).  The linear part of the profile equation,
    Q'' + (n-1+b)/r Q' = omega r^{-b} Q, has the exact modes
    r^{-(n-2+b)/2} I_nu(z) and r^{-(n-2+b)/2} K_nu(z) with

        z = sqrt(omega) r^e / e,   e = (2 - b)/2,   nu = (n-2+b)/(2-b)

    (DLMF 10.25), so Q = 0 at a cross and Q' = 0 at a regrow or a decay
    give

        m = +K_nu(z)/I_nu(z) on a cross,
        m = -K_{nu+1}(z)/I_{nu+1}(z) on a regrow or a decay,

    formed as exp(-2z) kve/ive.  A shot that starts delta off the
    critical value carries a growing mode of amplitude proportional to
    delta, so m is linear in delta with one slope on both sides of it,
    and Brent converges superlinearly (Brent, Algorithms for
    Minimization without Derivatives, 1973).  Every shot narrows the
    tightest regrow/cross pair [lo, hi]; should brentq stop short of
    hi - lo < BISECT_TOL sqrt(lo hi), geometric bisection finishes the
    bracket, and q_star = sqrt(lo hi).  On the five fixtures at
    N = 4096 and omega in {0.5, 1, 2} a solve takes 11 or 12 shots, the
    final one included, and 591-892 accepted DOP853 steps, about 1 ms a
    shot on scipy's compiled DOP853 (_shooter): 9-14 ms per solve on
    one Intel Xeon core.  The final shot, at q_star, is sampled onto the
    grid between its start radius and its event radius by the quintic
    Hermite interpolant of Q, Q' and Q'' at the two ends of each of its
    steps, within 2.5e-7 relative of solve_ivp's dense output on the
    fixtures (a cubic on Q and Q' alone is off by 2-4e-6).  The series
    fills r below the start radius, and zero fills r beyond the event
    radius, where the profile has already decayed.  The returned
    OracleProfile carries q_star and the solve's shots and accepted
    steps.  scipy never frees a compiled integrator it ran, so each
    solve leaves its one integrator behind, about 4 kB.
    """
    from scipy.optimize import brentq  # loaded with scipy.integrate, as is scipy.special
    from scipy.special import ive, kve

    _admissible(params)
    check_grid(grid, params)
    r_end = grid.r_max
    b, c, p, w = params.b, params.c, params.p, params.omega
    e = (2 - b) / 2
    nu = (params.n - 2 + b) / (2 - b)
    root_w = math.sqrt(w)
    lo, hi = 0.0, math.inf  # the tightest regrow/cross pair shot so far
    shots = steps = 0
    shoot_once = _shooter(params, r_end)

    def run(q0: float):
        """One shot, counted."""
        nonlocal shots, steps
        kind, r_e, shot = shoot_once(q0)
        shots += 1
        steps += len(shot) - 1
        return kind, r_e, shot

    def shoot(q0: float) -> tuple[str, float]:
        """Class and signed miss of one shot; narrows [lo, hi] to it."""
        nonlocal lo, hi
        kind, r_e, _ = run(q0)
        z = root_w * r_e**e / e
        if kind == "cross":
            hi = min(hi, q0)
            return kind, math.exp(-2 * z) * kve(nu, z) / ive(nu, z)
        lo = max(lo, q0)
        return kind, -math.exp(-2 * z) * kve(nu + 1, z) / ive(nu + 1, z)

    # Step from the frequency scale of Q by factors of SCAN_STEP until the
    # class flips: the last shot on each side holds that side's miss.
    q = first = min(max(w ** ((2 - b + c) / (p * (2 - b))), SCAN_LO), SCAN_HI)
    misses = {}
    while True:
        kind, miss = shoot(q)
        misses[kind == "cross"] = miss
        if len(misses) == 2:
            break
        q_next = q / SCAN_STEP if kind == "cross" else q * SCAN_STEP
        q_next = min(max(q_next, SCAN_LO), SCAN_HI)
        if q_next == q:
            verdict = "crosses zero" if kind == "cross" else "regrows or decays"
            raise BracketNotFound(
                f"no overshoot/undershoot transition for q0 in [{SCAN_LO}, {SCAN_HI}]: "
                f"every shot from q0 = {first:.6g} to {q:.6g} {verdict}"
            )
        q = q_next
    s_lo, s_hi = math.log(lo), math.log(hi)
    ends = {s_lo: misses[False], s_hi: misses[True]}  # brentq asks for these first
    brentq(
        lambda s: ends[s] if s in ends else shoot(math.exp(s))[1],
        s_lo,
        s_hi,
        xtol=BISECT_TOL,
        disp=False,
    )
    while not hi - lo < BISECT_TOL * math.sqrt(lo * hi):
        shoot(math.sqrt(lo * hi))

    q_star = math.sqrt(lo * hi)
    _, r_e, final = run(q_star)
    vals = np.zeros(grid.N)
    r = grid.nodes
    R, Q, dQ, ddQ = np.array(final).T
    below = r < R[0]
    vals[below] = _series_start(params, q_star, r[below])[0]
    inside = ~below & (r <= r_e)
    # The quintic Hermite interpolant of Q, Q', Q'' at the ends of each node's step.
    x = r[inside]
    i = np.searchsorted(R[1:-1], x, side="right")
    h = R[i + 1] - R[i]
    t = (x - R[i]) / h
    u = 1 - t
    q0, d0, s0 = Q[i], h * dQ[i], h**2 * ddQ[i] / 2
    q1, d1, s1 = Q[i + 1], h * dQ[i + 1], h**2 * ddQ[i + 1] / 2
    left = u**3 * (q0 + t * (3 * q0 + d0 + t * (6 * q0 + 3 * d0 + s0)))
    vals[inside] = left + t**3 * (q1 + u * (3 * q1 - d1 + u * (6 * q1 - 3 * d1 + s1)))
    # The sample may dip below 0 just before a cross.
    return OracleProfile(grid, np.maximum(vals, 0.0), q_star, shots, steps)
