"""Scalar functionals, scaling transforms, and the threshold function.

All conserved/monitored quantities of the flow are assembled here from
grid quadratures:

    mass             M(u)      = ||u||_2^2
    variance                     ||u||^2_{2-b,2}
    energy           E_{b,V}   = 1/2 ||grad u||^2_{b,2} + 1/2 int V|u|^2
                                 - 1/(p+2) ||u||^{p+2}_{c,p+2}
    action           S_{w,V}   = E + (w/2) M
    nehari           I_{w,V}   = K^{1,0}
    virial           P         = ||grad u||^2_{b,2} - 1/(2-b) int (x.grad V)|u|^2
                                 - p_c/((2-b)(p+2)) ||u||^{p+2}_{c,p+2}
    L                L_{w,V}   = ||u||^2_{H1_{b,V}} + w ||u||_2^2

together with the two-parameter family

    K^{a,B}(u) = d/dl S_{w,V}(e^{al} u(e^{Bl} x)) at l = 0,

whose closed form is

    [(2a+(2-b-n)B)/2] ||grad u||^2_{b,2}
    + [(2a-nB)/2] (int V|u|^2 + w||u||_2^2)
    - (B/2) int (x.grad V)|u|^2
    - [(a(p+2)-(n+c)B)/(p+2)] ||u||^{p+2}_{c,p+2}.

Special slots: K^{1,0} is the Nehari functional and K^{n,2} = (2-b) P.
L is formed with the first term squared; only that reading makes the
two-sided bound 2S <= L (valid on K >= 0) an identity-tight estimate.

evaluate_all is the one pass of quadratures over a field.  Its
FunctionalReport holds the six quadratures and the parameters they were
evaluated at; every other scalar is a property of the report, K^{a,B}
is its one method k (nehari and virial read it), and rep.at(w) is the
report at another omega, equal to a new pass at that omega.

Scalings are realized on the fixed mesh by grid.resample, the cubic
spline transfer (zero beyond r_max), rather than by rebuilding the
grid, so that every functional of a scaled field is evaluated with the
same quadrature as the original.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grid import RadialField, check_grid, gradient_norm_sq, resample
from .params import Criticality, ProblemParams, derive_exponents
from .potential import PotentialSpec, eval_potential

__all__ = [
    "FunctionalError",
    "FunctionalReport",
    "TruncationWarning",
    "evaluate_all",
    "scale_alpha_beta",
    "scale_soliton",
    "threshold_function",
    "threshold_peak",
]


class FunctionalError(ValueError):
    """A functional evaluated to a non-finite value."""


class TruncationWarning(UserWarning):
    """A scaling pushed non-negligible field mass outside the mesh."""


@dataclass(frozen=True)
class FunctionalReport:
    """The six quadratures of one field and the parameters they were
    evaluated at; every other scalar diagnostic is a closed form of them."""

    mass: float
    variance: float
    grad_sq: float
    potential_energy: float
    xgradV_term: float
    nonlinear_term: float
    params: ProblemParams

    @property
    def energy(self) -> float:
        grad_V_sq = self.grad_sq + self.potential_energy
        return 0.5 * grad_V_sq - self.nonlinear_term / (self.params.p + 2)

    @property
    def action(self) -> float:
        return self.energy + 0.5 * self.params.omega * self.mass

    @property
    def L(self) -> float:
        return self.grad_sq + self.potential_energy + self.params.omega * self.mass

    @property
    def grad_norm_V(self) -> float:
        return math.sqrt(self.grad_sq + self.potential_energy)

    @property
    def nehari(self) -> float:
        return self.k(1, 0)

    @property
    def virial(self) -> float:
        return self.k(self.params.n, 2) / (2 - self.params.b)

    def k(self, alpha: float, beta: float) -> float:
        """Closed form of the scaling derivative K^{alpha,beta}_{omega,V}."""
        n, b, c, p, w = (
            self.params.n, self.params.b, self.params.c, self.params.p, self.params.omega
        )
        return (
            0.5 * (2 * alpha + (2 - b - n) * beta) * self.grad_sq
            + 0.5 * (2 * alpha - n * beta) * (self.potential_energy + w * self.mass)
            - 0.5 * beta * self.xgradV_term
            - (alpha * (p + 2) - (n + c) * beta) / (p + 2) * self.nonlinear_term
        )

    def at(self, omega: float) -> FunctionalReport:
        """The report of the same field at frequency omega."""
        return replace(self, params=self.params.with_omega(omega))


def evaluate_all(
    u: RadialField, params: ProblemParams, spec: PotentialSpec
) -> FunctionalReport:
    """Evaluate every scalar functional of u in one pass of quadratures."""
    g = u.grid
    check_grid(g, params)
    grad_sq = gradient_norm_sq(g, u.values)
    dens = g.measure_weights * np.abs(u.values) ** 2
    if spec.is_zero:
        pot = 0.0
        xgv = 0.0
    else:
        V, rVp, _ = eval_potential(spec, g.nodes)
        pot = float(np.sum(dens * V))
        xgv = float(np.sum(dens * rVp))
    mass = float(np.sum(dens))
    variance = float(np.sum(dens * g.nodes ** (2 - params.b)))
    nl = float(np.sum(g.measure_weights * g.nodes**params.c * np.abs(u.values) ** (params.p + 2)))
    for name, val in (
        ("gradient", grad_sq),
        ("potential_energy", pot),
        ("xgradV_term", xgv),
        ("mass", mass),
        ("variance", variance),
        ("nonlinear_term", nl),
    ):
        if not np.isfinite(val):
            raise FunctionalError(f"{name} evaluated to a non-finite value")
    return FunctionalReport(mass, variance, grad_sq, pot, xgv, nl, params)


def scale_alpha_beta(
    u: RadialField, alpha: float, beta: float, lam: float
) -> RadialField:
    """The scaled field e^{alpha lam} u(e^{beta lam} r) on the same mesh.

    Values are obtained by cubic interpolation of u and set to zero
    where e^{beta lam} r leaves [0, r_max].  When the scaling shrinks
    the domain (beta*lam < 0), the part of u beyond e^{beta lam} r_max
    cannot be represented; a TruncationWarning fires if that lost tail
    carries more than 1e-10 of M(u).
    """
    if lam == 0.0:
        return u.copy()
    g = u.grid
    stretch = np.exp(beta * lam)
    r_src = stretch * g.nodes
    inside = r_src <= g.r_max
    vals = np.zeros(g.N, dtype=complex)
    if np.any(inside):
        vals[inside] = np.exp(alpha * lam) * resample(u, r_src[inside])
    if beta * lam < 0:
        lost_nodes = g.nodes > stretch * g.r_max
        if np.any(lost_nodes):
            mu = g.measure_weights
            lost = float(np.sum(mu[lost_nodes] * np.abs(u.values[lost_nodes]) ** 2))
            total = float(np.sum(mu * np.abs(u.values) ** 2))
            if lost > 1e-10 * total:
                warnings.warn(
                    f"scaling truncated tail mass {lost:.3e} (> 1e-10 of M = {total:.3e})",
                    TruncationWarning,
                    stacklevel=2,
                )
    return RadialField(g, vals)


def scale_soliton(u: RadialField, lam: float, params: ProblemParams) -> RadialField:
    """The scaling-symmetry slice lam^{(2-b+c)/p} u(lam r)."""
    if lam <= 0:
        raise ValueError(f"soliton scaling requires lam > 0, got {lam}")
    alpha = (2 - params.b + params.c) / params.p
    return scale_alpha_beta(u, alpha, 1.0, np.log(lam))


def threshold_function(x: float, params: ProblemParams, alpha: float) -> float:
    """f(x) = x^2/2 - ((2-b)/p_c) alpha^{2 - p_c/(2-b)} x^{p_c/(2-b)}.

    The comparison function whose single positive maximum at x = alpha
    separates the global and blow-up regimes; alpha is the ground-state
    gradient-mass product the thresholds are phrased in.
    """
    crit = derive_exponents(params).criticality
    if crit is not Criticality.INTERCRITICAL:
        raise ValueError(f"threshold function needs intercritical params, got {crit}")
    if not alpha > 0:
        raise ValueError(f"peak location alpha={alpha} must be positive")
    b, pc = params.b, params.p_c
    e = pc / (2 - b)
    return 0.5 * x**2 - (2 - b) / pc * alpha ** (2 - e) * x**e


def threshold_peak(params: ProblemParams, alpha: float) -> float:
    """Peak value f(alpha) = ((p_c - 2(2-b))/(2 p_c)) alpha^2."""
    crit = derive_exponents(params).criticality
    if crit is not Criticality.INTERCRITICAL:
        raise ValueError(f"threshold function needs intercritical params, got {crit}")
    b, pc = params.b, params.p_c
    return (pc - 2 * (2 - b)) / (2 * pc) * alpha**2
