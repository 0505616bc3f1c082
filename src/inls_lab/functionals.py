"""Scalar functionals.

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

Quadrature.report is the one body of quadratures over a field.  It
forms |u|^2 once, as re^2 + im^2 of complex values and v v of real ones,
and reads each of the mass, the variance, int V|u|^2, int (x.grad V)|u|^2
and the nonlinear term as one dot product of a node weight premultiplied
by mu with |u|^2 or, for the nonlinear term, with (|u|^2)^((p+2)/2).  The
grid holds mu and mu r^(2-b); a Quadrature holds the weights that depend
only on (grid, params, spec): mu r^c and, for a nonzero potential, mu V
and mu rV'.  evaluate_all forms them for its field and reports it; a
march (evolve) forms them once and reports every sample with the same
body, on the raw node values.  The FunctionalReport holds the six
quadratures and the parameters they were evaluated at; every other
scalar is a property of the report, K^{a,B} is its one method k (nehari
and virial read it), and rep.at(w) is the report at another omega, equal
to a new pass at that omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import RadialField, RadialGrid, check_grid, gradient_norm_sq
from .params import ProblemParams
from .potential import PotentialSpec, eval_potential

__all__ = [
    "FunctionalError",
    "FunctionalReport",
    "Quadrature",
    "evaluate_all",
    "quadrature",
]


class FunctionalError(ValueError):
    """A functional evaluated to a non-finite value."""


@dataclass(frozen=True, slots=True)
class FunctionalReport:
    """The six quadratures of one field and the parameters they were
    evaluated at; every other scalar diagnostic is a closed form of them.
    Slotted: a march keeps one per sample."""

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


@dataclass(frozen=True, eq=False)
class Quadrature:
    """The quadratures of evaluate_all for one (grid, params, spec).

    Holds the node weights, premultiplied by mu, that depend on nothing
    else: mu r^c of the nonlinear term, and mu V and mu rV' of the
    potential terms (None for the zero potential); the grid holds mu and
    the variance weight mu r^(2-b).  report is the one body of
    quadratures, so a march forms a Quadrature once and reports every
    sample with it.
    """

    grid: RadialGrid
    params: ProblemParams
    mu_rc: np.ndarray
    mu_V: np.ndarray | None
    mu_rVp: np.ndarray | None

    def report(self, values: np.ndarray) -> FunctionalReport:
        """The six quadratures of the node values (real or complex): the
        gradient term, then one |u|^2 array and one dot product of it (of
        (|u|^2)^((p+2)/2) for the nonlinear term) per weight.  Values are
        not validated: a non-finite one makes the mass non-finite, and
        every non-finite quadrature raises FunctionalError naming the
        first."""
        g = self.grid
        grad_sq = gradient_norm_sq(g, values)
        if np.iscomplexobj(values):
            # re^2 + im^2 through the float view of the values as
            # C-contiguous complex128, a copy only of strided or
            # single-precision ones
            w = np.ascontiguousarray(values, dtype=complex).view(float)
            w = w * w
            sq = w[0::2] + w[1::2]
        else:
            sq = np.asarray(values, dtype=float)
            sq = sq * sq
        if self.mu_V is None:
            pot = 0.0
            xgv = 0.0
        else:
            pot = float(np.dot(self.mu_V, sq))
            xgv = float(np.dot(self.mu_rVp, sq))
        mass = float(np.dot(g.measure_weights, sq))
        variance = float(np.dot(g.variance_weight, sq))
        # p = 2 makes the exponent 2.0, NumPy's squaring fast path
        nl = float(np.dot(self.mu_rc, sq ** ((self.params.p + 2) / 2)))
        for name, val in (
            ("gradient", grad_sq),
            ("potential_energy", pot),
            ("xgradV_term", xgv),
            ("mass", mass),
            ("variance", variance),
            ("nonlinear_term", nl),
        ):
            if not math.isfinite(val):
                raise FunctionalError(f"{name} evaluated to a non-finite value")
        return FunctionalReport(mass, variance, grad_sq, pot, xgv, nl, self.params)


def quadrature(g: RadialGrid, params: ProblemParams, spec: PotentialSpec) -> Quadrature:
    """The Quadrature of (g, params, spec); refuses a grid not built for params."""
    check_grid(g, params)
    mu = g.measure_weights
    if spec.is_zero:
        mu_V = mu_rVp = None
    else:
        V, rVp, _ = eval_potential(spec, g.nodes)
        mu_V, mu_rVp = mu * V, mu * rVp
    return Quadrature(g, params, mu * g.nodes**params.c, mu_V, mu_rVp)


def evaluate_all(
    u: RadialField, params: ProblemParams, spec: PotentialSpec
) -> FunctionalReport:
    """Evaluate every scalar functional of u in one pass of quadratures."""
    return quadrature(u.grid, params, spec).report(u.values)

