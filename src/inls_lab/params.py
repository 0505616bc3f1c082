"""Problem parameters and the critical-exponent algebra.

The equation under study is

    i u_t + div(|x|^b grad u) - V(x) u = -|x|^c |u|^p u   on R^n, n >= 3,

whose scaling structure is governed by the single combination
p_c = n*p - 2c.  Rescaling u -> lam^{(2-b+c)/p} u(lam x) preserves the
equation (with V rescaled) and acts on homogeneous Sobolev norms with
index s_c = n/2 - (2-b+c)/p; equivalently s_c = (p_c - 2(2-b)) / (2p).
The flow is mass-critical when s_c = 0, energy-critical when
p_c = (2-b)(p+2), and intercritical in between.  In the intercritical
window the mass/energy threshold quantities carry the exponent
sigma = (2-b-2s_c)/(2s_c), which has the equivalent closed form
((2-b)(p+2) - p_c)/(p_c - 2(2-b)), the one computed here.

Everything in this module is exact arithmetic on floats: no grids, no
state.  Validation failures name the violated constraint so callers can
report precisely which hypothesis a parameter set breaks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Criticality",
    "ParameterError",
    "ProblemParams",
    "validate_gn_window",
]

# Relative tolerance for criticality tie-breaking.  p_c = n*p - 2c is a
# float expression; parameter sets meant to sit exactly on a boundary
# (e.g. p = 4/3 with n = 3, c = 0) land within a few ulp of it.
_TIE_RTOL = 1e-12


class ParameterError(ValueError):
    """A parameter set violates one of the standing hypotheses."""


class Criticality(enum.Enum):
    MASS_SUBCRITICAL = "MassSubcritical"
    MASS_CRITICAL = "MassCritical"
    INTERCRITICAL = "Intercritical"
    ENERGY_CRITICAL = "EnergyCritical"


@dataclass(frozen=True)
class ProblemParams:
    """Parameters (n, b, c, p, omega) of the equation.

    Constraints enforced at construction:

    * n integer >= 3, and b, c, p, omega finite,
    * 2 - n < b < 2,
    * c >= b - 2,
    * p > 0 and 0 < p_c <= (2-b)(p+2),
    * omega > 0.
    """

    n: int
    b: float
    c: float
    p: float
    omega: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise ParameterError(f"dimension n must be an integer >= 3, got {self.n}")
        for name in ("b", "c", "p", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name}={getattr(self, name)} must be finite")
        if not (2 - self.n < self.b < 2):
            raise ParameterError(
                f"dispersion exponent b={self.b} outside (2-n, 2) = ({2 - self.n}, 2)"
            )
        if self.c < self.b - 2:
            raise ParameterError(
                f"nonlinearity weight c={self.c} below b-2 = {self.b - 2}"
            )
        if not self.p > 0:
            raise ParameterError(f"nonlinearity power p={self.p} must be positive")
        pc = self.p_c
        upper = (2 - self.b) * (self.p + 2)
        tol = _TIE_RTOL * (1 + abs(upper))
        if not pc > 0:
            raise ParameterError(f"p_c = n*p - 2c = {pc} must be positive")
        if pc > upper + tol:
            raise ParameterError(
                f"p_c = {pc} exceeds the energy-critical bound (2-b)(p+2) = {upper}"
            )
        if not self.omega > 0:
            raise ParameterError(f"frequency omega={self.omega} must be positive")

    @property
    def p_c(self) -> float:
        """Scaling exponent n*p - 2c."""
        return self.n * self.p - 2 * self.c

    @property
    def criticality(self) -> Criticality:
        """Where p_c sits against the mass line 2(2-b) and the energy line
        (2-b)(p+2); within _TIE_RTOL of a line counts as on it."""
        pc = self.p_c
        mass_line = 2 * (2 - self.b)
        energy_line = (2 - self.b) * (self.p + 2)
        tol = _TIE_RTOL * (1 + abs(energy_line))
        if abs(pc - mass_line) <= tol:
            return Criticality.MASS_CRITICAL
        if abs(pc - energy_line) <= tol:
            return Criticality.ENERGY_CRITICAL
        if pc < mass_line:
            return Criticality.MASS_SUBCRITICAL
        return Criticality.INTERCRITICAL

    @property
    def sigma(self) -> float | None:
        """Threshold exponent (2-b-2s_c)/(2s_c); None outside the
        intercritical and energy-critical classes, where s_c <= 0.

        It is evaluated as ((2-b)(p+2) - p_c)/(p_c - 2(2-b)), the
        distances of p_c to the energy and mass lines that criticality
        compares, so sigma > 0 exactly where the class is intercritical.
        Near the mass line sigma is ill-conditioned in (n, b, c, p): its
        one cancellation, p_c - 2(2-b), carries a relative rounding error
        of about eps (|p_c| + 2|2-b|)/|p_c - 2(2-b)|, and no route from
        the float parameters does better.
        """
        if self.criticality not in (Criticality.INTERCRITICAL, Criticality.ENERGY_CRITICAL):
            return None
        pc = self.p_c
        return ((2 - self.b) * (self.p + 2) - pc) / (pc - 2 * (2 - self.b))

    def with_omega(self, omega: float) -> "ProblemParams":
        """Same equation at a different frequency."""
        return ProblemParams(self.n, self.b, self.c, self.p, omega)


def validate_gn_window(params: ProblemParams) -> bool:
    """Hypothesis window of the weighted Gagliardo-Nirenberg inequality.

    True iff either
      b-2 <= c <= 0  and  -2c < p_c < (2-b)(p+2),   or
      c > 0          and  (2-b)p/2 < p_c < (2-b)(p+2).
    Both endpoints of the p_c window are excluded.
    """
    b, c, p = params.b, params.c, params.p
    pc = params.p_c
    upper = (2 - b) * (p + 2)
    if c > 0:
        return (2 - b) * p / 2 < pc < upper
    return -2 * c < pc < upper  # b - 2 <= c <= 0, as ProblemParams holds c >= b - 2
