"""Radial potential families and the standing-assumption checker.

Four closed families of nonnegative radial potentials are supported:

    zero                 V = 0
    inverse_power        V = a r^{-s},          s > 0
    smooth_bump          V = a (1+r^2)^{-s/2}
    const_plus_gaussian  V = a (1 + e^{-r^2})

Each family carries exact closed forms for the two radial combinations
the theory consumes, x.grad V = r V'(r) and x.(Hess V).x = r^2 V''(r).
No finite differences: the assumption checker must not confuse
truncation error with a genuine violation.

The four standing assumptions on V are checked pointwise on a sample
set, SAMPLE_RADII (2048 log-spaced radii on [1e-6, 1e6]):

    (I)    V >= 0  and  (2-b) V + r V' >= 0,
    (II)   r V'  in  L^{n/2}(|x|^{-nb/2} dx),
    (III)  r V' <= 0,
    (IV)   r^2 V'' <= -(3-b) r V'.

(I), (III), (IV) are pointwise inequalities; a violation report carries
the radius where the inequality fails worst.  Each is held to 1e-12
times the size of the terms it compares at that radius, (2-b)|V| + |rV'|
for (I), |rV'| for (III) and |r^2 V''| + (3-b)|rV'| for (IV), so a
decaying V is judged at its own scale.  (II) is an integrability
statement that no finite sample can witness, so the verdict combines a
quadrature over the sampled range with per-family analytic exponents of
the integrand |rV'|^{n/2} r^{-nb/2} r^{n-1} at r -> 0 and r -> oo.

The report also carries omega_1 = -(1/2) inf [(2-b)V + rV'], the
frequency shift below which the quadratic part of the action can lose
positivity; it is <= 0 whenever (I) holds.

As encoded here, (II)-(IV) together admit only constant V: (IV) is
(r^{3-b} V')' <= 0, so with (III) a V' < 0 at r0 gives
|rV'| >= kappa r^{-(2-b)} beyond r0, where the (II) integrand is at
least kappa^{n/2}/r and diverges; the smooth_bump tests of
tests/test_potential.py are instances.  The inequalities are kept as stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ProblemParams

__all__ = [
    "AssumptionReport",
    "PotentialSpec",
    "Verdict",
    "check_assumptions",
    "eval_potential",
]

FAMILIES = ("zero", "inverse_power", "smooth_bump", "const_plus_gaussian")

HOLDS = "Holds"
FAILS = "Fails"
BORDERLINE = "Borderline"

# The radii the assumption checker samples; read-only.
SAMPLE_RADII = np.geomspace(1e-6, 1e6, 2048)
SAMPLE_RADII.flags.writeable = False

# Exponents within this distance of the convergence boundary -1 (on the
# convergent side) cannot be certified numerically.
_EXPONENT_MARGIN = 1e-12


@dataclass(frozen=True)
class PotentialSpec:
    """One member of the closed potential family.

    a is the overall amplitude (a >= 0 keeps V >= 0); s is the decay
    exponent where the family has one.  Both must be finite.
    """

    family: str
    a: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}")
        for name in ("a", "s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")
        if self.a < 0:
            raise ValueError(f"amplitude a={self.a} must be nonnegative")
        if self.family == "inverse_power" and not self.s > 0:
            raise ValueError("inverse_power requires s > 0")

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls("zero")

    @classmethod
    def inverse_power(cls, a: float, s: float) -> "PotentialSpec":
        return cls("inverse_power", a, s)

    @classmethod
    def smooth_bump(cls, a: float, s: float) -> "PotentialSpec":
        return cls("smooth_bump", a, s)

    @classmethod
    def const_plus_gaussian(cls, a: float) -> "PotentialSpec":
        return cls("const_plus_gaussian", a)

    @property
    def is_zero(self) -> bool:
        return self.family == "zero" or self.a == 0.0


def eval_potential(spec: PotentialSpec, r):
    """Closed-form (V, rV', r^2 V'') at radius r (scalar or array, r > 0)."""
    r = np.asarray(r, dtype=float)
    a, s = spec.a, spec.s
    if spec.is_zero:
        z = np.zeros_like(r)
        return z, z.copy(), z.copy()
    if spec.family == "inverse_power":
        V = a * r ** (-s)
        return V, -s * V, s * (s + 1) * V
    if spec.family == "smooth_bump":
        q = 1.0 + r**2
        V = a * q ** (-s / 2)
        rVp = -a * s * r**2 * q ** (-(s + 2) / 2)
        r2Vpp = -a * s * r**2 * q ** (-(s + 4) / 2) * (1.0 - (s + 1) * r**2)
        return V, rVp, r2Vpp
    # const_plus_gaussian
    e = np.exp(-(r**2))
    V = a * (1.0 + e)
    rVp = -2.0 * a * r**2 * e
    r2Vpp = 2.0 * a * r**2 * (2.0 * r**2 - 1.0) * e
    return V, rVp, r2Vpp


@dataclass(frozen=True)
class Verdict:
    """Outcome of one assumption check."""

    status: str  # HOLDS, FAILS, or BORDERLINE
    witness: float | None = None  # radius of the worst violation, for FAILS
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def as_dict(self) -> dict:
        d: dict = {"status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.note:
            d["note"] = self.note
        return d


@dataclass(frozen=True)
class AssumptionReport:
    holds_I: Verdict
    holds_II: Verdict
    holds_III: Verdict
    holds_IV: Verdict
    omega1: float

    def verdicts(self) -> dict[str, Verdict]:
        return {
            "I": self.holds_I,
            "II": self.holds_II,
            "III": self.holds_III,
            "IV": self.holds_IV,
        }

    def as_dict(self) -> dict:
        d = {k: v.as_dict() for k, v in self.verdicts().items()}
        d["omega1"] = self.omega1
        return d


def _pointwise_verdict(slack: np.ndarray, tol: np.ndarray, radii: np.ndarray) -> Verdict:
    """Holds iff slack >= -tol at every sample; otherwise Fails with the
    radius where the violation is deepest."""
    violation = -slack - tol
    worst = int(np.argmax(violation))
    if violation[worst] > 0:
        return Verdict(FAILS, witness=float(radii[worst]))
    return Verdict(HOLDS)


def _tail_exponents(spec: PotentialSpec, params: ProblemParams) -> tuple[float, float] | None:
    """Exponents k0, kinf with integrand ~ r^{k0} (r->0), ~ r^{kinf} (r->oo).

    None means the integrand decays faster than any power at infinity
    (and is power-bounded at zero), so convergence is automatic.
    """
    n, b = params.n, params.b
    if spec.is_zero:
        return None
    if spec.family == "inverse_power":
        k = n - 1 - n * spec.s / 2 - n * b / 2
        return (k, k)
    if spec.family == "smooth_bump":
        if spec.s == 0.0:
            return None  # constant potential, rV' = 0
        k0 = n - 1 + n - n * b / 2  # |rV'| ~ r^2 near 0
        kinf = n - 1 - n * spec.s / 2 - n * b / 2
        return (k0, kinf)
    # const_plus_gaussian: |rV'| ~ r^2 e^{-r^2}
    return None


def check_assumptions(spec: PotentialSpec, params: ProblemParams) -> AssumptionReport:
    """Check assumptions (I)-(IV) for one potential and parameter set on SAMPLE_RADII.

    A potential whose V, rV' or r^2 V'' is not finite at some sample
    radius (inverse_power with s above about 51 overflows at r = 1e-6)
    raises ValueError naming the first such radius: no verdict can be
    read from an overflowed sample.
    """
    radii = SAMPLE_RADII
    n, b = params.n, params.b

    with np.errstate(over="ignore", invalid="ignore"):
        V, rVp, r2Vpp = eval_potential(spec, radii)
    finite = np.isfinite(V) & np.isfinite(rVp) & np.isfinite(r2Vpp)
    if not finite.all():
        r_bad = float(radii[np.argmin(finite)])
        raise ValueError(f"{spec}: V, rV' or r^2 V'' is not finite at r = {r_bad:.6g}")
    abs_rVp = np.abs(rVp)

    # (I): V >= 0 and (2-b)V + rV' >= 0
    comb = (2 - b) * V + rVp
    v_I = _pointwise_verdict(np.minimum(V, comb), 1e-12 * ((2 - b) * np.abs(V) + abs_rVp), radii)

    # (III): rV' <= 0
    v_III = _pointwise_verdict(-rVp, 1e-12 * abs_rVp, radii)

    # (IV): r^2 V'' <= -(3-b) rV'
    v_IV = _pointwise_verdict(
        -(3 - b) * rVp - r2Vpp, 1e-12 * (np.abs(r2Vpp) + (3 - b) * abs_rVp), radii
    )

    # (II): analytic tails, with the quadrature over the sample range
    # reported on the Holds branches (the integrand can overflow elsewhere)
    def holds_II() -> Verdict:
        integrand = np.abs(rVp) ** (n / 2) * radii ** (-n * b / 2) * radii ** (n - 1)
        return Verdict(HOLDS, note=f"partial integral {np.trapezoid(integrand, radii):.6g}")

    tails = _tail_exponents(spec, params)
    if tails is None:
        v_II = holds_II()
    else:
        k0, kinf = tails
        # r^k integrates near 0 iff k > -1, near oo iff k < -1
        if kinf >= -1.0:
            v_II = Verdict(
                FAILS,
                witness=float(radii[-1]),
                note=f"tail exponent {kinf:g} >= -1: integral diverges at infinity",
            )
        elif k0 <= -1.0:
            v_II = Verdict(
                FAILS,
                witness=float(radii[0]),
                note=f"origin exponent {k0:g} <= -1: integral diverges at zero",
            )
        elif kinf > -1.0 - _EXPONENT_MARGIN or k0 < -1.0 + _EXPONENT_MARGIN:
            v_II = Verdict(
                BORDERLINE,
                note=f"exponents ({k0:g}, {kinf:g}) within rounding of the boundary -1",
            )
        else:
            v_II = holds_II()

    omega1 = -0.5 * float(np.min(comb)) + 0.0  # + 0.0 turns -0.0 into 0.0
    return AssumptionReport(v_I, v_II, v_III, v_IV, omega1)
