"""Theorem-based classification of initial data.

Each classifier checks the hypotheses of one sufficient-condition
theorem on a concrete discretized field and reports a verdict together
with the compared numbers.  Verdicts are candidates, not certificates:
the theorems state sufficient conditions, and the discretization can
only corroborate them at desk scale.

Three routes are implemented.  The mass-critical route compares the
L2 norm of the datum against the ground-state norm and tests the sign
of the energy.  The intercritical route compares the scale-invariant
products energy*mass^sigma and gradnorm*norm^sigma against their
ground-state values.  The set route tests membership in the two
sub-action sets split by the sign of the scaling derivative K^{n,2}
at a chosen frequency; the frequency-optimized choice omega0 makes
the set route equivalent to the intercritical energy-mass gate.

classify_all is the one entry point: it derives the exponents, checks
the assumptions and integrates the datum once, every route reads that
one FunctionalReport, and it holds the one set-route frequency rule.

Strict inequalities are decided with a relative dead band of 1e-6.
Values inside the band yield Undetermined with a near-boundary flag:
the theorems are open-condition statements, and numerical equality is
not evidence for either side.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .functionals import FunctionalReport, evaluate_all
from .grid import RadialField
from .groundstate import GroundState, is_frequency_one
from .params import CriticalExponents, Criticality, ProblemParams, derive_exponents
from .potential import HOLDS, FAILS, AssumptionReport, PotentialSpec, check_assumptions

# Relative half-width of the band around a threshold inside which a
# strict inequality is treated as undecided.
DEAD_BAND = 1e-6

GLOBAL_CANDIDATE = "GlobalCandidate"
BLOWUP_CANDIDATE = "BlowupCandidate"
NOT_APPLICABLE = "NotApplicable"
UNDETERMINED = "Undetermined"


class ClassifyError(RuntimeError):
    """Classification could not be carried out on the given inputs."""


@dataclass(frozen=True)
class Evidence:
    """One compared scalar pair backing a verdict."""

    name: str
    lhs: float
    rhs: float

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class ClassificationEntry:
    """Verdict of one theorem on one datum, with the numbers attached.

    assumptions maps every gating hypothesis of the theorem to the
    status string of the potential checker (Holds/Fails/Borderline);
    any status other than Holds forces the NotApplicable verdict.
    evidence carries both sides of each strict inequality that was
    actually evaluated.  near_boundary marks verdicts that were
    withheld because a comparison fell inside the dead band.
    """

    theorem: str
    assumptions: dict[str, str]
    verdict: str
    evidence: tuple[Evidence, ...]
    notes: tuple[str, ...] = ()
    near_boundary: bool = False

    def as_dict(self) -> dict:
        return {
            "id": self.theorem,
            "assumptions": dict(self.assumptions),
            "verdict": self.verdict,
            "evidence": [e.as_dict() for e in self.evidence],
            "notes": list(self.notes),
            "near_boundary": self.near_boundary,
        }


@dataclass(frozen=True)
class FrequencyReport:
    """Optimized frequency and the action gap attained there.

    f_omega0 is the value of f(w) = w^kappa * m_1 - S_{w,V}(u0) at its
    critical point omega0; a positive value certifies that u0 lies
    below the minimal action at that frequency.  em_product and
    em_threshold are the two sides of the equivalent energy-mass gate.
    """

    omega0: float
    f_omega0: float
    em_product: float
    em_threshold: float
    near_boundary: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Classification:
    """Per-theorem entries for one initial datum, in route order, and
    the optimized frequency whenever the exponents are intercritical."""

    entries: tuple[ClassificationEntry, ...]
    frequency: FrequencyReport | None = None

    def entry(self, theorem: str) -> ClassificationEntry:
        """The entry of one theorem id."""
        for e in self.entries:
            if e.theorem == theorem:
                return e
        raise KeyError(theorem)

    def as_json_list(self) -> list[dict]:
        return [e.as_dict() for e in self.entries]


def _compare(lhs: float, rhs: float, scale: float | None = None) -> str:
    """Three-way strict comparison: "below", "above", or "band".

    scale overrides the default max(|lhs|, |rhs|) when the compared
    difference is a small residue of cancellations with a larger
    natural magnitude (sign tests of the energy, of K^{n,2}).
    """
    s = max(abs(lhs), abs(rhs)) if scale is None else scale
    if abs(lhs - rhs) <= DEAD_BAND * s:
        return "band"
    return "below" if lhs < rhs else "above"


def _status(flag: bool) -> str:
    return HOLDS if flag else FAILS


def _gated_out(
    theorem: str, assumptions: dict[str, str], evidence: list[Evidence], notes: list[str]
) -> ClassificationEntry | None:
    """The NotApplicable entry when a gating hypothesis does not hold, else None."""
    failed = [k for k, v in assumptions.items() if v != HOLDS]
    if not failed:
        return None
    notes.append("gating failed: " + ", ".join(failed))
    return ClassificationEntry(
        theorem, assumptions, NOT_APPLICABLE, tuple(evidence), tuple(notes)
    )


def _kappa(params: ProblemParams) -> float:
    """Exponent of the minimal-action frequency scaling m_w = w^kappa m_1."""
    b, p = params.b, params.p
    return ((2 - b) * (p + 2) - params.p_c) / ((2 - b) * p)


def _require_frequency_one(gs1: GroundState, keys: tuple[str, ...]) -> None:
    if not is_frequency_one(gs1.omega):
        raise ClassifyError(
            f"threshold route needs the frequency-1 ground state, got omega={gs1.omega}"
        )
    missing = [k for k in keys if gs1.thresholds.get(k) is None]
    if missing:
        raise ClassifyError(f"ground state lacks thresholds {missing}")


def _mass_critical(
    exps: CriticalExponents,
    report: AssumptionReport,
    rep: FunctionalReport,
    gs1: GroundState,
) -> ClassificationEntry:
    """L2-threshold dichotomy at mass-critical exponents.

    Global candidate when the L2 norm of the datum is below the
    ground-state norm; blow-up candidate when the energy is negative
    (evaluate_all raises on a non-finite weighted variance, so the
    finite-variance branch hypothesis always holds here).
    """
    params = rep.params
    assumptions = {
        "criticality_mass_critical": _status(
            exps.criticality is Criticality.MASS_CRITICAL
        ),
        "dispersion_nonpositive": _status(params.b <= 0),
        "assumption_I": report.holds_I.status,
        "radial": HOLDS,
        "finite_variance": HOLDS,
    }

    mass_norm = math.sqrt(rep.mass)
    # The energy is a difference of same-order terms; its sign test is
    # banded against the magnitude of the cancelling parts.
    e_scale = 0.5 * (rep.grad_sq + rep.potential_energy) + rep.nonlinear_term / (params.p + 2)

    evidence = [Evidence("energy_vs_zero", rep.energy, 0.0)]
    mass_th = gs1.thresholds.get("mass_threshold")
    if mass_th is not None:
        evidence.insert(0, Evidence("mass_norm_vs_threshold", mass_norm, float(mass_th)))
    notes = [f"weighted_variance_sq = {rep.variance:.6e}"]

    gated = _gated_out("mass_critical_threshold", assumptions, evidence, notes)
    if gated is not None:
        return gated
    _require_frequency_one(gs1, ("mass_threshold",))

    mass_cmp = _compare(mass_norm, float(mass_th))
    energy_cmp = _compare(rep.energy, 0.0, scale=e_scale)
    near = False
    if energy_cmp == "below":
        verdict = BLOWUP_CANDIDATE
        notes.append("negative energy with grid-finite weighted variance")
    elif mass_cmp == "below":
        verdict = GLOBAL_CANDIDATE
    else:
        verdict = UNDETERMINED
        near = "band" in (mass_cmp, energy_cmp)
        if near:
            notes.append("near_boundary: comparison inside the dead band")
    return ClassificationEntry(
        "mass_critical_threshold",
        assumptions,
        verdict,
        tuple(evidence),
        tuple(notes),
        near_boundary=near,
    )


def _intercritical(
    exps: CriticalExponents,
    report: AssumptionReport,
    rep: FunctionalReport,
    gs1: GroundState,
) -> ClassificationEntry:
    """Scale-invariant product dichotomy at intercritical exponents.

    Both branches are gated on the energy-mass product sitting below
    its ground-state value.  Below that gate, the gradient-mass
    product below its ground-state value gives a global candidate and
    above it a blow-up candidate.  The blow-up branch applies to grid
    data through the finite-variance hypothesis; the radial branch
    additionally needs p < 4 and is recorded alongside.
    """
    params = rep.params
    assumptions = {
        "criticality_intercritical": _status(
            exps.criticality is Criticality.INTERCRITICAL
        ),
        "dispersion_nonpositive": _status(params.b <= 0),
        "assumption_I": report.holds_I.status,
        "assumption_II": report.holds_II.status,
        "radial": HOLDS,
    }

    evidence: list[Evidence] = []
    notes: list[str] = []
    sigma = exps.sigma
    em_th = gs1.thresholds.get("em_sigma")
    grad_th = gs1.thresholds.get("grad_mass")
    em_prod = grad_prod = None
    if sigma is not None:
        em_prod = rep.energy * rep.mass**sigma
        grad_prod = rep.grad_norm_V * math.sqrt(rep.mass) ** sigma
        if em_th is not None:
            evidence.append(Evidence("em_product_vs_threshold", em_prod, float(em_th)))
        if grad_th is not None:
            evidence.append(
                Evidence("grad_product_vs_threshold", grad_prod, float(grad_th))
            )

    gated = _gated_out("intercritical_threshold", assumptions, evidence, notes)
    if gated is not None:
        return gated
    _require_frequency_one(gs1, ("em_sigma", "grad_mass"))

    em_cmp = _compare(em_prod, float(em_th))
    grad_cmp = _compare(grad_prod, float(grad_th))
    near = False
    if em_cmp == "below" and grad_cmp == "below":
        verdict = GLOBAL_CANDIDATE
    elif em_cmp == "below" and grad_cmp == "above":
        verdict = BLOWUP_CANDIDATE
        notes.append("blow-up branch: grid data have finite weighted variance")
        if params.p < 4:
            notes.append("radial branch also applies (p < 4)")
        else:
            notes.append("radial branch unavailable (p >= 4)")
    else:
        verdict = UNDETERMINED
        near = "band" in (em_cmp, grad_cmp)
        if near:
            notes.append("near_boundary: comparison inside the dead band")
        elif em_cmp == "above":
            notes.append("energy-mass product above threshold: no branch applies")
    return ClassificationEntry(
        "intercritical_threshold",
        assumptions,
        verdict,
        tuple(evidence),
        tuple(notes),
        near_boundary=near,
    )


def _sets(
    exps: CriticalExponents,
    report: AssumptionReport,
    rep: FunctionalReport,
    gs: GroundState,
    omega: float,
) -> ClassificationEntry:
    """Membership test in the sub-action sets at frequency omega.

    Data whose action at frequency omega is below the zero-potential
    minimal action m_omega split by the sign of K^{n,2}: nonnegative
    K gives a global candidate, negative K a blow-up candidate when
    additionally c <= b < 0 and p_c <= 2c(2-b)/b (the window where the
    blow-up argument closes), else Undetermined with a note.  When the
    datum sits in the negative-K set the gap bound
    K^{n,2} <= -2(2-b)(m_omega - S) is reported as a consistency
    check.  The action, L and K^{n,2} at omega are closed forms of rep.
    """
    params = rep.params
    n, b, c = params.n, params.b, params.c
    assumptions = {
        "criticality_intercritical": _status(
            exps.criticality is Criticality.INTERCRITICAL
        ),
        "weight_range": _status(b - 2 < c <= 0),
        "assumption_I": report.holds_I.status,
        "assumption_II": report.holds_II.status,
        "assumption_III": report.holds_III.status,
        "assumption_IV": report.holds_IV.status,
        "radial": HOLDS,
    }

    rep_w = rep.at(omega)
    action = rep_w.action
    k_n2 = rep_w.k(n, 2)
    m_omega = gs.m_omega * (omega / gs.omega) ** _kappa(params)

    evidence = [
        Evidence("action_vs_min_action", action, float(m_omega)),
        Evidence("k_n2_vs_zero", k_n2, 0.0),
    ]
    notes = [f"omega = {omega:.12g}"]
    if gs.omega != omega:
        notes.append(
            f"min action rescaled from omega = {gs.omega:.12g} by the frequency power law"
        )

    gated = _gated_out("action_set_membership", assumptions, evidence, notes)
    if gated is not None:
        return gated

    def entry(verdict: str, near: bool = False) -> ClassificationEntry:
        return ClassificationEntry(
            "action_set_membership", assumptions, verdict, tuple(evidence), tuple(notes), near
        )

    s_cmp = _compare(action, float(m_omega))
    if s_cmp != "below":
        near = s_cmp == "band"
        notes.append("action not below the minimal action: outside both sets")
        if near:
            notes.append("near_boundary: action inside the dead band")
        return entry(NOT_APPLICABLE, near)

    # Sign of K^{n,2} decides the set; it is a cancellation residue, so
    # the band is taken relative to the positive-definite part L.
    k_cmp = _compare(k_n2, 0.0, scale=rep_w.L)
    if k_cmp == "band":
        notes.append("near_boundary: K^{n,2} inside the dead band")
        return entry(UNDETERMINED, near=True)
    if k_cmp == "above":
        notes.append("membership: nonnegative-K set")
        return entry(GLOBAL_CANDIDATE)

    # Negative-K set.  Report the gap bound, then test the blow-up window.
    notes.append("membership: negative-K set")
    gap_rhs = -2.0 * (2 - b) * (float(m_omega) - action)
    evidence.append(Evidence("k_gap_bound", k_n2, gap_rhs))
    slack = 1e-9 * max(abs(k_n2), abs(gap_rhs))
    if k_n2 <= gap_rhs + slack:
        notes.append("gap bound satisfied")
    else:
        notes.append("gap bound violated: check resolution of the minimal action")

    if b == 0.0:
        notes.append(
            "blow-up window bound 2c(2-b)/b undefined at b = 0; branch not applicable"
        )
        verdict = UNDETERMINED
    else:
        window_ok = c <= b < 0
        if b < 0:
            bound = 2.0 * c * (2 - b) / b
            evidence.append(Evidence("pc_vs_blowup_window", params.p_c, bound))
            window_ok = window_ok and params.p_c <= bound
        if window_ok:
            verdict = BLOWUP_CANDIDATE
        else:
            verdict = UNDETERMINED
            notes.append("inside the negative-K set but outside the blow-up window")
    return entry(verdict)


def _optimal_frequency(
    rep: FunctionalReport, exps: CriticalExponents, gs1: GroundState
) -> FrequencyReport:
    """The optimized frequency from the report of the datum (intercritical exponents)."""
    _require_frequency_one(gs1, ("em_sigma",))

    params = rep.params
    b, p = params.b, params.p
    pc = params.p_c
    m1 = gs1.m_omega
    mass = rep.mass
    if not mass > 0:
        raise ClassifyError("frequency optimization needs a nonzero datum")

    kappa = _kappa(params)
    base = (2 - b) * p / (2 * (2 - b) * (p + 2) - 2 * pc) * (mass / m1)
    expo = (2 - b) * p / (2 * (2 - b) - pc)
    omega0 = float(base**expo)
    f0 = float(omega0**kappa * m1 - (rep.energy + 0.5 * omega0 * mass))

    sigma = exps.sigma
    assert sigma is not None
    em_prod = float(rep.energy * mass**sigma)
    em_th = float(gs1.thresholds["em_sigma"])

    f_cmp = _compare(f0, 0.0, scale=omega0**kappa * m1)
    em_cmp = _compare(em_prod, em_th)
    near = "band" in (f_cmp, em_cmp)
    if not near and (f_cmp == "above") != (em_cmp == "below"):
        raise ClassifyError(
            f"gate equivalence violated: f(omega0) = {f0} while "
            f"energy-mass product is {em_prod} vs threshold {em_th}"
        )
    return FrequencyReport(
        omega0=omega0,
        f_omega0=f0,
        em_product=em_prod,
        em_threshold=em_th,
        near_boundary=near,
    )


def optimal_frequency(
    u0: RadialField,
    params: ProblemParams,
    gs1: GroundState,
    spec: PotentialSpec | None = None,
) -> FrequencyReport:
    """Frequency maximizing the action gap f(w) = w^kappa m_1 - S_{w,V}(u0).

    The critical point has the closed form

        omega0 = [ (2-b)p / (2(2-b)(p+2) - 2 p_c) * M(u0)/m_1 ]^{(2-b)p/(2(2-b)-p_c)}

    and f(omega0) > 0 holds exactly when the energy-mass product of u0
    is below its ground-state value.  The two directions are asserted
    to agree outside a relative band of 1e-6 around equality; band
    cases are flagged instead of asserted.
    """
    spec = PotentialSpec.zero() if spec is None else spec
    exps = derive_exponents(params)
    if exps.criticality is not Criticality.INTERCRITICAL:
        raise ClassifyError("frequency optimization needs intercritical exponents")
    return _optimal_frequency(evaluate_all(u0, params, spec), exps, gs1)


def classify_all(
    u0: RadialField,
    params: ProblemParams,
    spec: PotentialSpec,
    gs1: GroundState,
    omega: float | None = None,
) -> Classification:
    """Run every route on one datum.

    Entries come in route order: mass_critical_threshold,
    intercritical_threshold, action_set_membership.  The set route
    runs at frequency omega; when omega is None, at the optimized
    frequency if the exponents are intercritical, else at the
    frequency of the supplied ground state, where its own gating
    reports NotApplicable.  Classification.frequency is the
    optimal_frequency report whenever the exponents are intercritical.
    """
    exps = derive_exponents(params)
    report = check_assumptions(spec, params)
    rep = evaluate_all(u0, params, spec)
    frequency = None
    if exps.criticality is Criticality.INTERCRITICAL:
        frequency = _optimal_frequency(rep, exps, gs1)
    if omega is None:
        omega = gs1.omega if frequency is None else frequency.omega0
    omega = float(omega)
    if not omega > 0:
        raise ClassifyError(f"frequency must be positive, got {omega}")
    return Classification(
        (
            _mass_critical(exps, report, rep, gs1),
            _intercritical(exps, report, rep, gs1),
            _sets(exps, report, rep, gs1, omega),
        ),
        frequency,
    )
