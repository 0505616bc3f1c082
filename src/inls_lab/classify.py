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
ground-state values in log form, log(E/E_Q) + sigma log(M/M_Q) < 0,
so no power of the mass is formed however large sigma grows; E <= 0
passes the energy-mass gate outright.  The set route tests membership
in the two sub-action sets split by the sign of the scaling derivative
K^{n,2} at a chosen frequency; the frequency-optimized choice omega0
makes the set route equivalent to the intercritical energy-mass gate.

classify_all is the one entry point: it checks the reference ground
state, checks the assumptions and integrates the datum once, and
holds the one set-route frequency rule.  Every route reads that one
FunctionalReport against Q's own, gs1.report, and hands its decide
step to _entry.

Each comparison states its band: an Evidence row holds both sides of
one strict inequality and the absolute half-width of its dead band,
DEAD_BAND times a scale of the compared quantity, set where the row is
built (1 for a log ratio of products).  Its side is the one comparison
every verdict reads.  A row in its band withholds the verdict with a
near-boundary flag: the theorems are open-condition statements, and
numerical equality is not evidence for either side.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

from .functionals import FunctionalReport, evaluate_all
from .grid import RadialField
from .groundstate import GroundState
from .params import Criticality, ProblemParams
from .potential import HOLDS, FAILS, AssumptionReport, PotentialSpec, check_assumptions

# Relative half-width of the band around a threshold inside which a
# strict inequality is treated as undecided; each row scales it.
DEAD_BAND = 1e-6

GLOBAL_CANDIDATE = "GlobalCandidate"
BLOWUP_CANDIDATE = "BlowupCandidate"
NOT_APPLICABLE = "NotApplicable"
UNDETERMINED = "Undetermined"


class ClassifyError(RuntimeError):
    """Classification could not be carried out on the given inputs."""


@dataclass(frozen=True)
class Evidence:
    """One compared scalar pair backing a verdict, with band the
    absolute half-width around rhs inside which lhs is undecided."""

    name: str
    lhs: float
    rhs: float
    band: float

    @property
    def side(self) -> str:
        """Where lhs lies: "below" or "above" rhs, or "band" when |lhs - rhs| <= band."""
        if abs(self.lhs - self.rhs) <= self.band:
            return "band"
        return "below" if self.lhs < self.rhs else "above"

    def as_dict(self) -> dict:
        return asdict(self)


def _relative(name: str, lhs: float, rhs: float) -> Evidence:
    """The row of two same-sized quantities, banded by the larger."""
    return Evidence(name, lhs, rhs, DEAD_BAND * max(abs(lhs), abs(rhs)))


def _in_band(*rows: Evidence) -> Evidence | None:
    """The first of rows that sits inside its band, else None."""
    return next((e for e in rows if e.side == "band"), None)


@dataclass(frozen=True)
class ClassificationEntry:
    """Verdict of one theorem on one datum, with the numbers attached.

    assumptions maps every gating hypothesis of the theorem to the
    status string of the potential checker (Holds/Fails/Borderline);
    any status other than Holds forces the NotApplicable verdict.
    evidence carries each strict inequality that was actually
    evaluated, both sides and its band.  near_boundary marks verdicts
    that were withheld because a row fell inside its band; the note
    names that row.
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

    gap compares f(w) = w^kappa * m_1 - S_{w,V}(u0) at its critical
    point omega0 with 0; a positive f(omega0) certifies that u0 lies
    below the minimal action at that frequency.  em is the equivalent
    energy-mass gate, the row the intercritical route decides on too
    (energy_vs_zero where the energy of u0 is not positive).
    """

    omega0: float
    gap: Evidence
    em: Evidence

    @property
    def near_boundary(self) -> bool:
        return _in_band(self.gap, self.em) is not None

    def as_dict(self) -> dict:
        """The frequency.json record."""
        return {
            "omega0": self.omega0,
            "gap": self.gap.as_dict(),
            "em": self.em.as_dict(),
            "near_boundary": self.near_boundary,
        }


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


def _status(flag: bool) -> str:
    return HOLDS if flag else FAILS


def _entry(
    theorem: str,
    assumptions: dict[str, str],
    evidence: list[Evidence],
    notes: list[str],
    decide: Callable[[], tuple[str, Evidence | None]],
) -> ClassificationEntry:
    """A route's entry: NotApplicable when a gating hypothesis does not
    hold, else the verdict of decide(), which may append to evidence and
    notes before they are frozen into the entry, and names the row in
    its band that withheld the verdict, if one did."""
    failed = [k for k, v in assumptions.items() if v != HOLDS]
    if failed:
        notes.append("gating failed: " + ", ".join(failed))
        verdict, band = NOT_APPLICABLE, None
    else:
        verdict, band = decide()
    near = band is not None
    if near:
        notes.append(f"near_boundary: {band.name} inside the dead band")
    return ClassificationEntry(theorem, assumptions, verdict, tuple(evidence), tuple(notes), near)


def _mass_critical(
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
        "criticality_mass_critical": _status(params.criticality is Criticality.MASS_CRITICAL),
        "dispersion_nonpositive": _status(params.b <= 0),
        "assumption_I": report.holds_I.status,
        "radial": HOLDS,
        "finite_variance": HOLDS,
    }

    # The energy is a difference of same-order terms; its sign test is
    # banded against the magnitude of the cancelling parts.
    e_scale = 0.5 * (rep.grad_sq + rep.potential_energy) + rep.nonlinear_term / (params.p + 2)

    evidence = [Evidence("energy_vs_zero", rep.energy, 0.0, DEAD_BAND * e_scale)]
    if params.criticality in (Criticality.MASS_CRITICAL, Criticality.INTERCRITICAL):
        mass_th = gs1.report.mass**0.5  # undefined below the mass-critical line
        evidence.insert(0, _relative("mass_norm_vs_threshold", math.sqrt(rep.mass), mass_th))
    notes = [f"weighted_variance_sq = {rep.variance:.6e}"]

    def decide() -> tuple[str, Evidence | None]:
        mass, energy = evidence
        if energy.side == "below":
            notes.append("negative energy with grid-finite weighted variance")
            return BLOWUP_CANDIDATE, None
        if mass.side == "below":
            return GLOBAL_CANDIDATE, None
        return UNDETERMINED, _in_band(mass, energy)

    return _entry("mass_critical_threshold", assumptions, evidence, notes, decide)


def _intercritical(
    report: AssumptionReport,
    rep: FunctionalReport,
    gs1: GroundState,
    frequency: FrequencyReport | None,
) -> ClassificationEntry:
    """Scale-invariant product dichotomy at intercritical exponents.

    Both branches are gated on the energy-mass product sitting below
    its ground-state value, the row frequency.em.  Below that gate, the
    gradient-mass product below its ground-state value gives a global
    candidate and above it a blow-up candidate, both in log form.  The
    blow-up branch applies to grid data through the finite-variance
    hypothesis; the radial branch additionally needs p < 4 and is
    recorded alongside.
    """
    params = rep.params
    intercritical = params.criticality is Criticality.INTERCRITICAL
    assumptions = {
        "criticality_intercritical": _status(intercritical),
        "dispersion_nonpositive": _status(params.b <= 0),
        "assumption_I": report.holds_I.status,
        "assumption_II": report.holds_II.status,
        "radial": HOLDS,
    }

    evidence: list[Evidence] = []
    notes: list[str] = []
    if frequency is not None:  # intercritical: the products are defined
        q = gs1.report
        log_grad = 0.5 * (math.log(rep.grad_sq + rep.potential_energy) - math.log(q.grad_sq))
        log_mass = 0.5 * params.sigma * (math.log(rep.mass) - math.log(q.mass))
        grad = Evidence("grad_product_vs_threshold", log_grad + log_mass, 0.0, DEAD_BAND)
        evidence = [frequency.em, grad]

    def decide() -> tuple[str, Evidence | None]:
        em, grad = evidence
        if em.side == "below" and grad.side == "below":
            return GLOBAL_CANDIDATE, None
        if em.side == "below" and grad.side == "above":
            notes.append("blow-up branch: grid data have finite weighted variance")
            if params.p < 4:
                notes.append("radial branch also applies (p < 4)")
            else:
                notes.append("radial branch unavailable (p >= 4)")
            return BLOWUP_CANDIDATE, None
        band = _in_band(em, grad)
        if band is None and em.side == "above":
            notes.append("energy-mass product above threshold: no branch applies")
        return UNDETERMINED, band

    return _entry("intercritical_threshold", assumptions, evidence, notes, decide)


def _sets(
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
    check.  The action and K^{n,2} at omega are closed forms of rep,
    m_omega the power law GroundState.min_action.
    """
    params = rep.params
    n, b, c = params.n, params.b, params.c
    assumptions = {
        "criticality_intercritical": _status(params.criticality is Criticality.INTERCRITICAL),
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
    m_omega = gs.min_action(omega)
    # K^{n,2} = (2-b)||grad u||^2_b - int x.grad V|u|^2 - p_c/(p+2)||u||^{p+2}_{c,p+2}
    # has no omega term; its sign is banded by the sizes of its three terms.
    nl_term = params.p_c / (params.p + 2) * rep.nonlinear_term
    k_size = abs((2 - b) * rep.grad_sq) + abs(rep.xgradV_term) + abs(nl_term)

    action_row = _relative("action_vs_min_action", action, m_omega)
    k_row = Evidence("k_n2_vs_zero", k_n2, 0.0, DEAD_BAND * k_size)
    evidence = [action_row, k_row]
    notes = [f"omega = {omega:.12g}"]
    if gs.omega != omega:
        notes.append(
            f"min action rescaled from omega = {gs.omega:.12g} by the frequency power law"
        )

    def decide() -> tuple[str, Evidence | None]:
        if action_row.side != "below":
            notes.append("action not below the minimal action: outside both sets")
            return NOT_APPLICABLE, _in_band(action_row)
        if k_row.side == "band":
            return UNDETERMINED, k_row
        if k_row.side == "above":
            notes.append("membership: nonnegative-K set")
            return GLOBAL_CANDIDATE, None

        # Negative-K set.  Report the gap bound, then test the blow-up window.
        notes.append("membership: negative-K set")
        gap_rhs = -2.0 * (2 - b) * (m_omega - action)
        gap = Evidence("k_gap_bound", k_n2, gap_rhs, 1e-9 * max(abs(k_n2), abs(gap_rhs)))
        evidence.append(gap)
        notes.append("gap bound satisfied" if gap.side != "above" else
                     "gap bound violated: check resolution of the minimal action")

        if b == 0.0:
            notes.append(
                "blow-up window bound 2c(2-b)/b undefined at b = 0; branch not applicable"
            )
            return UNDETERMINED, None
        window_ok = c <= b < 0
        if b < 0:
            # The window is closed: p_c on the bound is inside it.
            window = Evidence("pc_vs_blowup_window", params.p_c, 2.0 * c * (2 - b) / b, 0.0)
            evidence.append(window)
            window_ok = window_ok and window.side != "above"
        if window_ok:
            return BLOWUP_CANDIDATE, None
        notes.append("inside the negative-K set but outside the blow-up window")
        return UNDETERMINED, None

    return _entry("action_set_membership", assumptions, evidence, notes, decide)


def _optimal_frequency(
    u0: RadialField, rep: FunctionalReport, gs1: GroundState
) -> FrequencyReport:
    """The optimized frequency from the datum u0 and its report rep
    (intercritical exponents)."""
    params = rep.params
    b, p = params.b, params.p
    pc = params.p_c
    mass = rep.mass
    if not mass > 0:
        peak = float(abs(u0.values).max())
        if peak > 0:
            raise ClassifyError(
                f"frequency optimization needs a positive mass, and the mass of this "
                f"datum underflows to 0 (largest amplitude {peak:.3g})"
            )
        raise ClassifyError("frequency optimization needs a nonzero datum")

    base = (2 - b) * p / (2 * (2 - b) * (p + 2) - 2 * pc) * (mass / gs1.m_omega)
    expo = (2 - b) * p / (2 * (2 - b) - pc)
    try:
        omega0 = base**expo
    except OverflowError:
        omega0 = math.inf
    if not 0 < omega0 < math.inf:
        raise ClassifyError(
            f"optimized frequency exp({expo * math.log(base):.6g}) is not a positive finite "
            f"float at sigma = {params.sigma:.6g}"
        )
    m0 = gs1.min_action(omega0)
    f0 = float(m0 - (rep.energy + 0.5 * omega0 * mass))

    gap = Evidence("f_omega0_vs_zero", f0, 0.0, DEAD_BAND * m0)
    q = gs1.report
    if rep.energy > 0:
        log_energy = math.log(rep.energy) - math.log(q.energy)
        log_mass = params.sigma * (math.log(mass) - math.log(q.mass))
        em = Evidence("em_product_vs_threshold", log_energy + log_mass, 0.0, DEAD_BAND)
    else:  # E_Q > 0, so E M^sigma < E_Q M_Q^sigma holds outright
        em = Evidence("energy_vs_zero", rep.energy, 0.0, 0.0)
    if _in_band(gap, em) is None and (gap.side == "above") != (em.side == "below"):
        raise ClassifyError(
            f"gate equivalence violated: f(omega0) = {f0} while "
            f"{em.name} reads {em.lhs} against {em.rhs}"
        )
    return FrequencyReport(omega0, gap, em)


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
    to agree unless either row sits in its band (f(omega0) banded by
    1e-6 m(omega0), the log ratio of the products by 1e-6); band cases
    are flagged instead of asserted.  gs1 must be the frequency-1
    ground state of the equation of params, else ClassifyError, and so
    is an omega0 off the positive floats.
    """
    if not gs1.is_reference_for(params):
        raise ClassifyError(f"needs the frequency-1 ground state of {params}, got {gs1.params}")
    spec = PotentialSpec.zero() if spec is None else spec
    if params.criticality is not Criticality.INTERCRITICAL:
        raise ClassifyError("frequency optimization needs intercritical exponents")
    return _optimal_frequency(u0, evaluate_all(u0, params, spec), gs1)


def classify_all(
    u0: RadialField,
    params: ProblemParams,
    spec: PotentialSpec,
    gs1: GroundState,
    omega: float | None = None,
) -> Classification:
    """Run every route on one datum.

    gs1 must be the frequency-1 ground state of the equation of params
    (GroundState.is_reference_for), else ClassifyError; every threshold
    and minimal action is read from it.  Entries come in route order:
    mass_critical_threshold, intercritical_threshold,
    action_set_membership.  The set route runs at frequency omega; when
    omega is None, at the optimized frequency if the exponents are
    intercritical, else at frequency 1, where its own gating reports
    NotApplicable.  Classification.frequency is the optimal_frequency
    report whenever the exponents are intercritical.
    """
    if not gs1.is_reference_for(params):
        raise ClassifyError(f"needs the frequency-1 ground state of {params}, got {gs1.params}")
    report = check_assumptions(spec, params)
    rep = evaluate_all(u0, params, spec)
    frequency = None
    if params.criticality is Criticality.INTERCRITICAL:
        frequency = _optimal_frequency(u0, rep, gs1)
    if omega is None:
        omega = gs1.omega if frequency is None else frequency.omega0
    omega = float(omega)
    if not omega > 0:
        raise ClassifyError(f"frequency must be positive, got {omega}")
    return Classification(
        (
            _mass_critical(report, rep, gs1),
            _intercritical(report, rep, gs1, frequency),
            _sets(report, rep, gs1, omega),
        ),
        frequency,
    )
