"""Acceptance suite: every primary claim checked at desk scale.

One registry defines what "verified" means for this package; the CLI
verify subcommand and tests/test_acceptance.py both run it.  Each
criterion function returns CheckResult rows carrying the measured
number, the bound it must meet, and a short diagnostic detail.

The fixtures are frozen here: three intercritical parameter sets for
the stationary identities, a mass-critical and a subcritical set for
the flow checks, and the negative-K collapse fixture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classify import BLOWUP_CANDIDATE, GLOBAL_CANDIDATE, classify_all, optimal_frequency
from .evolve import (
    EvolutionConfig,
    RelaxationStepper,
    evolve,
    relative_drift,
    variance_concavity,
    virial_check,
)
from .functionals import evaluate_all, quadrature
from .grid import RadialField, RadialGrid, build_grid
from .groundstate import gn_ratio, petviashvili_solve, shooting_solve
from .params import ProblemParams
from .potential import PotentialSpec, check_assumptions

SEED = 20260817

F1 = ProblemParams(3, 0.0, 0.0, 2.0, 1.0)
F2 = ProblemParams(3, -0.5, -0.5, 2.0, 1.0)
F3 = ProblemParams(4, -1.0, -1.0, 2.5, 1.0)
STATIONARY_FIXTURES = (("fx1", F1), ("fx2", F2), ("fx3", F3))

MASS_CRITICAL = ProblemParams(3, 0.0, 0.0, 4.0 / 3.0, 1.0)
STANDING = ProblemParams(3, 0.0, 0.0, 1.0, 1.0)
NMINUS = ProblemParams(3, -0.5, -0.6, 1.5, 1.0)

_ZERO = PotentialSpec.zero()

# Bound on the relative mass drift of every flow check: the Cayley step is
# unitary in the mu-weighted inner product, so mass moves only by roundoff.
_MASS_DRIFT = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """One measured quantity against its acceptance bound."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def report_line(self) -> str:
        """PASS/FAIL, the name, the measured value against the tolerance, the detail."""
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: measured {self.measured:.6g}"
        line += f" vs tolerance {self.tolerance:.6g}"
        return line + (f" ({self.detail})" if self.detail else "")


@lru_cache(maxsize=None)
def _grid(n: int, b: float, N: int, grading: float = 2.0) -> RadialGrid:
    return build_grid(n, b, r_max=30.0, N=N, grading=grading)


@lru_cache(maxsize=None)
def _solve(params: ProblemParams, N: int):
    return petviashvili_solve(params, grid=_grid(params.n, params.b, N))


def _scaled(gs, a: float) -> RadialField:
    return RadialField(gs.profile.grid, a * gs.profile.values)


def _gaussian(grid: RadialGrid) -> RadialField:
    return RadialField(grid, np.exp(-(grid.nodes**2)))


def _bump_sum(rng: np.random.Generator, complex_phase: bool):
    """Three seeded Gaussian bumps, with seeded phases when complex_phase
    is set, as a closed-form function of r."""
    bumps = []
    for _ in range(3):
        a = rng.uniform(0.3, 1.0)
        center = rng.uniform(0.0, 6.0)
        width = rng.uniform(0.8, 2.5)
        phase = rng.uniform(0.0, 2 * np.pi) if complex_phase else 0.0
        bumps.append((a * np.exp(1j * phase), center, width))

    def f(r: np.ndarray) -> np.ndarray:
        return sum(amp * np.exp(-(((r - center) / width) ** 2)) for amp, center, width in bumps)

    return f


def check_pohozaev() -> list[CheckResult]:
    """Stationary identities at N = 4096 plus the refinement factor of the
    defects on the doublings from 4096 to 8192 and from 8192 to 16384."""
    rows = []
    for tag, params in STATIONARY_FIXTURES:
        t0 = time.perf_counter()
        gs = petviashvili_solve(params, grid=_grid(params.n, params.b, 4096))
        elapsed = time.perf_counter() - t0
        res = max(gs.pohozaev_res)
        rows.append(
            CheckResult(
                f"pohozaev_residual_{tag}",
                res < 1e-4 and elapsed < 10.0,
                res,
                1e-4,
                f"params {params.n},{params.b},{params.c},{params.p}; "
                f"solve {elapsed * 1e3:.1f} ms (< 10 s)",
            )
        )
        ladder = (
            (f"pohozaev_refinement_{tag}", gs, 8192),
            (f"pohozaev_refinement_16384_{tag}", _solve(params, 8192), 16384),
        )
        for name, coarse, N in ladder:
            fine = _solve(params, N)
            ratio = min(c / f for c, f in zip(coarse.pohozaev_res, fine.pohozaev_res))
            rows.append(
                CheckResult(
                    name,
                    ratio >= 3.5,
                    ratio,
                    3.5,
                    f"defect shrink factor from N = {N // 2} to {N} (must be >= bound)",
                )
            )
    return rows


def check_oracle_equivalence() -> list[CheckResult]:
    """Fixed-point versus shooting profiles in relative sup norm."""
    # The oracle imports its integrator on first use; load it before any
    # clock starts, so that each row times its own solve only.
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401

    rows = []
    for tag, params in STATIONARY_FIXTURES:
        gs = _solve(params, 4096)
        t0 = time.perf_counter()
        shot = shooting_solve(params, grid=gs.profile.grid)
        elapsed = time.perf_counter() - t0
        rel = float(
            np.max(np.abs(gs.profile.values.real - shot.values.real))
            / np.max(gs.profile.values.real)
        )
        rows.append(
            CheckResult(
                f"oracle_agreement_{tag}",
                rel < 1e-3,
                rel,
                1e-3,
                f"oracle {elapsed * 1e3:.1f} ms, {shot.shots} shots, "
                f"{shot.steps} accepted DOP853 steps",
            )
        )
    return rows


def check_k_annihilation() -> list[CheckResult]:
    """K^{alpha,beta} vanishes at the ground state, relative to L."""
    rows = []
    for tag, params in STATIONARY_FIXTURES:
        rep = _solve(params, 4096).report
        worst = 0.0
        for alpha, beta in ((1.0, 0.0), (float(params.n), 2.0), (2.0, 1.0), (3.0, 1.0)):
            worst = max(worst, abs(rep.k(alpha, beta)) / rep.L)
        rows.append(
            CheckResult(f"k_annihilation_{tag}", worst < 1e-4, worst, 1e-4,
                        "max |K|/L over the four index pairs")
        )
    return rows


def check_k_derivative() -> list[CheckResult]:
    """Finite difference of the action along scalings vs the closed form.

    Each datum is a closed-form function f of r, so the arc
    t e^{alpha lam} f(e^{beta lam} r) is evaluated exactly at the nodes
    and every point of it is integrated by the same quadrature.
    """
    params = F2
    grid = _grid(params.n, params.b, 4096)
    body = quadrature(grid, params, PotentialSpec.smooth_bump(0.5, 1.0))
    r = grid.nodes
    rng = np.random.default_rng(SEED)
    pairs = ((1.0, 0.0), (float(params.n), 2.0), (2.0, 1.0), (3.0, 1.0))
    h = 1e-3
    worst = 0.0
    for _ in range(20):
        f = _bump_sum(rng, complex_phase=True)
        vals = f(r)
        rep = body.report(vals)
        # Normalize so the nonlinear term sits at a fixed fraction of the
        # quadratic part; otherwise the h^2 truncation of the stencil can
        # dwarf a small K and break the relative comparison.
        t = (0.2 * (rep.grad_sq + rep.mass) / rep.nonlinear_term) ** (1.0 / params.p)
        rep = body.report(t * vals)
        for alpha, beta in pairs:

            def s_at(lam: float) -> float:
                return body.report(t * np.exp(alpha * lam) * f(np.exp(beta * lam) * r)).action

            # Fourth-order central stencil: the action is smooth in the
            # scaling parameter but its third derivative can dwarf K on
            # random data, so the plain second-order stencil stalls near
            # 1e-4 relative.
            fd = (8 * (s_at(h) - s_at(-h)) - (s_at(2 * h) - s_at(-2 * h))) / (12 * h)
            k = rep.k(alpha, beta)
            worst = max(worst, abs(fd - k) / abs(k))
    return [
        CheckResult(
            "k_derivative_fd",
            worst < 1e-5,
            worst,
            1e-5,
            "20 random fields x 4 index pairs, central difference h = 1e-3",
        )
    ]


def _gn_pair(params: ProblemParams, N: int) -> tuple[float, float]:
    """Measured interpolation ratio at Q and its closed form, one grid."""
    gs = _solve(params, N)
    b, p, pc = params.b, params.p, params.p_c
    mass_norm = gs.thresholds["mass_threshold"]
    closed = (pc / ((2 - b) * (p + 2) - pc)) ** (1 - pc / (2 * (2 - b))) * (
        (2 - b) * (p + 2) / (pc * mass_norm**p)
    )
    return gs.c_gn, closed


def check_gn_sharpness() -> list[CheckResult]:
    """The interpolation ratio peaks at Q and equals the closed form."""
    rows = []
    rng = np.random.default_rng(SEED)
    for tag, params in STATIONARY_FIXTURES:
        # The ratio/closed-form gap is first order in the grid defect,
        # which shrinks 4.0x per N doubling (measured by the
        # refinement check), so both sides are Richardson-extrapolated
        # to the continuum from the two finest grids.  The
        # perturbation scan below is defect-insensitive and runs on
        # the standard grid.
        (r4, c4), (r8, c8) = (_gn_pair(params, N) for N in (4096, 8192))
        r_ext = r8 + (r8 - r4) / 3.0
        c_ext = c8 + (c8 - c4) / 3.0
        rel = abs(r_ext - c_ext) / c_ext
        rows.append(
            CheckResult(f"gn_constant_{tag}", rel < 1e-6, rel, 1e-6,
                        f"ratio at Q {r_ext:.9g} vs closed form {c_ext:.9g}, "
                        "second order in 1/N from N = 4096, 8192")
        )
        gs = _solve(params, 4096)
        q = gs.profile
        r_q = gs.c_gn
        peak = np.max(np.abs(q.values))
        worst = -np.inf
        for _ in range(100):
            g = _bump_sum(rng, complex_phase=False)(q.grid.nodes).real
            eps = 0.01 * peak / np.max(np.abs(g))
            u = RadialField(q.grid, q.values.real + eps * g)
            worst = max(worst, gn_ratio(evaluate_all(u, params, _ZERO)) / r_q)
        rows.append(
            CheckResult(
                f"gn_maximality_{tag}",
                worst <= 1 + 1e-6,
                worst,
                1 + 1e-6,
                "max R(Q + eps g)/R(Q) over 100 perturbations",
            )
        )
    return rows


def check_conservation() -> list[CheckResult]:
    """Mass is scheme-exact; energy drifts at second order in dt."""
    params = F1
    grid = _grid(params.n, params.b, 2048)
    u0 = _gaussian(grid)
    drifts = {}
    mass_worst = 0.0
    for dt in (1e-3, 5e-4):
        cfg = EvolutionConfig(dt0=dt, t_end=1.0, sample_every=10, adaptivity=False)
        tr = evolve(u0, cfg, params, _ZERO)
        drifts[dt] = relative_drift([r.energy for r in tr.reports])
        mass_worst = max(mass_worst, relative_drift(tr.mass))
    ratio = drifts[1e-3] / drifts[5e-4]
    return [
        CheckResult("mass_conservation", mass_worst < _MASS_DRIFT, mass_worst, _MASS_DRIFT,
                    "relative drift, both step sizes"),
        CheckResult("energy_drift", drifts[1e-3] < 1e-6, drifts[1e-3], 1e-6,
                    "relative drift over t in [0,1] at dt = 1e-3"),
        CheckResult("energy_drift_order", 3.5 <= ratio <= 4.5, ratio, 4.5,
                    "drift ratio under dt halving, expected in [3.5, 4.5]"),
    ]


def check_virial_identity() -> list[CheckResult]:
    """Second derivative of the weighted variance against the virial."""
    rows = []
    for tag, params, tol in (
        ("b0", ProblemParams(3, 0.0, 0.0, 2.0, 1.0), 1e-2),
        ("bneg", F2, 2e-2),
    ):
        grid = _grid(params.n, params.b, 2048)
        u0 = _gaussian(grid)
        cfg = EvolutionConfig(dt0=1e-3, t_end=0.5, sample_every=5, adaptivity=False)
        tr = evolve(u0, cfg, params, _ZERO)
        defect = virial_check(tr, params)
        rows.append(CheckResult(f"virial_defect_{tag}", defect < tol, defect, tol,
                                f"mass drift {relative_drift(tr.mass):.2e}"))
    return rows


def check_standing_wave() -> list[CheckResult]:
    """The ground state evolves as a pure phase rotation."""
    params = STANDING
    gs = _solve(params, 2048)
    q = gs.profile.values.real
    peak = float(np.max(q))
    stepper = RelaxationStepper(gs.profile.grid, params, _ZERO)
    u = gs.profile.values
    rep = stepper.quadrature.report(u)
    virial_bound = 1e-3 * rep.grad_sq
    masses = [rep.mass]
    dev = p_worst = 0.0
    for k in range(1000):
        u = stepper.step(u, 1e-3)
        if (k + 1) % 10 == 0:
            rep = stepper.quadrature.report(u)
            dev = max(dev, float(np.max(np.abs(np.abs(u) - q)) / peak))
            p_worst = max(p_worst, abs(rep.virial))
            masses.append(rep.mass)
    drift = relative_drift(masses)
    return [
        CheckResult("standing_wave_modulus", dev < 1e-3, dev, 1e-3,
                    "sup over t in [0,1] of relative modulus deviation"),
        CheckResult("standing_wave_virial", p_worst < virial_bound, p_worst,
                    virial_bound, "sup |P(u(t))| vs 1e-3 grad norm sq"),
        CheckResult("standing_wave_mass", drift < _MASS_DRIFT, drift, _MASS_DRIFT),
    ]


def _dichotomy_row(
    name: str, params: ProblemParams, a: float, route: str, t_end: float, want: str
) -> CheckResult:
    """a times the reference ground state: verdict want on route and a flow
    that agrees, Completed with gradient growth below 2 or BlowupTriggered
    with a concave trailing variance, at a mass drift below _MASS_DRIFT."""
    gs = _solve(params, 4096)
    u0 = _scaled(gs, a)
    verdict = classify_all(u0, params, _ZERO, gs).entry(route).verdict
    tr = evolve(u0, EvolutionConfig(dt0=1e-3, t_end=t_end, sample_every=10), params, _ZERO)
    (event, t), drift = tr.events[-1], relative_drift(tr.mass)
    if want == GLOBAL_CANDIDATE:
        flow, measured, bound = "Completed", tr.grad_growth, 2.0
        what = f"gradient growth over t in [0,{t_end:g}]"
    else:
        flow, measured, bound = "BlowupTriggered", variance_concavity(tr), 0.0
        what = "largest trailing variance second difference (must be < 0)"
    ok = verdict == want and event == flow and drift < _MASS_DRIFT and measured < bound
    return CheckResult(name, ok, measured, bound, f"verdict {verdict}, event {event} "
                       f"at t = {t:.4f}, {what}, mass drift {drift:.2e}")


def check_dichotomy() -> list[CheckResult]:
    """Sub/super-threshold data complete or trigger as the theorems say."""
    mc, ic = "mass_critical_threshold", "intercritical_threshold"
    return [
        _dichotomy_row("mass_critical_global", MASS_CRITICAL, 0.9, mc, 5.0, GLOBAL_CANDIDATE),
        _dichotomy_row("mass_critical_blowup", MASS_CRITICAL, 1.2, mc, 5.0, BLOWUP_CANDIDATE),
        _dichotomy_row("intercritical_05Q", F1, 0.5, ic, 2.0, GLOBAL_CANDIDATE),
        _dichotomy_row("intercritical_15Q", F1, 1.5, ic, 2.0, BLOWUP_CANDIDATE),
    ]


def check_frequency_scaling() -> list[CheckResult]:
    """Action scaling in omega, stationarity of f, gate equivalence."""
    rows = []
    gs1 = _solve(F1, 4096)
    worst = 0.0
    for w in (0.5, 2.0):
        gsw = _solve(F1.with_omega(w), 4096)
        want = gs1.min_action(w)
        worst = max(worst, abs(gsw.m_omega - want) / want)
    rows.append(
        CheckResult("action_frequency_scaling", worst < 1e-3, worst, 1e-3,
                    "minimal action vs omega^kappa law at omega in {0.5, 2}")
    )

    u0 = _scaled(gs1, 0.5)
    fr = optimal_frequency(u0, F1, gs1)
    rep = evaluate_all(u0, F1, _ZERO)

    def f(w: float) -> float:
        return gs1.min_action(w) - (rep.energy + 0.5 * w * rep.mass)

    h = 1e-4 * fr.omega0
    fd = abs(f(fr.omega0 + h) - f(fr.omega0 - h)) / (2 * h)
    tol = 1e-6 * abs(fr.f_omega0) / fr.omega0
    rows.append(CheckResult("frequency_stationarity", fd < tol, fd, tol))

    rng = np.random.default_rng(SEED)
    r = gs1.profile.grid.nodes
    agreements = 0
    for i in range(20):
        if i % 2 == 0:
            u = _scaled(gs1, rng.uniform(0.2, 0.95))
        else:
            amp = rng.uniform(0.3, 0.6)
            u = RadialField(
                gs1.profile.grid,
                gs1.profile.values * (1.0 + amp * np.cos(40.0 * r)),
            )
        fr_i = optimal_frequency(u, F1, gs1)  # raises if directions disagree
        if not fr_i.near_boundary:
            agreements += 1
    rows.append(
        CheckResult(
            "frequency_gate_equivalence",
            agreements == 20,
            float(agreements),
            20.0,
            f"20 constructed data sets, {20 - agreements} inside the dead band",
        )
    )
    return rows


def check_assumption_checker() -> list[CheckResult]:
    """The three potential verdict patterns the checker must produce."""
    params = F2
    rows = []
    rep = check_assumptions(_ZERO, params)
    all_hold = all(v.holds for v in rep.verdicts().values())
    rows.append(
        CheckResult(
            "assumptions_zero",
            all_hold and rep.omega1 == 0.0,
            rep.omega1,
            0.0,
            "(I)-(IV) must all hold with omega1 = 0",
        )
    )
    rep = check_assumptions(PotentialSpec.inverse_power(1.0, 2 - params.b), params)
    rows.append(
        CheckResult(
            "assumptions_inverse_power",
            rep.holds_II.status == "Fails" and rep.holds_II.witness is not None,
            0.0 if rep.holds_II.status == "Fails" else 1.0,
            0.0,
            f"(II) {rep.holds_II.status}: {rep.holds_II.note}",
        )
    )
    rep = check_assumptions(PotentialSpec.const_plus_gaussian(1.0), params)
    w = rep.holds_IV.witness
    ok = rep.holds_IV.status == "Fails" and w is not None and w**2 > 2 - params.b / 2
    rows.append(
        CheckResult(
            "assumptions_const_gaussian",
            ok,
            float(w**2) if w is not None else -1.0,
            2 - params.b / 2,
            "(IV) witness radius squared must exceed 2 - b/2",
        )
    )
    return rows


def check_nminus_flow() -> list[CheckResult]:
    """The negative-K set is preserved along the flow until the trigger."""
    gs = _solve(NMINUS, 4096)
    u0 = _scaled(gs, 1.3)

    entry = classify_all(u0, NMINUS, _ZERO, gs, 1.0).entry("action_set_membership")
    gap = {e.name: e for e in entry.evidence}["k_gap_bound"]
    rows = [
        CheckResult(
            "nminus_membership",
            entry.verdict == "BlowupCandidate" and gap.lhs <= gap.rhs,
            gap.lhs - gap.rhs,
            0.0,
            f"verdict {entry.verdict}; gap bound K - bound must be <= 0",
        )
    ]

    cfg = EvolutionConfig(dt0=1e-3, t_end=3.0, sample_every=20, blowup_factor=10.0)
    tr = evolve(u0, cfg, NMINUS, _ZERO)
    k = np.array([r.k(NMINUS.n, 2) for r in tr.reports])
    triggered = tr.events[-1][0] == "BlowupTriggered"
    drift = relative_drift(tr.mass)
    rows.append(
        CheckResult(
            "nminus_flow_invariance",
            triggered and bool((k < 0).all()) and drift < _MASS_DRIFT,
            float(k.max()),
            0.0,
            f"event {tr.events[-1][0]} at t = {tr.events[-1][1]:.4f}, "
            f"{len(k)} samples, max K^{{n,2}} (must stay < 0), "
            f"mass drift {drift:.2e}",
        )
    )
    return rows


CRITERIA: tuple[tuple[str, object], ...] = (
    ("pohozaev", check_pohozaev),
    ("oracle_equivalence", check_oracle_equivalence),
    ("k_annihilation", check_k_annihilation),
    ("k_derivative", check_k_derivative),
    ("gn_sharpness", check_gn_sharpness),
    ("conservation", check_conservation),
    ("virial_identity", check_virial_identity),
    ("standing_wave", check_standing_wave),
    ("dichotomy", check_dichotomy),
    ("frequency_scaling", check_frequency_scaling),
    ("assumption_checker", check_assumption_checker),
    ("nminus_flow", check_nminus_flow),
)


def run_all() -> list[CheckResult]:
    """Every criterion; an exception inside one becomes a failed row."""
    out: list[CheckResult] = []
    for name, fn in CRITERIA:
        try:
            out.extend(fn())
        except Exception as e:  # a crashed check must fail, not abort the suite
            out.append(
                CheckResult(name, False, float("nan"), 0.0, f"{type(e).__name__}: {e}")
            )
    return out
