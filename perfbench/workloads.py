"""The four benchmark workloads: inputs from a seed, operations, checks.

Each workload's ``setup(rng)`` builds every input (grids, reference
ground states, data, config files) and returns the list of operations
of one pass.  An operation is a closure that runs one public call of
inls_lab (or one CLI process) and checks its output.  It signals:

* ``Broken``     - the call returned, but its output fails a check;
* ``Deadline``   - a CLI process hit its deadline and was killed;
* any exception raised by the library (a refusal such as
  ``NonConvergence``), which counts as a failed operation.

Only names the library keeps as public API are called: the top-level
``inls_lab`` exports, ``groundstate.derive_thresholds``,
``classify.optimal_frequency`` and the ``inls-lab`` CLI.  Calls go
through module attributes at call time, so a traced run sees them.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inls_lab as L

# Parameter sets (n, b, c, p) shared with the library's acceptance
# registry; redeclared here so that the benchmark does not depend on
# that registry's internals.
FIXTURES = {
    "F1": (3, 0.0, 0.0, 2.0),
    "F2": (3, -0.5, -0.5, 2.0),
    "F3": (4, -1.0, -1.0, 2.5),
    "MC": (3, 0.0, 0.0, 4.0 / 3.0),
    "NMINUS": (3, -0.5, -0.6, 1.5),
}
INTERCRITICAL = ("F1", "F2", "F3", "NMINUS")
R_MAX = 30.0
MASS_DRIFT_BOUND = 1e-12
ORACLE_GAP_BOUND = 1e-3
COMPLETED = "Completed"
COLLAPSE_EVENTS = ("BlowupTriggered", "StepFloorHit")
VERDICTS = ("GlobalCandidate", "BlowupCandidate", "NotApplicable", "Undetermined")


class Broken(Exception):
    """An operation returned an output that fails the benchmark's check."""


class Deadline(Exception):
    """A CLI process was killed at its deadline; charged at the deadline."""

    def __init__(self, seconds: float, what: str):
        super().__init__(f"{what} still running at its {seconds:g} s deadline")
        self.seconds = seconds


@dataclass
class Op:
    id: str
    kind: str
    run: Callable[[], None]


def params(name: str, omega: float = 1.0):
    n, b, c, p = FIXTURES[name]
    return L.ProblemParams(n, b, c, p, omega)


def grid(name: str, N: int, grading: float = 2.0):
    n, b, _, _ = FIXTURES[name]
    return L.build_grid(n, b, r_max=R_MAX, N=N, grading=grading)


def scaled(gs, alpha: float):
    return L.RadialField(gs.profile.grid, alpha * gs.profile.values)


def strata(rng, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal sub-intervals of [lo, hi]."""
    width = (hi - lo) / k
    return [float(lo + (i + rng.uniform()) * width) for i in range(k)]


def mass_drift(trace) -> float:
    m = np.asarray(trace.mass)
    return float(np.max(np.abs(m - m[0])) / m[0])


def check_march(trace, want: tuple[str, ...]) -> None:
    kind = trace.events[-1][0]
    if kind not in want:
        raise Broken(f"event {kind}, expected one of {want}")
    drift = mass_drift(trace)
    if not drift < MASS_DRIFT_BOUND:
        raise Broken(f"mass drift {drift:.3e} >= {MASS_DRIFT_BOUND:g}")


# ---------------------------------------------------------------------------
# stationary


def setup_stationary(rng) -> list[Op]:
    zero = L.PotentialSpec.zero()
    bump = L.PotentialSpec.smooth_bump(0.4, 2.0)

    grids = {(f, N): grid(f, N) for f in FIXTURES for N in (4096, 16384)}
    grids[("F1", 65536)] = grid("F1", 65536)
    ref = {f: L.petviashvili_solve(params(f), grid=grids[(f, 4096)]) for f in FIXTURES}
    fine = {
        f: L.petviashvili_solve(params(f), grid=grids[(f, 16384)])
        for f in ("F1", "F2", "MC", "NMINUS")
    }

    ops: list[Op] = []

    def solve_op(f: str, N: int, omega: float) -> Op:
        p = params(f, omega)
        g = grids[(f, N)]

        def run():
            gs = L.petviashvili_solve(p, grid=g)
            if not (gs.residual < 1e-8 and max(gs.pohozaev_res) < 1e-4):
                raise Broken(f"returned residual {gs.residual:.3e}, Pohozaev {gs.pohozaev_res}")

        return Op(f"gs/{f}/N{N}/w{omega:.4f}", "gs_solve", run)

    # Seeded frequencies sit in two narrow bands at the ends of [0.5, 2]:
    # the iteration count depends on omega, and wide draws would make the
    # solve times depend on the seed more than on the code.
    for f in FIXTURES:
        for N in (4096, 16384):
            ops.append(solve_op(f, N, 1.0))
            ops.append(solve_op(f, N, float(rng.uniform(0.50, 0.55))))
            ops.append(solve_op(f, N, float(rng.uniform(1.90, 2.00))))
    ops.append(solve_op("F1", 65536, 1.0))

    def thresholds_op(f: str) -> Op:
        gs, p = fine[f], params(f)

        def run():
            th = L.groundstate.derive_thresholds(gs, p)
            keys = ("mass_threshold",) if f == "MC" else ("mass_threshold", "em_sigma", "grad_mass")
            for k in keys:
                v = th[k]
                if v is None or not (np.isfinite(v) and v > 0):
                    raise Broken(f"threshold {k} = {v}")

        return Op(f"thresholds/{f}", "thresholds", run)

    ops.extend(thresholds_op(f) for f in fine)

    def classify_op(f: str, label: str, u0, expect: str | None) -> Op:
        p, gs1 = params(f), ref[f]
        route = 0 if f == "MC" else 1  # the route whose theorem covers f

        def run():
            for spec in (zero, bump):
                entries = L.classify_all(u0, p, spec, gs1).entries
                for e in entries:
                    if e.verdict not in VERDICTS:
                        raise Broken(f"unknown verdict {e.verdict!r}")
                if spec is zero and expect is not None and entries[route].verdict != expect:
                    raise Broken(f"{entries[route].theorem}: {entries[route].verdict}, want {expect}")
                if f in INTERCRITICAL:
                    rep = L.classify.optimal_frequency(u0, p, gs1, spec)
                    if not (np.isfinite(rep.omega0) and rep.omega0 > 0):
                        raise Broken(f"omega0 = {rep.omega0}")

        return Op(f"classify/{f}/{label}", "classify", run)

    for f in FIXTURES:
        g = grids[(f, 4096)]
        alphas = strata(rng, 0.2, 0.9, 2) + strata(rng, 1.1, 1.8, 2)
        for a in alphas:
            want = "GlobalCandidate" if a < 1 else "BlowupCandidate"
            ops.append(classify_op(f, f"{a:.4f}Q", scaled(ref[f], a), want))
        for k in range(2):
            ops.append(classify_op(f, f"bumps{k}", L.RadialField(g, bump_sum(rng, g)), None))

    def oracle_op(f: str) -> Op:
        p, gs, g = params(f), ref[f], grids[(f, 4096)]

        def run():
            q = L.shooting_solve(p, grid=g)
            want = gs.profile.values.real
            gap = float(np.max(np.abs(q.values - want)) / np.max(want))
            if not gap < ORACLE_GAP_BOUND:
                raise Broken(f"oracle gap {gap:.3e} >= {ORACLE_GAP_BOUND:g}")

        return Op(f"oracle/{f}", "oracle", run)

    ops.extend(oracle_op(f) for f in INTERCRITICAL)
    return ops


def bump_sum(rng, g) -> np.ndarray:
    """Three real Gaussian bumps at seeded centres, widths and heights."""
    r = g.nodes
    vals = np.zeros(g.N)
    for _ in range(3):
        a = rng.uniform(0.3, 1.0)
        center = rng.uniform(0.0, 6.0)
        width = rng.uniform(0.8, 2.5)
        vals += a * np.exp(-(((r - center) / width) ** 2))
    return vals


# ---------------------------------------------------------------------------
# flow workloads


def march_op(label: str, u0, cfg, p, want: tuple[str, ...]) -> Op:
    zero = L.PotentialSpec.zero()

    def run():
        check_march(L.evolve(u0, cfg, p, zero), want)

    return Op(f"march/{label}", "march", run)


def setup_flow_steady(rng) -> list[Op]:
    ops = []
    g2 = grid("F1", 2048)
    fixed = L.EvolutionConfig(dt0=1e-3, t_end=1.0, sample_every=10, adaptivity=False)
    for k in range(2):
        amp = float(rng.uniform(0.6, 1.0))
        width = float(rng.uniform(0.8, 1.2))
        u0 = L.RadialField(g2, amp * np.exp(-((g2.nodes / width) ** 2)))
        ops.append(march_op(f"gauss{k}/F1/a{amp:.4f}/w{width:.4f}", u0, fixed, params("F1"), (COMPLETED,)))
    adaptive = L.EvolutionConfig(dt0=1e-3, t_end=1.0, sample_every=10)
    for f in ("F1", "MC"):
        gs = L.petviashvili_solve(params(f), grid=grid(f, 4096))
        for a in strata(rng, 0.3, 0.9, 2):
            ops.append(march_op(f"{f}/{a:.4f}Q", scaled(gs, a), adaptive, params(f), (COMPLETED,)))
    return ops


def setup_flow_collapse(rng) -> list[Op]:
    from scipy.interpolate import CubicSpline

    ops = []
    gs = {f: L.petviashvili_solve(params(f), grid=grid(f, 4096)) for f in ("MC", "F1", "NMINUS")}
    # Collapse costs grow steeply towards alpha = 1 (MC 1.1Q takes ~5000
    # samples, 2.0Q ~1000), so the draws sit in narrow bands to keep each
    # operation's cost independent of the seed.
    draws = [
        ("MC", float(rng.uniform(1.70, 1.72)), 2),
        ("MC", float(rng.uniform(1.95, 2.00)), 2),
        ("F1", float(rng.uniform(1.20, 1.25)), 1),
        ("F1", float(rng.uniform(1.60, 1.65)), 1),
        ("F1", 2.0, 2),
    ]
    for f, a, every in draws:
        cfg = L.EvolutionConfig(dt0=1e-3, t_end=5.0, sample_every=every)
        ops.append(march_op(f"{f}/{a:.4f}Q/every{every}", scaled(gs[f], a), cfg, params(f), COLLAPSE_EVENTS))

    # c < 0: resample the graded-mesh ground state onto a uniform mesh,
    # where the phase cap binds.
    q = gs["NMINUS"].profile
    uni = grid("NMINUS", 2048, grading=1.0)
    spline = CubicSpline(q.grid.nodes, q.values.real, extrapolate=True)
    u0 = L.RadialField(uni, 1.3 * np.clip(spline(uni.nodes), 0.0, None))
    cfg = L.EvolutionConfig(dt0=1e-3, t_end=3.0, sample_every=2, blowup_factor=10.0)
    ops.append(march_op("NMINUS/1.3Q/uniform/every2", u0, cfg, params("NMINUS"), COLLAPSE_EVENTS))
    return ops


# ---------------------------------------------------------------------------
# cli


CRAWL_DEADLINE_S = 1.5  # evolve of a c < 0 ground-state multiple on the graded mesh
CLI_DEADLINE_S = 60.0  # any other command

F1_LINES = ["params.n = 3", "params.b = 0", "params.c = 0", "params.p = 2", "grid.N = 4096"]
F2_LINES = ["params.n = 3", "params.b = -0.5", "params.c = -0.5", "params.p = 2"]


class CliRunner:
    """Starts ``python -m inls_lab.cli`` processes and checks their outputs."""

    def __init__(self, work: str, src: str, all_cpus: set[int]):
        self.work = work
        self.all_cpus = all_cpus
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src
        self.bytes_written: dict[str, int] = {}
        self.sweep_summary: bytes | None = None

    def write_config(self, name: str, lines: list[str]) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def spawn(self, args: list[str], deadline: float, what: str, all_cpus=False) -> None:
        """Run one process in its own session; kill the session at the deadline.

        Children inherit the benchmark's single CPU unless all_cpus is set.
        """
        cpus = self.all_cpus
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if all_cpus else None,
        )
        try:
            _, err = proc.communicate(timeout=deadline)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise Deadline(deadline, what) from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise Broken(f"{what} exited {proc.returncode}: {err.decode()[-300:]}")

    def command(self, label: str, sub: str, cfg: str, extra=(), deadline=CLI_DEADLINE_S,
                all_cpus=False) -> str:
        out = os.path.join(self.work, "out", label)
        shutil.rmtree(out, ignore_errors=True)
        self.spawn(["-m", "inls_lab.cli", sub, "--config", cfg, "--out", out, *extra],
                   deadline, label, all_cpus)
        with open(os.path.join(out, "manifest.json")) as fh:
            declared = json.load(fh)["outputs"]
        for name in declared:
            if not os.path.isfile(os.path.join(out, name)):
                raise Broken(f"{label}: declared output {name} missing")
        self.bytes_written[label] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out) for f in fs
        )
        return out


def read_events(out: str) -> list[str]:
    with open(os.path.join(out, "trace.events.json")) as fh:
        return [e["kind"] for e in json.load(fh)["events"]]


def csv_mass_drift(out: str) -> float:
    with open(os.path.join(out, "trace.csv")) as fh:
        mass = np.array([float(row["mass"]) for row in csv.DictReader(fh)])
    return float(np.max(np.abs(mass - mass[0])) / mass[0])


def check_evolve_dir(out: str, want: tuple[str, ...]) -> None:
    kind = read_events(out)[-1]
    if kind not in want:
        raise Broken(f"event {kind}, expected one of {want}")
    drift = csv_mass_drift(out)
    if not drift < MASS_DRIFT_BOUND:
        raise Broken(f"mass drift {drift:.3e} >= {MASS_DRIFT_BOUND:g}")


def setup_cli(rng, work: str, src: str, all_cpus: set[int]) -> tuple[list[Op], CliRunner]:
    os.makedirs(work, exist_ok=True)
    cli = CliRunner(work, src, all_cpus)

    a_cls = float(rng.uniform(0.3, 0.9))
    bump_a = float(rng.uniform(0.2, 1.0))
    amp = float(rng.uniform(0.9, 1.0))  # the phase cap, hence the cost, grows with it
    sweep_alphas = strata(rng, 0.3, 0.9, 2) + [float(rng.uniform(1.2, 1.6)), 2.0]
    stationary = cli.write_config("stationary.cfg", F1_LINES + [
        f"initial.alpha = {a_cls!r}",
        "potential.family = smooth_bump", f"potential.a = {bump_a!r}", "potential.s = 2.0",
    ])
    groundstate = cli.write_config("groundstate.cfg", F1_LINES)
    evolve_graded = cli.write_config("evolve.cfg", F1_LINES + [
        "initial.alpha = 0.5", "evolve.t_end = 0.2",
    ])
    evolve_uniform = cli.write_config("evolve_uniform.cfg", F2_LINES + [
        "grid.N = 2048", "grid.gamma = 1.0", "initial.kind = gaussian",
        f"initial.amplitude = {amp!r}", "evolve.t_end = 0.2",
    ])
    crawl = cli.write_config("crawl.cfg", F2_LINES + [
        "grid.N = 4096", "initial.kind = ground_state_multiple",
        "initial.alpha = 0.5", "evolve.t_end = 0.2",
    ])
    sweep = cli.write_config("sweep.cfg", F1_LINES + [
        "evolve.t_end = 0.2", "sweep.key = initial.alpha",
        "sweep.values = " + ", ".join(repr(a) for a in sweep_alphas),
    ])

    def op_import():
        cli.spawn(["-c", "import inls_lab.cli"], CLI_DEADLINE_S, "import")

    def op_check_potential():
        out = cli.command("check-potential", "check-potential", stationary)
        with open(os.path.join(out, "assumptions.json")) as fh:
            if not {"I", "II", "III", "IV", "omega1"} <= set(json.load(fh)):
                raise Broken("assumptions.json lacks a verdict")

    def op_groundstate():
        out = cli.command("groundstate", "groundstate", groundstate)
        with open(os.path.join(out, "groundstate.json")) as fh:
            res = json.load(fh)["residual"]
        if not res < 1e-8:
            raise Broken(f"groundstate residual {res:.3e}")

    def op_classify():
        out = cli.command("classify", "classify", stationary)
        with open(os.path.join(out, "classification.json")) as fh:
            verdicts = [e["verdict"] for e in json.load(fh)]
        if any(v not in VERDICTS for v in verdicts):
            raise Broken(f"verdicts {verdicts}")

    def op_evolve():
        check_evolve_dir(cli.command("evolve", "evolve", evolve_graded), (COMPLETED,))

    def op_evolve_uniform():
        check_evolve_dir(cli.command("evolve_uniform", "evolve", evolve_uniform), (COMPLETED,))

    def op_crawl():
        check_evolve_dir(
            cli.command("evolve_crawl", "evolve", crawl, deadline=CRAWL_DEADLINE_S), (COMPLETED,)
        )

    def sweep_rows(out: str) -> bytes:
        with open(os.path.join(out, "summary.csv"), "rb") as fh:
            text = fh.read()
        rows = list(csv.DictReader(text.decode().splitlines()))
        if len(rows) != len(sweep_alphas):
            raise Broken(f"summary has {len(rows)} rows")
        for row, a in zip(rows, sweep_alphas):
            want = (COMPLETED,) if a < 1 else COLLAPSE_EVENTS
            if row["event"] not in want:
                raise Broken(f"sweep alpha {a}: event {row['event']}")
        return text

    def op_sweep1():
        cli.sweep_summary = None
        cli.sweep_summary = sweep_rows(cli.command("sweep_jobs1", "sweep", sweep, ("--jobs", "1")))

    def op_sweep2():
        text = sweep_rows(
            cli.command("sweep_jobs2", "sweep", sweep, ("--jobs", "2"), all_cpus=True)
        )
        if cli.sweep_summary is not None and text != cli.sweep_summary:
            raise Broken("summary.csv differs between --jobs 1 and --jobs 2")

    # The sweeps are the slowest commands and set op_tail_s; first in the
    # pass, they get a third sample in a run of 2.3 to 2.8 passes.
    ops = [
        Op("sweep_jobs1", "cli_cmd", op_sweep1),
        Op("sweep_jobs2", "cli_cmd", op_sweep2),
        Op("import", "import", op_import),
        Op("check-potential", "cli_cmd", op_check_potential),
        Op("groundstate", "cli_cmd", op_groundstate),
        Op("classify", "cli_cmd", op_classify),
        Op("evolve", "cli_cmd", op_evolve),
        Op("evolve_uniform", "cli_cmd", op_evolve_uniform),
        Op("evolve_crawl", "cli_cmd", op_crawl),
    ]
    return ops, cli


# The operation kind behind op_s and op_tail_s of each workload.
PRIMARY = {
    "stationary": "gs_solve",
    "flow_steady": "march",
    "flow_collapse": "march",
    "cli": "cli_cmd",
}


def setup(name: str, rng, work: str, src: str, all_cpus: set[int]):
    """Inputs of one workload; returns (ops, cli runner or None)."""
    if name == "stationary":
        return setup_stationary(rng), None
    if name == "flow_steady":
        return setup_flow_steady(rng), None
    if name == "flow_collapse":
        return setup_flow_collapse(rng), None
    return setup_cli(rng, work, src, all_cpus)
