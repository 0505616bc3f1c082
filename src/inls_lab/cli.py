"""Batch front end: config files, subcommands, file outputs.

Config files are flat key = value text with # comments and dotted
section prefixes (grid.N = 4096).  Numeric bulk output is CSV, scalar
summaries are JSON, and every command writes a manifest recording the
config hash, the grid, and the library versions, so a run can be
reproduced from its output directory alone.

Exit codes: 0 success, 1 module error, 2 config error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy

from . import __version__
from .classify import NOT_APPLICABLE, ClassificationEntry, classify_all
from .evolve import EvolutionConfig, evolve, trace_to_csv
from .grid import RadialField, RadialGrid, build_grid, field_from_csv, field_to_csv
from .groundstate import GroundState, petviashvili_solve
from .params import ProblemParams
from .potential import PotentialSpec, check_assumptions


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


_REQUIRED = object()

_INITIAL_KINDS = ("ground_state_multiple", "gaussian", "from_file")


class _ConfigView:
    """Typed access to parsed key-value pairs with line diagnostics."""

    def __init__(self, pairs: dict[str, tuple[str, int]]):
        self.pairs = pairs
        self.used: set[str] = set()

    def _raw(self, key: str, default):
        if key in self.pairs:
            self.used.add(key)
            return self.pairs[key][0]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def error(self, message: str, *keys: str) -> ConfigError:
        """A ConfigError that names the lines of those keys the config sets."""
        lines = sorted({self.pairs[k][1] for k in keys if k in self.pairs})
        if not lines:
            return ConfigError(message)
        label = "line" if len(lines) == 1 else "lines"
        return ConfigError(f"{label} {', '.join(map(str, lines))}: {message}")

    def section(self, prefix: str) -> list[str]:
        """The keys of one section (prefix ends in '.') that the config sets."""
        return [k for k in self.pairs if k.startswith(prefix)]

    def get_str(self, key: str, default=_REQUIRED) -> str:
        return self._raw(key, default)

    def get_float(self, key: str, default=_REQUIRED) -> float:
        v = self._raw(key, default)
        if isinstance(v, float):
            return v
        try:
            return float(v)
        except ValueError:
            raise self.error(f"key {key!r} expects a number, got {v!r}", key) from None

    def get_finite(self, key: str, default=_REQUIRED) -> float:
        v = self.get_float(key, default)
        if not math.isfinite(v):
            raise self.error(f"{key} must be finite, got {v}", key)
        return v

    def get_int(self, key: str, default=_REQUIRED) -> int:
        v = self._raw(key, default)
        if isinstance(v, int):
            return v
        try:
            return int(v)
        except ValueError:
            raise self.error(f"key {key!r} expects an integer, got {v!r}", key) from None

    def get_bool(self, key: str, default=_REQUIRED) -> bool:
        v = self._raw(key, default)
        if isinstance(v, bool):
            return v
        low = v.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise self.error(f"key {key!r} expects true/false, got {v!r}", key)

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.pairs) - self.used)
        if unknown:
            raise self.error(f"unknown key {unknown[0]!r}", unknown[0])


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """Parse flat key = value lines into {key: (value, line_number)}."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first on line {pairs[key][1]})"
            )
        pairs[key] = (value, lineno)
    return pairs


def config_hash(pairs: dict[str, tuple[str, int]]) -> str:
    """Order- and comment-insensitive digest of the parsed pairs."""
    canon = "\n".join(f"{k}={v}" for k, (v, _) in sorted(pairs.items()))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration of one run."""

    params: ProblemParams
    potential: PotentialSpec
    r_max: float
    num_cells: int
    grading: float
    initial_kind: str
    initial_alpha: float
    initial_amplitude: float
    initial_width: float
    initial_path: str | None
    evolution: EvolutionConfig
    classify_omega: float | None  # None selects the optimized frequency
    sweep_key: str | None
    sweep_values: tuple[str, ...]
    out_dir: str
    sha: str


def build_run_config(pairs: dict[str, tuple[str, int]]) -> RunConfig:
    view = _ConfigView(pairs)
    try:
        params = ProblemParams(
            n=view.get_int("params.n"),
            b=view.get_float("params.b"),
            c=view.get_float("params.c"),
            p=view.get_float("params.p"),
            omega=view.get_float("params.omega", 1.0),
        )
    except ValueError as e:
        raise view.error(f"params: {e}", *view.section("params.")) from None

    family = view.get_str("potential.family", "zero")
    try:
        potential = PotentialSpec(
            family,
            view.get_float("potential.a", 0.0),
            view.get_float("potential.s", 0.0 if family != "inverse_power" else 1.0),
        )
    except ValueError as e:
        raise view.error(f"potential: {e}", *view.section("potential.")) from None

    kind = view.get_str("initial.kind", "ground_state_multiple")
    if kind not in _INITIAL_KINDS:
        raise view.error(
            f"initial.kind must be one of {_INITIAL_KINDS}, got {kind!r}", "initial.kind"
        )
    alpha = view.get_finite("initial.alpha", 1.0)
    if not alpha > 0:
        raise view.error(f"initial.alpha must be positive, got {alpha}", "initial.alpha")
    amplitude = view.get_finite("initial.amplitude", 1.0)
    width = view.get_finite("initial.width", 1.0)
    if not width > 0:
        raise view.error(f"initial.width must be positive, got {width}", "initial.width")
    path = view.get_str("initial.path", None)
    if kind == "from_file":
        if path is None:
            raise view.error("initial.kind = from_file requires initial.path", "initial.kind")
        if not os.path.exists(path):
            raise view.error(f"initial.path does not exist: {path}", "initial.path")

    try:
        evolution = EvolutionConfig(
            dt0=view.get_float("evolve.dt0", 1e-3),
            t_end=view.get_float("evolve.t_end", 1.0),
            sample_every=view.get_int("evolve.sample_every", 10),
            blowup_factor=view.get_float("evolve.blowup_factor", 100.0),
            dt_min=view.get_float("evolve.dt_min", 1e-9),
            adaptivity=view.get_bool("evolve.adaptivity", True),
        )
    except RuntimeError as e:
        raise view.error(f"evolve: {e}", *view.section("evolve.")) from None

    omega_raw = view.get_str("classify.omega", "optimal")
    classify_omega: float | None
    if omega_raw == "optimal":
        classify_omega = None
    else:
        try:
            classify_omega = float(omega_raw)
        except ValueError:
            raise view.error(
                f"classify.omega expects 'optimal' or a number, got {omega_raw!r}",
                "classify.omega",
            ) from None
        if not classify_omega > 0:
            raise view.error(
                f"classify.omega must be positive, got {classify_omega}", "classify.omega"
            )

    sweep_key = view.get_str("sweep.key", None)
    sweep_raw = view.get_str("sweep.values", None)
    sweep_values: tuple[str, ...] = ()
    if sweep_raw is not None:
        sweep_values = tuple(s.strip() for s in sweep_raw.split(",") if s.strip())
        if not sweep_values:
            raise view.error("sweep.values is empty", "sweep.values")

    cfg = RunConfig(
        params=params,
        potential=potential,
        r_max=view.get_float("grid.r_max", 30.0),
        num_cells=view.get_int("grid.N", 4096),
        grading=view.get_float("grid.gamma", 2.0),
        initial_kind=kind,
        initial_alpha=alpha,
        initial_amplitude=amplitude,
        initial_width=width,
        initial_path=path,
        evolution=evolution,
        classify_omega=classify_omega,
        sweep_key=sweep_key,
        sweep_values=sweep_values,
        out_dir=view.get_str("output.dir", "out"),
        sha=config_hash(pairs),
    )
    view.reject_unknown()
    return cfg


def _read_config(path: str) -> dict[str, tuple[str, int]]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text)


def _make_grid(cfg: RunConfig) -> RadialGrid:
    return build_grid(
        cfg.params.n, cfg.params.b, r_max=cfg.r_max, N=cfg.num_cells, grading=cfg.grading
    )


def build_initial(cfg: RunConfig, grid: RadialGrid, gs: GroundState | None = None) -> RadialField:
    """Construct the initial datum declared by the config.

    gs, when given, is the ground state of cfg.params on grid; it spares
    the solve of a ground-state multiple.
    """
    if cfg.initial_kind == "ground_state_multiple":
        if gs is None:
            gs = petviashvili_solve(cfg.params, grid=grid)
        return RadialField(grid, cfg.initial_alpha * gs.profile.values)
    if cfg.initial_kind == "gaussian":
        vals = cfg.initial_amplitude * np.exp(-((grid.nodes / cfg.initial_width) ** 2))
        return RadialField(grid, vals)
    return field_from_csv(grid, cfg.initial_path)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(cfg: RunConfig, command: str, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config_sha256": cfg.sha,
        "grid": {
            "r_max": cfg.r_max,
            "N": cfg.num_cells,
            "gamma": cfg.grading,
            "n": cfg.params.n,
            "b": cfg.params.b,
        },
        "versions": {
            "inls-lab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)


def cmd_groundstate(cfg: RunConfig) -> int:
    grid = _make_grid(cfg)
    gs = petviashvili_solve(cfg.params, grid=grid)
    os.makedirs(cfg.out_dir, exist_ok=True)
    field_to_csv(gs.profile, os.path.join(cfg.out_dir, "profile.csv"))
    _write_json(os.path.join(cfg.out_dir, "groundstate.json"), gs.as_dict())
    write_manifest(cfg, "groundstate", ["profile.csv", "groundstate.json"])
    print(f"groundstate: residual {gs.residual:.3e}, action {gs.m_omega:.12g}")
    return 0


def cmd_check_potential(cfg: RunConfig) -> int:
    report = check_assumptions(cfg.potential, cfg.params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "assumptions.json"), report.as_dict())
    write_manifest(cfg, "check-potential", ["assumptions.json"])
    for name, verdict in report.verdicts().items():
        print(f"({name}): {verdict.status}")
    print(f"omega1 = {report.omega1:.12g}")
    return 0


def headline_verdict(entries: list[ClassificationEntry]) -> str:
    """First applicable verdict in route order, else NotApplicable."""
    for e in entries:
        if e.verdict != NOT_APPLICABLE:
            return e.verdict
    return NOT_APPLICABLE


def _reference_and_initial(cfg: RunConfig, grid: RadialGrid) -> tuple[GroundState, RadialField]:
    """The frequency-1 ground state and the initial datum; at params.omega = 1
    a ground-state multiple reuses that solve."""
    gs1 = petviashvili_solve(cfg.params.with_omega(1.0), grid=grid)
    return gs1, build_initial(cfg, grid, gs1 if cfg.params.omega == 1.0 else None)


def _classify_and_write(
    cfg: RunConfig, u0: RadialField, gs1: GroundState
) -> tuple[tuple[ClassificationEntry, ...], list[str]]:
    """Classify u0 into classification.json (and frequency.json when intercritical)."""
    classification = classify_all(u0, cfg.params, cfg.potential, gs1, cfg.classify_omega)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "classification.json"), classification.as_json_list())
    outputs = ["classification.json"]
    if classification.frequency is not None:
        _write_json(os.path.join(cfg.out_dir, "frequency.json"), classification.frequency.as_dict())
        outputs.append("frequency.json")
    return classification.entries, outputs


_TRACE_OUTPUTS = ["trace.csv", "trace.events.json"]


def _evolve_and_write(cfg: RunConfig, u0: RadialField) -> tuple[str, float, float]:
    """March u0 into trace.csv; returns the final event, its time, the gradient growth."""
    trace = evolve(u0, cfg.evolution, cfg.params, cfg.potential)
    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_to_csv(trace, os.path.join(cfg.out_dir, "trace.csv"))
    kind, t = trace.events[-1]
    growth = trace.grad_norm[-1] / trace.grad_norm[0] if trace.grad_norm[0] > 0 else 0.0
    return kind, t, growth


def cmd_classify(cfg: RunConfig) -> int:
    grid = _make_grid(cfg)
    gs1, u0 = _reference_and_initial(cfg, grid)
    entries, outputs = _classify_and_write(cfg, u0, gs1)
    write_manifest(cfg, "classify", outputs)
    for e in entries:
        print(f"{e.theorem}: {e.verdict}")
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    u0 = build_initial(cfg, _make_grid(cfg))
    kind, t, growth = _evolve_and_write(cfg, u0)
    write_manifest(cfg, "evolve", _TRACE_OUTPUTS)
    print(f"evolve: {kind} at t = {t:.6g}, gradient growth {growth:.6g}")
    return 0


def _run_sweep_point(args: tuple) -> tuple[int, str, str, str, float, float]:
    """One sweep point, from its built config: classify and evolve in its own directory."""
    idx, cfg, value = args
    grid = _make_grid(cfg)
    gs1, u0 = _reference_and_initial(cfg, grid)
    entries, outputs = _classify_and_write(cfg, u0, gs1)
    kind, t, growth = _evolve_and_write(cfg, u0)
    write_manifest(cfg, "sweep-point", outputs + _TRACE_OUTPUTS)
    return idx, value, headline_verdict(entries), kind, t, growth


def cmd_sweep(cfg: RunConfig, pairs: dict[str, tuple[str, int]], jobs: int) -> int:
    """Run every sweep point of cfg; pairs are the parsed config cfg was built from."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    if cfg.sweep_key is None or not cfg.sweep_values:
        raise ConfigError("sweep requires sweep.key and sweep.values")
    line = pairs["sweep.key"][1]
    if cfg.sweep_key == "output.dir" or cfg.sweep_key.startswith("sweep."):
        raise ConfigError(f"line {line}: sweep.key {cfg.sweep_key!r} is not a sweep axis")
    # The axis may introduce a key the base config leaves at default, so
    # every point's config, its axis entry on the line of sweep.key, is
    # built before any directory exists.
    points = [build_run_config({**pairs, cfg.sweep_key: (v, line)}) for v in cfg.sweep_values]

    os.makedirs(cfg.out_dir, exist_ok=True)
    tasks = [
        (i, replace(point, out_dir=os.path.join(cfg.out_dir, f"point_{i:03d}")), v)
        for i, (point, v) in enumerate(zip(points, cfg.sweep_values))
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Under fork the pool starts all max_workers processes at once.
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_point, tasks))
    else:
        rows = [_run_sweep_point(t) for t in tasks]
    rows.sort(key=lambda r: r[0])

    summary = os.path.join(cfg.out_dir, "summary.csv")
    with open(summary, "w", newline="") as fh:
        fh.write("index,key,value,verdict,event,event_time,grad_growth\n")
        for idx, value, verdict, kind, t, growth in rows:
            fh.write(
                f"{idx},{cfg.sweep_key},{value},{verdict},{kind},{t:.17g},{growth:.17g}\n"
            )
    write_manifest(cfg, "sweep", ["summary.csv"])
    for idx, value, verdict, kind, t, growth in rows:
        print(f"point {idx:03d} {cfg.sweep_key}={value}: {verdict}, {kind} at t={t:.6g}")
    return 0


def cmd_verify() -> int:
    from .verification import run_all

    results = run_all()
    failed = 0
    for r in results:
        print(r.report_line())
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inls-lab",
        description="Ground states, classification, and evolution for the weighted NLS",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("groundstate", "check-potential", "classify", "evolve", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value config file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    sub.add_parser("verify")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "verify":
        return cmd_verify()
    pairs = _read_config(args.config)  # the one parse; sweep points build from it
    cfg = build_run_config(pairs)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.command == "groundstate":
        return cmd_groundstate(cfg)
    if args.command == "check-potential":
        return cmd_check_potential(cfg)
    if args.command == "classify":
        return cmd_classify(cfg)
    if args.command == "evolve":
        return cmd_evolve(cfg)
    return cmd_sweep(cfg, pairs, args.jobs)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # any module error maps to the generic failure code
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
