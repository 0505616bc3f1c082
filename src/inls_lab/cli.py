"""Batch front end: config files, subcommands, file outputs.

Config files are flat key = value text with # comments and dotted
section prefixes (grid.N = 4096).  Numeric bulk output is CSV, scalar
summaries are JSON, and every command writes a manifest recording the
config hash, the grid, the library versions and the files it wrote, so
a run can be reproduced from its output directory alone.  This is the
one module that reads or writes a file: every CSV goes through
_write_csv and every JSON file through _write_json.

Exit codes: 0 success, 1 module error, 2 config error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .classify import NOT_APPLICABLE, ClassificationEntry, classify_all
from .evolve import EvolutionConfig, EvolutionTrace, evolve
from .grid import (
    SCIPY_VERSION,
    GridError,
    RadialField,
    RadialGrid,
    build_grid,
    check_grid_settings,
)
from .groundstate import GroundState, is_frequency_one, petviashvili_solve
from .params import ProblemParams
from .potential import PotentialSpec, check_assumptions


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


# A parsed config: key -> (value text, line number).
_Pairs = dict[str, tuple[str, int]]

_REQUIRED = object()

_INITIAL_KINDS = ("ground_state_multiple", "gaussian", "from_file")

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


# Every config key: the kind of its value ("positive" is finite and > 0;
# "optimal or positive" also reads 'optimal', as None) and, for a key no
# library object covers, its default (_REQUIRED where there is none).  Left
# out, a params., potential. or evolve. key takes its library default.
_KEYS: dict[str, tuple] = {
    "params.n": ("integer", _REQUIRED),
    "params.b": ("number", _REQUIRED),
    "params.c": ("number", _REQUIRED),
    "params.p": ("number", _REQUIRED),
    "params.omega": ("number",),
    "potential.family": ("text", "zero"),
    "potential.a": ("number",),
    "potential.s": ("number",),
    "initial.kind": ("text", "ground_state_multiple"),
    "initial.alpha": ("positive", 1.0),
    "initial.amplitude": ("finite", 1.0),
    "initial.width": ("positive", 1.0),
    "initial.path": ("text", None),
    "evolve.dt0": ("number",),
    "evolve.t_end": ("number",),
    "evolve.sample_every": ("integer",),
    "evolve.blowup_factor": ("number",),
    "evolve.dt_min": ("number",),
    "evolve.adaptivity": ("true/false",),
    "classify.omega": ("optimal or positive", None),
    "sweep.key": ("text", None),
    "sweep.values": ("text", None),
    "grid.r_max": ("finite", 30.0),
    "grid.N": ("integer", 4096),
    "grid.gamma": ("finite", 2.0),
    "output.dir": ("text", "out"),
}


def _error(pairs: _Pairs, message: str, *keys: str) -> ConfigError:
    """A ConfigError that names the lines of those keys the config sets (at least one)."""
    lines = sorted({pairs[k][1] for k in keys if k in pairs})
    label = "line" if len(lines) == 1 else "lines"
    return ConfigError(f"{label} {', '.join(map(str, lines))}: {message}")


def _section_error(pairs: _Pairs, prefix: str, e: Exception, *also: str) -> ConfigError:
    """The error of one section, naming every key of it the config sets
    and each key of also that it sets."""
    return _error(
        pairs, f"{prefix[:-1]}: {e}", *also, *(k for k in pairs if k.startswith(prefix))
    )


def _value(pairs: _Pairs, key: str):
    """The value of one key: its text in the config read as its kind, else its default."""
    kind, *default = _KEYS[key]
    if key not in pairs:
        if default == [_REQUIRED]:
            raise ConfigError(f"missing required key {key!r}")
        return default[0]
    text = pairs[key][0]
    if kind == "text":
        return text
    if kind == "true/false":
        if text.lower() not in _BOOLS:
            raise _error(pairs, f"key {key!r} expects true/false, got {text!r}", key)
        return _BOOLS[text.lower()]
    if kind == "optimal or positive" and text == "optimal":
        return None
    try:
        value = int(text) if kind == "integer" else float(text)
    except ValueError:
        expects = f"key {key!r} expects {'an integer' if kind == 'integer' else 'a number'}"
        if kind == "optimal or positive":
            expects = f"{key} expects 'optimal' or a number"
        raise _error(pairs, f"{expects}, got {text!r}", key) from None
    if kind not in ("integer", "number") and not math.isfinite(value):
        raise _error(pairs, f"{key} must be finite, got {value}", key)
    if kind.endswith("positive") and not value > 0:
        raise _error(pairs, f"{key} must be positive, got {value}", key)
    return value


def _section(pairs: _Pairs, prefix: str) -> dict:
    """Field name -> value of each key of one section that the config sets
    or the table gives a default, in table order."""
    return {
        k[len(prefix):]: _value(pairs, k)
        for k in _KEYS
        if k.startswith(prefix) and (k in pairs or len(_KEYS[k]) > 1)
    }


def parse_config_text(text: str) -> _Pairs:
    """Parse flat key = value lines into {key: (value, line_number)}."""
    pairs: _Pairs = {}
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


def config_hash(pairs: _Pairs) -> str:
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


def build_run_config(pairs: _Pairs) -> RunConfig:
    try:
        params = ProblemParams(**_section(pairs, "params."))
    except ValueError as e:
        raise _section_error(pairs, "params.", e) from None

    spec = _section(pairs, "potential.")
    if spec["family"] == "inverse_power":
        spec.setdefault("s", 1.0)
    try:
        potential = PotentialSpec(**spec)
    except ValueError as e:
        raise _section_error(pairs, "potential.", e) from None

    kind = _value(pairs, "initial.kind")
    if kind not in _INITIAL_KINDS:
        raise _error(
            pairs, f"initial.kind must be one of {_INITIAL_KINDS}, got {kind!r}", "initial.kind"
        )
    alpha = _value(pairs, "initial.alpha")
    amplitude = _value(pairs, "initial.amplitude")
    width = _value(pairs, "initial.width")
    path = _value(pairs, "initial.path")
    if kind == "from_file":
        if path is None:
            raise _error(pairs, "initial.kind = from_file requires initial.path", "initial.kind")
        if not os.path.isfile(path):
            raise _error(
                pairs, f"initial.path does not exist or is not a file: {path}", "initial.path"
            )

    try:
        evolution = EvolutionConfig(**_section(pairs, "evolve."))
    except RuntimeError as e:
        raise _section_error(pairs, "evolve.", e) from None

    classify_omega = _value(pairs, "classify.omega")
    sweep_raw = _value(pairs, "sweep.values")
    sweep_values: tuple[str, ...] = ()
    if sweep_raw is not None:
        sweep_values = tuple(s.strip() for s in sweep_raw.split(",") if s.strip())
        if not sweep_values:
            raise _error(pairs, "sweep.values is empty", "sweep.values")

    r_max = _value(pairs, "grid.r_max")
    num_cells = _value(pairs, "grid.N")
    grading = _value(pairs, "grid.gamma")
    try:
        check_grid_settings(params.n, params.b, r_max, num_cells, grading)
    except GridError as e:
        # The mesh is refused for the parameters too (its cell measures
        # scale as r^n, its face weights as r^(n-1+b)), so the error names
        # params.n and params.b.
        raise _section_error(pairs, "grid.", e, "params.n", "params.b") from None

    unknown = sorted(set(pairs) - set(_KEYS))
    if unknown:
        raise _error(pairs, f"unknown key {unknown[0]!r}", unknown[0])
    return RunConfig(
        params=params,
        potential=potential,
        r_max=r_max,
        num_cells=num_cells,
        grading=grading,
        initial_kind=kind,
        initial_alpha=alpha,
        initial_amplitude=amplitude,
        initial_width=width,
        initial_path=path,
        evolution=evolution,
        classify_omega=classify_omega,
        sweep_key=_value(pairs, "sweep.key"),
        sweep_values=sweep_values,
        out_dir=_value(pairs, "output.dir"),
        sha=config_hash(pairs),
    )


def _read_config(path: str) -> _Pairs:
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
    """The one JSON writer: obj indented by 2 with sorted keys, then LF."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(x) -> str:
    """One CSV cell: a float in .17g, None empty, anything else its str."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _write_csv(path: str, header, rows) -> None:
    """The one CSV writer: the header row, then a line of cells per row,
    every line ended by LF.  Python floats format fastest, so a NumPy
    column is best passed through tolist()."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def field_to_csv(f: RadialField, path) -> None:
    """Write a field as rows (r, re(u), im(u)) under the header r,re,im."""
    v = f.values
    rows = zip(f.grid.nodes.tolist(), v.real.tolist(), v.imag.tolist())
    _write_csv(path, ("r", "re", "im"), rows)


def field_from_csv(grid: RadialGrid, path) -> RadialField:
    """Load a field saved by field_to_csv onto a matching grid; a row
    that is not three finite numbers raises GridError naming the file and line."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header[:3]] != ["r", "re", "im"]:
            raise GridError(f"field file {path}, line 1: expected header r,re,im, got {header!r}")
        for row in reader:
            try:
                values = (float(row[0]), float(row[1]), float(row[2]))
                if not all(map(math.isfinite, values)):
                    raise ValueError
            except (IndexError, ValueError):
                where = f"field file {path}, line {reader.line_num}"
                raise GridError(f"{where}: expected three finite numbers, got {row!r}") from None
            rows.append(values)
    if len(rows) != grid.N:
        raise GridError(f"field file {path} has {len(rows)} rows, grid has N={grid.N}")
    r = np.array([row[0] for row in rows])
    if not np.allclose(r, grid.nodes, rtol=1e-9, atol=1e-12 * grid.r_max):
        raise GridError(f"field file {path}: nodes do not match the grid")
    vals = np.array([complex(re, im) for _, re, im in rows])
    return RadialField(grid, vals)


def trace_to_csv(trace: EvolutionTrace, path, events_path) -> None:
    """Write the sampled series as CSV to path, one row per sample, and
    trace.as_dict() as JSON to events_path."""
    rows = (
        (t, r.mass, r.energy, math.sqrt(r.grad_sq), r.virial, r.k(r.params.n, 2),
         r.variance, r.nehari, outer, inner)
        for t, r, outer, inner in zip(trace.times, trace.reports, trace.outer_amp, trace.inner_amp)
    )
    header = ("t", "mass", "energy", "grad_norm", "P", "K_n2", "variance", "nehari",
              "outer_amp", "inner_amp")
    _write_csv(path, header, rows)
    _write_json(events_path, trace.as_dict())


class _Outputs:
    """The files one command writes into cfg.out_dir.

    path(name) creates the directory on first use, so a command that
    fails before it writes leaves none, and remembers name; manifest()
    writes manifest.json listing exactly the remembered names."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.names: set[str] = set()

    def path(self, name: str) -> str:
        os.makedirs(self.cfg.out_dir, exist_ok=True)
        self.names.add(name)
        return os.path.join(self.cfg.out_dir, name)

    def manifest(self, command: str) -> None:
        cfg = self.cfg
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
                "scipy": SCIPY_VERSION,
            },
            "outputs": sorted(self.names),
        }
        _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)


def cmd_groundstate(cfg: RunConfig, out: _Outputs, pairs: _Pairs, args: argparse.Namespace) -> int:
    gs = petviashvili_solve(cfg.params, grid=_make_grid(cfg))
    field_to_csv(gs.profile, out.path("profile.csv"))
    _write_json(out.path("groundstate.json"), gs.as_dict())
    print(f"groundstate: residual {gs.residual:.3e}, action {gs.m_omega:.12g}")
    return 0


def cmd_check_potential(
    cfg: RunConfig, out: _Outputs, pairs: _Pairs, args: argparse.Namespace
) -> int:
    report = check_assumptions(cfg.potential, cfg.params)
    _write_json(out.path("assumptions.json"), report.as_dict())
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


def _reference_and_initial(cfg: RunConfig) -> tuple[GroundState, RadialField]:
    """The frequency-1 ground state and the initial datum; where cfg.params
    is at frequency 1 (is_frequency_one), a ground-state multiple reuses
    that state."""
    grid = _make_grid(cfg)
    gs1 = petviashvili_solve(cfg.params.with_omega(1.0), grid=grid)
    return gs1, build_initial(cfg, grid, gs1 if is_frequency_one(cfg.params.omega) else None)


def _classify_and_write(
    cfg: RunConfig, out: _Outputs, u0: RadialField, gs1: GroundState
) -> tuple[ClassificationEntry, ...]:
    """Classify u0 into classification.json (and frequency.json when intercritical)."""
    classification = classify_all(u0, cfg.params, cfg.potential, gs1, cfg.classify_omega)
    _write_json(out.path("classification.json"), classification.as_json_list())
    if classification.frequency is not None:
        _write_json(out.path("frequency.json"), classification.frequency.as_dict())
    return classification.entries


def _evolve_and_write(
    cfg: RunConfig, out: _Outputs, u0: RadialField
) -> tuple[str, float, float | None]:
    """March u0 into its trace files; returns the final event, its time, the
    gradient growth (None where the first sample's gradient is 0)."""
    trace = evolve(u0, cfg.evolution, cfg.params, cfg.potential)
    trace_to_csv(trace, out.path("trace.csv"), out.path("trace.events.json"))
    kind, t = trace.events[-1]
    return kind, t, trace.grad_growth


def cmd_classify(cfg: RunConfig, out: _Outputs, pairs: _Pairs, args: argparse.Namespace) -> int:
    gs1, u0 = _reference_and_initial(cfg)
    for e in _classify_and_write(cfg, out, u0, gs1):
        print(f"{e.theorem}: {e.verdict}")
    return 0


def cmd_evolve(cfg: RunConfig, out: _Outputs, pairs: _Pairs, args: argparse.Namespace) -> int:
    u0 = build_initial(cfg, _make_grid(cfg))
    kind, t, growth = _evolve_and_write(cfg, out, u0)
    growth_text = "undefined" if growth is None else f"{growth:.6g}"
    print(f"evolve: {kind} at t = {t:.6g}, gradient growth {growth_text}")
    return 0


def _run_sweep_point(args: tuple) -> tuple[int, str, str, str, float, float | None]:
    """One sweep point, from its built config: classify and evolve in its own directory."""
    idx, cfg, value = args
    out = _Outputs(cfg)
    gs1, u0 = _reference_and_initial(cfg)
    entries = _classify_and_write(cfg, out, u0, gs1)
    kind, t, growth = _evolve_and_write(cfg, out, u0)
    out.manifest("sweep-point")
    return idx, value, headline_verdict(entries), kind, t, growth


def _bind_worker(turns) -> None:
    """Pool initializer: bind this worker process to the next CPU the queue turns holds."""
    os.sched_setaffinity(0, {turns.get()})


def _process_pool(workers: int):
    """A pool of `workers` processes, each bound to its own CPU of this
    process's affinity set, in turn, wrapping around when the workers
    outnumber the CPUs; unbound where the platform has no
    os.sched_setaffinity.  Unbound, two workers were seen to share one
    CPU of two."""
    # Only a pool needs these; their import costs 5-8 ms, logging included.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if not hasattr(os, "sched_setaffinity"):
        return ProcessPoolExecutor(max_workers=workers)
    cpus = sorted(os.sched_getaffinity(0))
    turns = multiprocessing.SimpleQueue()
    for k in range(workers):
        turns.put(cpus[k % len(cpus)])
    return ProcessPoolExecutor(max_workers=workers, initializer=_bind_worker, initargs=(turns,))


def cmd_sweep(cfg: RunConfig, out: _Outputs, pairs: _Pairs, args: argparse.Namespace) -> int:
    """Run every sweep point of cfg, args.jobs at a time; pairs are the
    parsed config cfg was built from."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if cfg.sweep_key is None or not cfg.sweep_values:
        raise ConfigError("sweep requires sweep.key and sweep.values")
    line = pairs["sweep.key"][1]
    if cfg.sweep_key == "output.dir" or cfg.sweep_key.startswith("sweep."):
        raise ConfigError(f"line {line}: sweep.key {cfg.sweep_key!r} is not a sweep axis")
    # The axis may introduce a key the base config leaves at default, so
    # every point's config, its axis entry on the line of sweep.key, is
    # built before any directory exists.
    points = [build_run_config({**pairs, cfg.sweep_key: (v, line)}) for v in cfg.sweep_values]

    summary = out.path("summary.csv")  # the sweep's directory exists before its points run
    tasks = [
        (i, replace(point, out_dir=os.path.join(cfg.out_dir, f"point_{i:03d}")), v)
        for i, (point, v) in enumerate(zip(points, cfg.sweep_values))
    ]
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        # Under fork the pool starts all max_workers processes at once.
        with _process_pool(workers) as pool:
            rows = list(pool.map(_run_sweep_point, tasks))
    else:
        rows = [_run_sweep_point(t) for t in tasks]
    rows.sort(key=lambda r: r[0])

    _write_csv(
        summary,
        ("index", "key", "value", "verdict", "event", "event_time", "grad_growth"),
        ((idx, cfg.sweep_key, *rest) for idx, *rest in rows),
    )
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


# Every subcommand that reads a config.  Each is called with its config,
# its output recorder, the parsed config and the parsed arguments; the
# sweep alone reads the last two, for its points and its --jobs.
_COMMANDS = {
    "groundstate": cmd_groundstate,
    "check-potential": cmd_check_potential,
    "classify": cmd_classify,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inls-lab",
        description="Ground states, classification, and evolution for the weighted NLS",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value config file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if command is cmd_sweep:
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
    out = _Outputs(cfg)
    code = _COMMANDS[args.command](cfg, out, pairs, args)
    out.manifest(args.command)
    return code


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
