"""Benchmark of inls-lab: one workload, one seed, one run.

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.
A run sets the workload up several times (set-up time is the median),
then repeats passes over the workload's operations until --seconds have
gone by, finishing at least one pass.  Every operation's output is
checked; the last line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts the distinct operations of one pass and `failed` those
of them that failed at least once, so that both depend on the seed and
the code but not on how many passes fit into --seconds.

With --trace 0 the metrics are the end-to-end ones, measured with no
wrapper installed.  With --trace 1 they are the per-layer ones: the run
alternates untraced passes with passes under the wrappers of tracer.py
and reports the gap between the two as trace.overhead_frac.
Details (environment, per-kind timings, failures, notes) go to
perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in every process it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3

# Calibration kernel of each operation kind (calibrate.py); "numeric"
# for the kinds not named.
KERNEL_OF_KIND = {"oracle": "dispatch"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s", "s"),
    ("op_tail_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stationary", "flow_steady", "flow_collapse", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Measurement:
    """Timings and outcomes of the operations run in one stretch."""

    def __init__(self, ops):
        self.ops = ops
        self.kernel = {op.id: KERNEL_OF_KIND.get(op.kind, "numeric") for op in ops}
        self.samples = {op.id: [] for op in ops}
        self.runs = 0
        self.broken = 0
        self.errors: dict[str, str] = {}
        self.failed_ids: set[str] = set()
        # True where a sample is a charge (a deadline), not a timing.
        self.charged = {op.id: [] for op in ops}
        self.starts = {op.id: [] for op in ops}

    @property
    def passes(self) -> float:
        return self.runs / len(self.ops)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def ok_share(self) -> float:
        """Share of the distinct operations that never failed."""
        return 1 - self.failed / self.attempted

    def medians(self, cal=None) -> dict[str, float]:
        """Per-op median; with a Calibration, timings (not deadline
        charges) are calibrated at their start time."""
        out = {}
        for k, v in self.samples.items():
            if not v:
                continue
            if cal is not None:
                v = [s if c else s * cal.scale_at(t, self.kernel[k])
                     for s, c, t in zip(v, self.charged[k], self.starts[k])]
            out[k] = statistics.median(v)
        return out


def measure(ops, seconds: float, m: Measurement | None = None, cal=None) -> Measurement:
    """Cycle through ops until `seconds` are up, completing the first pass.

    With a Calibration, its kernels are timed between operations.
    """
    from workloads import Broken, Deadline

    m = Measurement(ops) if m is None else m
    clock = time.perf_counter
    stop = clock() + seconds
    i = 0
    while i < len(ops) or clock() < stop:
        if cal is not None:
            cal.maybe_sample()
        op = ops[i % len(ops)]
        i += 1
        charged = False
        m.runs += 1
        t0 = clock()
        try:
            op.run()
            dt = clock() - t0
        except Deadline as exc:
            dt = exc.seconds
            charged = True
            m.failed_ids.add(op.id)
            m.errors[op.id] = str(exc)
        except Broken as exc:
            dt = clock() - t0
            m.failed_ids.add(op.id)
            m.broken += 1
            m.errors[op.id] = f"broken output: {exc}"
        except Exception as exc:  # a refusal by the library is a failed op
            dt = clock() - t0
            m.failed_ids.add(op.id)
            m.errors[op.id] = f"{type(exc).__name__}: {exc}"
        m.samples[op.id].append(dt)
        m.charged[op.id].append(charged)
        m.starts[op.id].append(t0)
    return m


def kind_report(m: Measurement, cal=None) -> dict[str, dict]:
    """Per op kind: geometric mean and p90 of per-op medians, and the raw count."""
    med = m.medians(cal)
    out = {}
    for kind in dict.fromkeys(op.kind for op in m.ops):
        ids = [op.id for op in m.ops if op.kind == kind]
        vals = [med[i] for i in ids]
        out[kind] = {
            "geomean_s": statistics.geometric_mean(vals),
            "p90_s": percentile(vals, 90),
            "ops_per_pass": len(ids),
            "samples": sum(len(m.samples[i]) for i in ids),
        }
    return out


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def environment(args, all_cpus) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "inls_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus": sorted(all_cpus),
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def run_setup(name: str, seed: int, work: str, repeats: int, all_cpus, cal=None):
    """Set the workload up `repeats` times from the same seed; keep the last.

    Each repetition times a fresh interpreter importing inls_lab plus
    the in-process build of every input.
    """
    import numpy as np
    import workloads

    env = dict(os.environ, PYTHONPATH=SRC)
    times, starts = [], []
    result = None
    for _ in range(repeats):
        if cal is not None:
            cal.sample()
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import inls_lab"], env=env, check=True, timeout=120)
        result = workloads.setup(name, rng, work, SRC, all_cpus)
        times.append(time.perf_counter() - t0)
        starts.append(t0)
    return result, times, starts


def importtime_scipy_integrate(env) -> float:
    """Cumulative import time of scipy.integrate under `import inls_lab.cli`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import inls_lab.cli"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.integrate":
            return int(parts[1]) / 1e6
    return 0.0  # not imported by the CLI at all


def verification_probe() -> tuple[dict, dict]:
    """Wall time of each acceptance criterion, run once, untraced."""
    from inls_lab.verification import CRITERIA

    times, passed = {}, {}
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            rows = fn()
            passed[name] = all(bool(r.passed) for r in rows)
        except Exception as exc:  # informational probe: record and go on
            passed[name] = f"{type(exc).__name__}: {exc}"
        times[name] = time.perf_counter() - t0
    return times, passed


def traced_layers(args, ops, cli, tracer) -> tuple[dict, dict, dict]:
    """The per-layer metrics of a traced run and extra detail."""
    import layers

    # Alternate untraced and traced passes so that drifts in machine speed
    # fall on both sides of the overhead estimate.
    untraced, traced = Measurement(ops), Measurement(ops)
    tracer.phase = "measure"
    stop = time.perf_counter() + args.seconds
    while True:
        measure(ops, 0, untraced)
        tracer.install()
        try:
            measure(ops, 0, traced)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= stop:
            break

    values, notes = layers.library_metrics(tracer, traced.passes)
    med_u, med_t = untraced.medians(), traced.medians()
    common = [k for k in med_u if k in med_t]
    values["trace.overhead_frac"] = (
        sum(med_t[k] for k in common) / sum(med_u[k] for k in common) - 1
    )
    traced.failed_ids |= untraced.failed_ids
    values["fail_frac"] = 1 - traced.ok_share()

    detail: dict = {"kinds_traced": kind_report(traced), "kinds_untraced": kind_report(untraced)}
    if cli is not None:
        for op in layers.CLI_OPS:
            values[f"cli.{op}.s"] = med_t[op]
        values["cli.sweep_jobs2_over_jobs1"] = med_t["sweep_jobs2"] / med_t["sweep_jobs1"]
        notes["cli.sweep_jobs2_over_jobs1"] = f"base cli.sweep_jobs1.s = {med_t['sweep_jobs1']:.4f} s"
        for op in layers.CLI_WRITERS:
            values[f"cli.bytes_written.{op}"] = cli.bytes_written.get(op)
        values["cli.import_scipy_integrate_s"] = importtime_scipy_integrate(cli.env)
    else:
        for name, _ in layers.PER_LAYER:
            if name.startswith("cli."):
                values[name], notes[name] = None, "the CLI runs only on the cli workload"

    if args.workload == "stationary":
        times, passed = verification_probe()
        detail["verification_passed"] = passed
        for c in layers.CRITERIA_NAMES:
            if c in times:
                values[f"verification.{c}.s"] = times[c]
            else:
                values[f"verification.{c}.s"] = None
                notes[f"verification.{c}.s"] = "criterion no longer in CRITERIA"
        extra = sorted(set(times) - set(layers.CRITERIA_NAMES))
        if extra:
            detail["verification_unlisted_s"] = {c: times[c] for c in extra}
    else:
        for c in layers.CRITERIA_NAMES:
            values[f"verification.{c}.s"] = None
            notes[f"verification.{c}.s"] = "probed on the stationary workload only"
    # Outcomes count over both kinds of pass; timings above use each kind apart.
    traced.runs += untraced.runs
    traced.broken += untraced.broken
    traced.errors = {**untraced.errors, **traced.errors}
    detail["measurement"] = traced
    return values, notes, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "inls_lab", "__init__.py")):
        print(f"error: no inls_lab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children (the sweep's --jobs 2 pool
    # gets them all back), so that the calibration kernel and the measured
    # work share a core.
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(all_cpus)})

    sys.path.insert(0, SRC)
    import inls_lab

    if not os.path.abspath(inls_lab.__file__).startswith(SRC + os.sep):
        print(f"error: imported inls_lab from {inls_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import calibrate
    import tracer as tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    env = environment(args, all_cpus)

    tracer = cal = None
    if not args.trace:
        cal = calibrate.Calibration()
    else:
        # Load every module whose names the wrappers rebind before installing.
        import inls_lab.cli  # noqa: F401
        import inls_lab.verification  # noqa: F401
        import scipy.integrate  # noqa: F401

        tracer = tracing.Tracer()
        tracer.install()
    try:
        (ops, cli), setup_times, setup_starts = run_setup(
            args.workload, args.seed, work, SETUP_REPEATS, all_cpus, cal
        )
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        m = measure(ops, args.seconds, cal=cal)
        cal.sample()
        med = m.medians(cal)
        primary = [med[op.id] for op in ops if op.kind == workloads.PRIMARY[args.workload]]
        values = {
            "setup_s": statistics.median(
                s * cal.scale_at(t) for s, t in zip(setup_times, setup_starts)
            ),
            "wall_s": sum(med.values()),
            "op_s": statistics.geometric_mean(primary),
            "op_tail_s": percentile(primary, 90),
            "ok_frac": m.ok_share(),
            "peak_rss_mb": peak_rss_mb(with_children=cli is not None),
        }
        units = dict(END_TO_END)
        notes: dict = {}
        detail = {
            "calibration": {
                "kernel_median_s": {k: statistics.median(v) for k, v in cal.samples.items()},
                "kernel_samples_s": cal.samples,
                "kernel_starts": cal.starts,
                "ref_kernel_s": calibrate.REF_S,
                "kernel_of_kind": KERNEL_OF_KIND,
            },
            "raw": {
                "setup_s": statistics.median(setup_times),
                "wall_s": sum(m.medians().values()),
            },
            "kinds": kind_report(m, cal),
            "kinds_raw": kind_report(m),
            "measurement": m,
        }
    else:
        import layers

        values, notes, detail = traced_layers(args, ops, cli, tracer)
        m = detail["measurement"]
        units = dict(layers.PER_LAYER)
    metrics = {
        name: {"value": float(values.get(name) or 0.0), "unit": unit}
        for name, unit in units.items()
    }

    report = {
        "environment": env,
        "setup_times_s": setup_times,
        "passes": m.passes,
        "errors": m.errors,
        "samples_s": m.samples,
        "sample_starts": m.starts,
        "broken": m.broken,
        "runs": m.runs,
        "failed_ops": sorted(m.failed_ids),
        "metrics": {k: values.get(k) for k in units},
        "notes": notes,
        **{k: v for k, v in detail.items() if k != "measurement"},
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"))
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {m.runs} runs of {m.attempted} ops "
          f"({m.passes:.2f} passes), {m.failed} ops failed ({m.broken} broken outputs)")
    for op_id, err in sorted(m.errors.items()):
        print(f"  failed {op_id}: {err[:160]}")
    for name, unit in units.items():
        v = values.get(name)
        shown = f"{v:.6g}" if v is not None else "null (" + notes.get(name, "") + ")"
        print(f"  {name} = {shown} {unit}")
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": m.broken == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
