"""Per-layer metrics of a traced run, named after the inls_lab modules.

Counts are per pass over the workload; ``.us``/``.ms``/``.s`` are per
call.  A metric with no value (its name is gone from the library, or
the layer does no work on this workload) is ``None`` here with a
reason in the notes; the result line prints it as 0.
"""

from __future__ import annotations

# Current CRITERIA of inls_lab.verification.  The registry changes
# between versions; a criterion missing here is reported in the notes.
CRITERIA_NAMES = (
    "pohozaev", "oracle_equivalence", "k_annihilation", "k_derivative",
    "gn_sharpness", "conservation", "virial_identity", "standing_wave",
    "dichotomy", "frequency_scaling", "assumption_checker", "nminus_flow",
)
CLI_OPS = (
    "import", "check-potential", "groundstate", "classify", "evolve",
    "evolve_uniform", "evolve_crawl", "sweep_jobs1", "sweep_jobs2",
)
# The commands that write outputs (the crawl is killed before it does).
CLI_WRITERS = tuple(op for op in CLI_OPS if op not in ("import", "evolve_crawl"))

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("grid.solve_shifted.calls", "count"),
    ("grid.solve_shifted.us", "us"),
    ("grid.solve_tridiagonal.calls", "count"),
    ("grid.solve_tridiagonal.us", "us"),
    ("grid.solve_tridiagonal.flops_computed", "flop"),
    ("grid.solve_tridiagonal.bytes_computed", "B"),
    ("grid.gradient_norm_sq.calls", "count"),
    ("grid.gradient_norm_sq.us", "us"),
    ("grid.build_grid.ms", "ms"),
    ("groundstate.petviashvili.ms.N4096", "ms"),
    ("groundstate.petviashvili.ms.N16384", "ms"),
    ("groundstate.petviashvili.ms.N65536", "ms"),
    ("groundstate.petviashvili.iters", "count"),
    ("groundstate.shooting.s", "s"),
    ("groundstate.shooting.shots", "count"),
    ("groundstate.derive_thresholds.ms", "ms"),
    ("functionals.evaluate_all.calls", "count"),
    ("functionals.evaluate_all.us", "us"),
    ("functionals.k_functional.calls", "count"),
    ("functionals.k_functional.us", "us"),
    ("functionals.sample_share", "ratio"),
    ("evolve.steps", "count"),
    ("evolve.step_us", "us"),
    ("evolve.self_us_per_step", "us"),
    ("evolve.samples", "count"),
    ("evolve.dt_repeat_frac", "ratio"),
    ("classify.classify_all.ms", "ms"),
    ("classify.optimal_frequency.ms", "ms"),
    ("potential.check_assumptions.ms", "ms"),
    ("potential.eval_potential.calls", "count"),
    *((f"cli.{op}.s", "s") for op in CLI_OPS),
    ("cli.import_scipy_integrate_s", "s"),
    ("cli.sweep_jobs2_over_jobs1", "ratio"),
    *((f"cli.bytes_written.{op}", "B") for op in CLI_WRITERS),
    *((f"verification.{c}.s", "s") for c in CRITERIA_NAMES),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
)

# Work model of one complex tridiagonal solve through LAPACK gbsv with
# kl = ku = 1 (LU with partial pivoting, one extra superdiagonal of
# fill), per row: factor 1 complex division + 2 complex multiply-adds,
# forward substitution 1 multiply-add, back substitution 2 multiply-adds
# + 1 division.  A complex multiply-add is 8 real flops, a division 11.
# Bytes: the 3-row band built in Python, the 4-row LU work array (read
# and written), the right-hand side and the solution, 16 B per complex.
FLOPS_PER_ROW = 5 * 8 + 2 * 11
BYTES_PER_ROW = 16 * (3 + 2 * 4 + 2)


def library_metrics(tr, passes: float) -> tuple[dict, dict]:
    """Metrics of the in-process layers from one tracer's measured phase."""
    s = tr.summarize("measure")
    values: dict[str, float | None] = {}
    notes: dict[str, str] = {}

    def stat(label):
        return s.get(label, {"calls": 0, "total": 0.0, "self": 0.0, "by_tag": {}})

    def per_call(name, label, scale):
        st = stat(label)
        if label in tr.missing:
            values[name], notes[name] = None, tr.missing[label]
        elif st["calls"] == 0:
            values[name], notes[name] = None, f"{label} not called on this workload"
        else:
            values[name] = st["total"] / st["calls"] * scale

    def per_pass(name, label):
        if label in tr.missing:
            values[name], notes[name] = None, tr.missing[label]
        else:
            values[name] = stat(label)["calls"] / passes

    for label in ("grid.solve_shifted", "grid.solve_tridiagonal", "grid.gradient_norm_sq",
                  "functionals.evaluate_all", "functionals.k_functional"):
        per_pass(f"{label}.calls", label)
        per_call(f"{label}.us", label, 1e6)
    per_pass("potential.eval_potential.calls", "potential.eval_potential")

    # build_grid runs in set-up, so its figure comes from that phase.
    setup = tr.summarize("setup").get("grid.build_grid")
    if "grid.build_grid" in tr.missing:
        values["grid.build_grid.ms"], notes["grid.build_grid.ms"] = None, tr.missing["grid.build_grid"]
    elif setup:
        values["grid.build_grid.ms"] = setup["total"] / setup["calls"] * 1e3
    else:
        values["grid.build_grid.ms"], notes["grid.build_grid.ms"] = None, "no grid built in set-up"

    sizes = [
        rec[5] for rec in tr.spans
        if rec[0] == "grid.solve_tridiagonal" and rec[4] == "measure" and rec[5]
    ]
    for name, per_row in (("flops_computed", FLOPS_PER_ROW), ("bytes_computed", BYTES_PER_ROW)):
        key = f"grid.solve_tridiagonal.{name}"
        if sizes:
            values[key] = per_row * sum(sizes) / len(sizes)
        else:
            values[key], notes[key] = None, "no tridiagonal solve on this workload"

    pv = stat("groundstate.petviashvili")
    for N in (4096, 16384, 65536):
        key = f"groundstate.petviashvili.ms.N{N}"
        hit = pv["by_tag"].get(N)
        if hit:
            values[key] = hit[1] / hit[0] * 1e3
        else:
            values[key], notes[key] = None, f"no Petviashvili solve at N = {N} on this workload"
    calls, iters, _ = tr.children_of("groundstate.petviashvili", "grid.solve_shifted")
    if calls:
        values["groundstate.petviashvili.iters"] = iters / calls
    else:
        values["groundstate.petviashvili.iters"] = None
        notes["groundstate.petviashvili.iters"] = "no Petviashvili solve on this workload"

    per_call("groundstate.shooting.s", "groundstate.shooting", 1.0)
    calls, shots, _ = tr.children_of("groundstate.shooting", "groundstate.solve_ivp")
    if calls:
        values["groundstate.shooting.shots"] = shots / calls
    else:
        values["groundstate.shooting.shots"] = None
        notes["groundstate.shooting.shots"] = "no shooting solve on this workload"
    per_call("groundstate.derive_thresholds.ms", "groundstate.derive_thresholds", 1e3)
    per_call("classify.classify_all.ms", "classify.classify_all", 1e3)
    per_call("classify.optimal_frequency.ms", "classify.optimal_frequency", 1e3)
    per_call("potential.check_assumptions.ms", "potential.check_assumptions", 1e3)

    ev = stat("evolve.evolve")
    marches, steps, _ = tr.children_of("evolve.evolve", "grid.solve_tridiagonal")
    _, samples, sample_s = tr.children_of("evolve.evolve", "functionals.evaluate_all")
    _, _, k_s = tr.children_of("evolve.evolve", "functionals.k_functional")
    if marches and steps:
        values["evolve.steps"] = steps / passes
        values["evolve.step_us"] = ev["total"] / steps * 1e6
        values["evolve.self_us_per_step"] = ev["self"] / steps * 1e6
        values["evolve.samples"] = samples / passes
        values["evolve.dt_repeat_frac"] = tr.evolve_repeats / max(tr.evolve_solves, 1)
        values["functionals.sample_share"] = (sample_s + k_s) / ev["total"]
    else:
        why = "evolve() not called on this workload" if not marches else \
            "evolve() issued no solve_tridiagonal call"
        for key in ("evolve.steps", "evolve.step_us", "evolve.self_us_per_step",
                    "evolve.samples", "evolve.dt_repeat_frac", "functionals.sample_share"):
            values[key], notes[key] = None, why
    return values, notes
