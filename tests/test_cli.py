"""Config parsing, command dispatch, file outputs, exit codes."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inls_lab import cli
from inls_lab.cli import (
    ConfigError,
    build_run_config,
    config_hash,
    field_from_csv,
    field_to_csv,
    headline_verdict,
    main,
    parse_config_text,
)
from inls_lab.classify import NOT_APPLICABLE, ClassificationEntry, classify_all
from inls_lab.evolve import EvolutionTrace
from inls_lab.grid import RadialField, build_grid
from inls_lab.groundstate import NEWTON_SWITCH, NEWTON_TOL
from inls_lab.potential import PotentialSpec

from conftest import F1, SOLVE_AND_MARCH, solve

MINI = """\
params.n = 3
params.b = 0
params.c = 0
params.p = 2
"""

BASE = MINI + """\
grid.N = 1024
evolve.t_end = 0.3
evolve.sample_every = 5
initial.alpha = 0.5
"""


def pairs_of(text):
    return parse_config_text(text)


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parser_values_comments_and_lines():
    pairs = parse_config_text(
        "# header\n\nparams.n = 3  # inline\n  grid.N=64\nname = a b c\n"
    )
    assert pairs["params.n"] == ("3", 3)
    assert pairs["grid.N"] == ("64", 4)
    assert pairs["name"] == ("a b c", 5)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("params.n 3\n", "expected key = value"),
        ("a = 1\na = 2\n", "duplicate key"),
        ("= 3\n", "empty key"),
    ],
)
def test_parser_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_config_hash_canonicalization():
    a = parse_config_text("x = 1\ny = 2\n")
    b = parse_config_text("# comment\ny = 2\n\nx = 1\n")
    c = parse_config_text("x = 1\ny = 3\n")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.from_regex(r"[a-z]{1,8}(\.[a-z]{1,8})?", fullmatch=True),
        st.from_regex(r"[A-Za-z0-9_.,+-]{1,12}", fullmatch=True),
        min_size=1,
        max_size=6,
    ),
    st.randoms(),
)
def test_config_hash_is_order_insensitive(d, rnd):
    items = list(d.items())
    text1 = "\n".join(f"{k} = {v}" for k, v in items)
    rnd.shuffle(items)
    text2 = "\n".join(f"{k} = {v}  # noise" for k, v in items)
    assert config_hash(parse_config_text(text1)) == config_hash(parse_config_text(text2))


def test_build_run_config_defaults():
    cfg = build_run_config(pairs_of("params.n = 3\nparams.b = 0\nparams.c = 0\nparams.p = 2\n"))
    assert cfg.params == F1
    # The config keeps the mesh it was checked by: the default one.
    want = build_grid(3, 0.0, 30.0, 4096, 2.0)
    assert (cfg.grid.n, cfg.grid.b, cfg.grid.r_max, cfg.grid.N, cfg.grid.grading) == (
        3, 0.0, 30.0, 4096, 2.0
    )
    for name in ("nodes", "faces", "measure_weights", "face_weights", "stiffness_diag",
                 "variance_weight"):
        assert np.array_equal(getattr(cfg.grid, name), getattr(want, name)), name
    assert cfg.grid.outer_face_weight == want.outer_face_weight
    assert cfg.potential.is_zero
    assert cfg.initial_kind == "ground_state_multiple"
    assert cfg.initial_alpha == 1.0
    assert cfg.classify_omega is None
    assert cfg.sweep_key is None
    assert cfg.out_dir == "out"
    assert cfg.evolution.dt0 == 1e-3
    assert cfg.sha == config_hash(pairs_of("params.n = 3\nparams.b = 0\nparams.c = 0\nparams.p = 2\n"))


@pytest.mark.parametrize(
    "extra,fragment",
    [
        ("grid.M = 2\n", r"line \d+: unknown key 'grid.M'"),
        ("grid.N = many\n", "expects an integer"),
        ("evolve.adaptivity = maybe\n", "expects true/false"),
        ("params.omega = abc\n", "expects a number"),
        ("initial.kind = soliton\n", "initial.kind must be one of"),
        ("initial.alpha = 0\n", "must be positive"),
        ("initial.kind = from_file\n", "requires initial.path"),
        ("initial.kind = from_file\ninitial.path = /no/such/file.csv\n", "does not exist"),
        ("initial.kind = from_file\ninitial.path = /\n", "does not exist or is not a file"),
        ("classify.omega = abc\n", "expects 'optimal' or a number"),
        ("classify.omega = 0\n", "must be positive"),
        ("evolve.dt0 = 0\n", "evolve: "),
        ("sweep.values = ,\n", "sweep.values is empty"),
        ("potential.family = banana\n", "potential: "),
    ],
)
def test_build_run_config_rejects(extra, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_run_config(pairs_of(MINI + extra))


@pytest.mark.parametrize(
    "extra, message",
    [
        ("initial.alpha = -1\n", "line 5: initial.alpha must be positive, got -1.0"),
        ("initial.width = 0\n", "line 5: initial.width must be positive, got 0.0"),
        ("initial.kind = bogus\n", "line 5: initial.kind must be one of"),
        ("initial.kind = from_file\n", "line 5: initial.kind = from_file requires initial.path"),
        ("initial.kind = from_file\ninitial.path = /no/such/file.csv\n",
         "line 6: initial.path does not exist"),
        ("initial.kind = from_file\ninitial.path = /\n",
         "line 6: initial.path does not exist or is not a file"),
        ("classify.omega = -2\n", "line 5: classify.omega must be positive, got -2.0"),
        ("classify.omega = abc\n", "line 5: classify.omega expects 'optimal' or a number"),
        ("sweep.values = ,\n", "line 5: sweep.values is empty"),
        # A section error names every key of the section the config sets.
        ("params.omega = -1\n", "lines 1, 2, 3, 4, 5: params: frequency omega=-1.0 must be"),
        ("potential.family = zero\npotential.a = -1\n", "lines 5, 6: potential: amplitude a=-1.0"),
        ("evolve.t_end = 0.5\nevolve.dt0 = -1\n", "lines 5, 6: evolve: need dt0 > dt_min > 0"),
        ("evolve.t_end = inf\n", "line 5: evolve: t_end must be finite, got inf"),
        ("evolve.dt0 = inf\n", "line 5: evolve: dt0 must be finite, got inf"),
        ("initial.alpha = inf\n", "line 5: initial.alpha must be finite, got inf"),
        ("initial.amplitude = inf\n", "line 5: initial.amplitude must be finite, got inf"),
        ("initial.amplitude = nan\n", "line 5: initial.amplitude must be finite, got nan"),
        ("initial.kind = gaussian\ninitial.width = inf\n",
         "line 6: initial.width must be finite, got inf"),
        ("potential.family = smooth_bump\npotential.a = nan\n",
         "lines 5, 6: potential: a=nan must be finite"),
        ("potential.family = smooth_bump\npotential.s = inf\n",
         "lines 5, 6: potential: s=inf must be finite"),
        ("params.omega = inf\n", "lines 1, 2, 3, 4, 5: params: omega=inf must be finite"),
        ("classify.omega = inf\n", "line 5: classify.omega must be finite, got inf"),
        ("classify.omega = nan\n", "line 5: classify.omega must be finite, got nan"),
        ("grid.r_max = inf\n", "line 5: grid.r_max must be finite, got inf"),
        ("grid.gamma = inf\n", "line 5: grid.gamma must be finite, got inf"),
        # A grid error names params.n and params.b too: the mesh is
        # refused for the parameters.
        ("grid.r_max = -1\n", "lines 1, 2, 5: grid: r_max=-1.0 must be positive"),
        ("grid.gamma = 0.5\n", "lines 1, 2, 5: grid: grading=0.5 must be >= 1"),
        ("grid.N = 8\n", "lines 1, 2, 5: grid: N=8 too small (need >= 16)"),
        ("grid.r_max = 1e200\n", "lines 1, 2, 5: grid: ball volume S r_max^n / n overflows"),
        ("grid.gamma = 400\ngrid.N = 64\n", "lines 1, 2, 5, 6: grid: innermost cell measure 0"),
        ("grid.r_max = 1e80\n", "lines 1, 2, 5: grid: outer variance weight mu_N r_N^(2-b) overflows"),
    ],
    ids=[
        "alpha", "width", "kind", "from_file", "path", "path_directory", "classify_omega",
        "classify_omega_text", "sweep_values", "params", "potential", "evolve", "t_end_inf",
        "dt0_inf", "alpha_inf", "amplitude_inf", "amplitude_nan", "width_inf", "potential_a_nan",
        "potential_s_inf", "omega_inf", "classify_omega_inf", "classify_omega_nan", "r_max_inf",
        "gamma_inf", "r_max_negative", "gamma_below_one", "N_too_small", "ball_volume_overflows",
        "innermost_cell_underflows", "variance_weight_overflows",
    ],
)
def test_config_errors_name_their_lines(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, MINI + extra)
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("b", ["1.5", "1.9"])
def test_a_face_weight_beyond_the_floats_is_a_config_error(tmp_path, capsys, b):
    # For b > 1 the outer face weight, r_max^(n-1+b) / (r_max - r_N),
    # overflows at radii where the ball volume r_max^n is finite.
    text = f"params.n = 3\nparams.b = {b}\nparams.c = 0\nparams.p = 0.05\ngrid.r_max = 1e102\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: lines 1, 2, 5: grid: outer face weight S r_max^(n-1+b)")
    assert not out.exists()


def test_a_default_grid_refused_for_the_dimension_names_params_n():
    # At n = 60 the innermost cell measure of the default mesh underflows.
    with pytest.raises(ConfigError, match=r"^lines 1, 2: grid: innermost cell measure 0 underflows"):
        build_run_config(pairs_of("params.n = 60\nparams.b = 0\nparams.c = 0\nparams.p = 0.05\n"))


def test_invalid_params_report_their_origin():
    with pytest.raises(ConfigError, match="params: "):
        build_run_config(pairs_of("params.n = 3\nparams.b = 0\nparams.c = 0\nparams.p = 0\n"))
    with pytest.raises(ConfigError, match="missing required key 'params.b'"):
        build_run_config(pairs_of("params.n = 3\n"))


def test_classify_omega_forms():
    assert build_run_config(pairs_of(BASE + "classify.omega = optimal\n")).classify_omega is None
    assert build_run_config(pairs_of(BASE + "classify.omega = 2.5\n")).classify_omega == 2.5


def test_out_override_keeps_output_dir_consumed(tmp_path, monkeypatch):
    # output.dir is a known key even when --out replaces it, so the
    # unknown-key check accepts the config.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE + "output.dir = from_config\n")
    assert main(["check-potential", "--config", cfg, "--out", "cli_dir"]) == 0
    assert (tmp_path / "cli_dir" / "assumptions.json").exists()
    assert not (tmp_path / "from_config").exists()
    assert build_run_config(pairs_of(BASE + "output.dir = from_config\n")).out_dir == "from_config"


def test_main_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, BASE + "grid.M = 2\n")
    assert main(["groundstate", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err

    # N = 512 leaves the stationary identities above their gate, which
    # the solver reports as a failure rather than returning the profile.
    coarse = write_config(tmp_path, BASE.replace("grid.N = 1024", "grid.N = 512"))
    assert main(["groundstate", "--config", coarse, "--out", str(tmp_path / "g")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
def test_an_unreadable_config_exits_2_naming_it(tmp_path, capsys, name):
    path = tmp_path / name
    assert main(["groundstate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")


def test_check_potential_command(tmp_path, capsys):
    text = (
        "params.n = 3\nparams.b = -0.5\nparams.c = -0.5\nparams.p = 2\n"
        "potential.family = const_plus_gaussian\npotential.a = 1\n"
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "pot"
    assert main(["check-potential", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "(IV): Fails" in stdout
    assert "(I): Holds" in stdout
    report = json.loads((out / "assumptions.json").read_text())
    assert report["IV"]["status"] == "Fails"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check-potential"
    assert set(manifest["versions"]) == {"inls-lab", "numpy", "scipy"}
    assert manifest["outputs"] == ["assumptions.json"]
    assert manifest["grid"]["N"] == 4096


def test_check_potential_refuses_an_overflowing_potential(tmp_path, capsys):
    text = (
        "params.n = 3\nparams.b = -0.5\nparams.c = -0.5\nparams.p = 2\n"
        "potential.family = inverse_power\npotential.a = 1\npotential.s = 60\n"
    )
    out = tmp_path / "pot"
    assert main(["check-potential", "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    assert "not finite at r = 1e-06" in capsys.readouterr().err
    assert not (out / "assumptions.json").exists()


def test_groundstate_command_outputs_and_determinism(tmp_path, capsys):
    text = BASE.replace("grid.N = 1024", "grid.N = 2048")
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["groundstate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["groundstate", "--config", cfg, "--out", str(out2)]) == 0
    assert "groundstate: residual" in capsys.readouterr().out

    g = build_grid(3, 0.0, r_max=30.0, N=2048, grading=2.0)
    prof = field_from_csv(g, out1 / "profile.csv")
    ref = solve(F1, 2048)
    assert np.max(np.abs(prof.values - ref.profile.values)) < 1e-12

    summary = json.loads((out1 / "groundstate.json").read_text())
    assert summary["m_omega"] == pytest.approx(ref.m_omega, rel=1e-12)
    assert summary["omega"] == 1.0
    assert summary["history"] == list(ref.history)
    # history splits by mesh: the maps on the coarsest mesh, whose changes
    # stay at or above NEWTON_SWITCH until the last, then each mesh's Newton
    # corrections, which stay at or above NEWTON_TOL until the last
    steps = [level["newton_steps"] for level in summary["levels"]]
    assert [level["cells"] for level in summary["levels"]] == [512, 2048]
    history = summary["history"]
    bounds = np.cumsum([0, len(history) - sum(steps), *steps])
    stops = [NEWTON_SWITCH] + [NEWTON_TOL] * len(steps)
    for lo, hi, stop in zip(bounds, bounds[1:], stops):
        run = history[lo:hi]
        assert run and min(run[:-1], default=stop) >= stop > run[-1]

    for name in ("profile.csv", "groundstate.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_evolve_command(tmp_path, capsys):
    text = (
        "params.n = 3\nparams.b = 0\nparams.c = 0\nparams.p = 2\n"
        "grid.N = 512\ninitial.kind = gaussian\ninitial.width = 1.5\n"
        "evolve.t_end = 0.05\nevolve.adaptivity = false\n"
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert "evolve: Completed" in capsys.readouterr().out
    assert (out / "trace.csv").exists()
    events = json.loads((out / "trace.events.json").read_text())["events"]
    assert events[-1]["kind"] == "Completed"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["trace.csv", "trace.events.json"]


def test_an_undefined_gradient_growth_prints_and_writes_as_undefined(
    tmp_path, capsys, monkeypatch
):
    # A Gaussian of amplitude 1e-200 has a gradient whose square underflows
    # to 0, so its growth is undefined, and the evolve line says so.
    text = (
        MINI + "grid.N = 256\ninitial.kind = gaussian\ninitial.amplitude = 1e-200\n"
        "evolve.t_end = 0.01\nevolve.adaptivity = false\n"
    )
    cfg = write_config(tmp_path, text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 0
    assert capsys.readouterr().out.endswith("gradient growth undefined\n")
    # classify refuses such a datum, so a sweep point reaches the summary
    # with an undefined growth only through a stand-in trace property; the
    # summary leaves its cell empty.
    monkeypatch.setattr(EvolutionTrace, "grad_growth", property(lambda self: None))
    text = BASE.replace("evolve.t_end = 0.3", "evolve.t_end = 0.01")
    cfg = write_config(tmp_path, text + "sweep.key = initial.alpha\nsweep.values = 0.5\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
    rows = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert rows[1].endswith(",Completed,0.01,")


def test_evolve_from_file_roundtrip(tmp_path):
    g = build_grid(3, 0.0, r_max=30.0, N=512, grading=2.0)
    datum = tmp_path / "datum.csv"
    field_to_csv(RadialField(g, np.exp(-g.nodes**2)), datum)
    text = (
        "params.n = 3\nparams.b = 0\nparams.c = 0\nparams.p = 2\n"
        "grid.N = 512\ninitial.kind = from_file\n"
        f"initial.path = {datum}\n"
        "evolve.t_end = 0.02\nevolve.adaptivity = false\n"
    )
    cfg = write_config(tmp_path, text)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "ff")]) == 0


def test_classify_command(tmp_path, capsys, count_calls):
    fields = []

    def record(name, args):
        if name == "evaluate_all":
            fields.append(args[0])

    calls = count_calls("petviashvili_solve", "evaluate_all", record=record)
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "cls"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    # At params.omega = 1 the reference state is the ground state the
    # datum multiplies; the solve reads its profile's report off its own
    # arrays, and the classification integrates the datum once.
    assert calls == {"petviashvili_solve": 1, "evaluate_all": 1}
    (datum,) = fields
    stdout = capsys.readouterr().out
    assert "intercritical_threshold: GlobalCandidate" in stdout
    rows = json.loads((out / "classification.json").read_text())
    assert [r["id"] for r in rows] == [
        "mass_critical_threshold",
        "intercritical_threshold",
        "action_set_membership",
    ]
    assert rows[0]["verdict"] == "NotApplicable"
    assert rows[1]["verdict"] == "GlobalCandidate"
    freq = json.loads((out / "frequency.json").read_text())
    assert set(freq) == {"omega0", "gap", "em", "near_boundary"}
    assert freq["gap"]["name"] == "f_omega0_vs_zero" and freq["gap"]["lhs"] > 0
    assert freq["em"] == rows[1]["evidence"][0]
    gs1 = solve(F1, 1024)
    assert np.array_equal(datum.values, 0.5 * gs1.profile.values)
    u0 = RadialField(gs1.profile.grid, 0.5 * gs1.profile.values)
    want = classify_all(u0, F1, PotentialSpec.zero(), gs1).as_json_list()
    assert rows == json.loads(json.dumps(want))


@pytest.mark.parametrize(
    "text, near",
    [
        (BASE, [False, False, False]),
        (BASE.replace("initial.alpha = 0.5", "initial.alpha = 1.0"), [False, True, True]),
        # F2 at omega = 1: the negative-K set, its gap bound and the closed
        # blow-up window, whose band is 0.
        (
            "params.n = 3\nparams.b = -0.5\nparams.c = -0.5\nparams.p = 2\ngrid.N = 1024\n"
            "initial.alpha = 1.2\nclassify.omega = 1\n",
            [False, False, False],
        ),
        (
            "params.n = 3\nparams.b = 0\nparams.c = 0\nparams.p = 1.3333333333333333\n"
            "initial.alpha = 1.0\n",
            [True, False, False],
        ),
    ],
    ids=["F1-0.5Q", "F1-Q", "F2-1.2Q", "MC-Q"],
)
def test_every_evidence_row_states_its_band(tmp_path, text, near):
    cfg, out = write_config(tmp_path, text), tmp_path / "o"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "classification.json").read_text())
    for row in rows:
        for e in row["evidence"]:
            assert set(e) == {"name", "lhs", "rhs", "band"}
            assert math.isfinite(e["band"]) and e["band"] >= 0
            if e["name"] == "pc_vs_blowup_window":  # the window is closed
                assert e["band"] == 0
        # A withheld verdict names the one row that sat in its band.
        notes = [n for n in row["notes"] if n.startswith("near_boundary")]
        assert len(notes) == row["near_boundary"]
        for e in row["evidence"]:
            if notes == [f"near_boundary: {e['name']} inside the dead band"]:
                assert abs(e["lhs"] - e["rhs"]) <= e["band"]
                break
        else:
            assert not notes
    assert [r["near_boundary"] for r in rows] == near


def test_sweep_parallel_matches_serial(tmp_path):
    text = BASE + "sweep.key = initial.alpha\nsweep.values = 0.5, 1.5\n"
    cfg = write_config(tmp_path, text)
    s1, s2 = tmp_path / "serial", tmp_path / "par"
    assert main(["sweep", "--config", cfg, "--out", str(s1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(s2), "--jobs", "2"]) == 0
    assert (s1 / "summary.csv").read_bytes() == (s2 / "summary.csv").read_bytes()

    lines = (s1 / "summary.csv").read_text().splitlines()
    assert lines[0] == "index,key,value,verdict,event,event_time,grad_growth"
    assert lines[1].split(",")[3] == "GlobalCandidate"
    assert lines[2].split(",")[3] == "BlowupCandidate"
    for i in range(2):
        assert (s1 / f"point_{i:03d}" / "classification.json").exists()
        assert (s1 / f"point_{i:03d}" / "manifest.json").exists()


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs each task in this process,
    so no worker process is started; returns the max_workers and the
    initializer keywords of every pool made."""
    import concurrent.futures

    made = []

    class FakePool:
        def __init__(self, max_workers, **initializer):
            made.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return made


def test_sweep_pool_never_outnumbers_its_points(tmp_path, monkeypatch, fake_pool):
    def fake_point(cfg):
        return "GlobalCandidate", "Completed", 0.3, 1.0

    monkeypatch.setattr(cli, "_run_sweep_point", fake_point)
    cfg = write_config(tmp_path, BASE + "sweep.key = initial.alpha\nsweep.values = 0.5, 0.6, 0.7\n")
    out = str(tmp_path / "s")
    assert main(["sweep", "--config", cfg, "--out", out, "--jobs", "64"]) == 0
    assert [size for size, _ in fake_pool] == [3]
    assert main(["sweep", "--config", cfg, "--out", out, "--jobs", "1"]) == 0
    assert len(fake_pool) == 1  # one worker runs in process


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity")
def test_pool_workers_bind_one_per_cpu_in_turn(fake_pool):
    # The initializer runs here, once per worker, so that each binding can
    # be read back; this process's affinity is restored after.
    cpus = sorted(os.sched_getaffinity(0))
    workers = len(cpus) + 1  # the last worker wraps around to the first CPU
    cli._process_pool(workers)
    ((size, binding),) = fake_pool
    assert size == workers
    seen = []
    try:
        for _ in range(workers):
            binding["initializer"](*binding["initargs"])
            seen.append(os.sched_getaffinity(0))
    finally:
        os.sched_setaffinity(0, cpus)
    assert seen == [{c} for c in cpus] + [{cpus[0]}]


def test_pool_workers_stay_unbound_without_sched_setaffinity(monkeypatch, fake_pool):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    cli._process_pool(2)
    assert fake_pool == [(2, {})]


# Set before a pool forks its workers; each sweep point waits at it, so
# each of the two workers holds one point.
_BOTH_WORKERS = None


def _report_cpus(cfg):
    """A sweep point whose verdict is the CPUs its worker may run on."""
    _BOTH_WORKERS.wait(timeout=30)
    return " ".join(map(str, sorted(os.sched_getaffinity(0)))), "Completed", 0.0, None


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="binding one worker per CPU needs at least two CPUs in the affinity set",
)
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only a forked worker runs the sweep point patched in here",
)
def test_sweep_workers_run_on_distinct_cpus(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "_BOTH_WORKERS", multiprocessing.Barrier(2))
    monkeypatch.setattr(cli, "_run_sweep_point", _report_cpus)
    cfg = write_config(tmp_path, BASE + "sweep.key = initial.alpha\nsweep.values = 0.5, 0.6\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    cpus = [row.split(",")[3] for row in (out / "summary.csv").read_text().splitlines()[1:]]
    assert len(cpus) == len(set(cpus)) == 2
    assert all(len(c.split()) == 1 for c in cpus)


def test_sweep_rejects_jobs_below_one(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "sweep.key = initial.alpha\nsweep.values = 0.5\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--jobs", "0"]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["groundstate", "check-potential", "classify", "evolve"])
def test_only_sweep_takes_jobs(tmp_path, command):
    cfg = write_config(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("omega, solves", [(1.000000000000001, 1), (2.0, 2)])
def test_classify_reuses_the_reference_solve_within_the_frequency_one_rule(
    tmp_path, count_calls, omega, solves
):
    # classify_all takes the omega = 1 state as the reference of a frequency
    # within 1e-14 of 1, so the ground-state multiple reuses that one solve;
    # at omega = 2 the datum is alpha times the omega = 2 profile, a second solve.
    calls = count_calls("petviashvili_solve")
    # At N = 1024 the omega = 2 solve does not certify.
    text = MINI + f"params.omega = {omega!r}\ngrid.N = 2048\ninitial.alpha = 0.5\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "cls"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    assert calls == {"petviashvili_solve": solves}
    params = F1.with_omega(omega)
    gs = solve(params if solves == 2 else F1, 2048)
    u0 = RadialField(gs.profile.grid, 0.5 * gs.profile.values)
    want = classify_all(u0, params, PotentialSpec.zero(), solve(F1, 2048)).as_json_list()
    assert json.loads((out / "classification.json").read_text()) == json.loads(json.dumps(want))


def test_classify_command_honours_classify_omega(tmp_path):
    cfg = write_config(tmp_path, BASE + "classify.omega = 2.0\n")
    out = tmp_path / "cls"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    gs1 = solve(F1, 1024)
    u0 = RadialField(gs1.profile.grid, 0.5 * gs1.profile.values)
    want = classify_all(u0, F1, PotentialSpec.zero(), gs1, omega=2.0).as_json_list()
    assert json.loads((out / "classification.json").read_text()) == json.loads(json.dumps(want))


@pytest.mark.parametrize(
    "key, value",
    [("initial.alpha", "0.5"), ("grid.N", "2048"), ("params.b", "-0.5")],
    ids=["initial.alpha", "grid.N", "params.b"],
)
def test_sweep_point_matches_separate_commands(tmp_path, key, value):
    # The point runs on its own config, mesh included: the grid.N and
    # params.b axes move the mesh off the one BASE builds.
    text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", BASE, flags=re.M)
    assert count == 1
    single = write_config(tmp_path, text)
    axis = f"sweep.key = {key}\nsweep.values = {value}\n"
    sweep = write_config(tmp_path, BASE + axis, "s.cfg")
    cls, ev, sw = tmp_path / "cls", tmp_path / "ev", tmp_path / "sw"
    assert main(["classify", "--config", single, "--out", str(cls)]) == 0
    assert main(["evolve", "--config", single, "--out", str(ev)]) == 0
    assert main(["sweep", "--config", sweep, "--out", str(sw)]) == 0
    point = sw / "point_000"
    for name in ("classification.json", "frequency.json"):
        assert (point / name).read_bytes() == (cls / name).read_bytes()
    for name in ("trace.csv", "trace.events.json"):
        assert (point / name).read_bytes() == (ev / name).read_bytes()
    grids = [json.loads((d / "manifest.json").read_text())["grid"] for d in (point, cls, ev)]
    assert grids[0] == grids[1] == grids[2]


def assert_manifest_lists_its_files(out):
    """manifest.json names exactly the files beside it; each subdirectory,
    a sweep point, is a run of its own with its own manifest."""
    manifest = json.loads((out / "manifest.json").read_text())
    files = sorted(p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json")
    assert manifest["outputs"] == files
    for point in (p for p in out.iterdir() if p.is_dir()):
        assert point.name.startswith("point_")
        assert_manifest_lists_its_files(point)


RUN = MINI + "grid.N = 1024\nevolve.t_end = 0.05\ninitial.alpha = 0.5\n"
MC_RUN = "params.n = 3\nparams.b = 0\nparams.c = 0\nparams.p = 1.3333333333333333\n"


@pytest.mark.parametrize(
    "argv, text, points",
    [
        (["groundstate"], RUN, 0),
        (["check-potential"], RUN, 0),
        (["classify"], RUN, 0),
        # mass-critical exponents: classification.json without frequency.json
        (["classify"], MC_RUN, 0),
        (["evolve"], RUN, 0),
        (["sweep", "--jobs", "1"], RUN + "sweep.key = initial.alpha\nsweep.values = 0.5, 1.5\n", 2),
    ],
    ids=["groundstate", "check-potential", "classify", "classify-mc", "evolve", "sweep"],
)
def test_manifest_lists_exactly_the_files_written(tmp_path, argv, text, points):
    cfg, out = write_config(tmp_path, text), tmp_path / "o"
    assert main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]]) == 0
    assert_manifest_lists_its_files(out)
    assert sum(p.is_dir() for p in out.iterdir()) == points


# The header of every CSV a command writes, and which of its columns hold floats.
CSV_LAYOUTS = {
    "profile.csv": ("r,re,im", range(3)),
    "trace.csv": ("t,mass,energy,grad_norm,P,K_n2,variance,nehari,outer_amp,inner_amp", range(10)),
    "summary.csv": ("index,key,value,verdict,event,event_time,grad_growth", (5, 6)),
}


@pytest.mark.parametrize(
    "argv, text",
    [
        (["groundstate"], RUN),
        (["evolve"], RUN),
        (["sweep"], RUN + "sweep.key = initial.alpha\nsweep.values = 0.5, 1.5\n"),
    ],
    ids=["groundstate", "evolve", "sweep"],
)
def test_every_csv_has_lf_lines_its_header_and_exact_floats(tmp_path, argv, text):
    cfg, out = write_config(tmp_path, text), tmp_path / "o"
    assert main([argv[0], "--config", cfg, "--out", str(out)]) == 0
    written = sorted(out.rglob("*.csv"))
    assert written
    for path in written:
        data = path.read_bytes()
        assert b"\r" not in data, path
        header, columns = CSV_LAYOUTS[path.name]
        lines = data.decode().split("\n")
        assert lines[0] == header and lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert rows and all(len(row) == header.count(",") + 1 for row in rows)
        # each float is its .17g cell, which float() reads back exactly;
        # an empty cell is a None
        for row in rows:
            for cell in (row[i] for i in columns if row[i]):
                assert f"{float(cell):.17g}" == cell, (path, cell)
    if argv[0] == "groundstate":
        g = build_grid(3, 0.0, r_max=30.0, N=1024, grading=2.0)
        values = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        assert np.array_equal(values[:, 0], g.nodes)
        assert np.array_equal(values[:, 1], solve(F1, 1024).profile.values.real)


def test_cli_import_leaves_scipy_solvers_unloaded(tmp_path):
    # Only the shooting oracle needs scipy's solvers, only a sweep's pool
    # needs concurrent.futures and multiprocessing, and every CLI command
    # pays for what the package imports up front.  The LAPACK wrappers and
    # the version in each manifest come without scipy's package __init__,
    # on every solve path too.
    cfg = write_config(tmp_path, MINI)
    out_dir = tmp_path / "pot"
    code = (
        "import sys, inls_lab.cli\n"
        + SOLVE_AND_MARCH
        + f"inls_lab.cli.main(['check-potential', '--config', {cfg!r}, '--out', {str(out_dir)!r}])\n"
        "print([m for m in ('scipy', 'scipy.linalg', 'scipy.integrate', 'scipy.interpolate', "
        "'scipy.optimize', 'scipy.special', 'concurrent.futures', 'multiprocessing') "
        "if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    from importlib.metadata import version

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == version("scipy")


def test_sweep_requires_axis(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    bogus = write_config(tmp_path, BASE + "sweep.key = bogus.key\nsweep.values = 1\n", "b.cfg")
    assert main(["sweep", "--config", bogus, "--out", str(tmp_path / "s2")]) == 2


@pytest.mark.parametrize(
    "axis, message",
    [
        ("sweep.key = params.bogus\nsweep.values = 1\n", "line 9: unknown key 'params.bogus'"),
        ("sweep.key = output.dir\nsweep.values = a, b\n", "line 9: sweep.key 'output.dir' is not"),
        ("sweep.values = 1, 2\nsweep.key = sweep.values\n", "line 10: sweep.key 'sweep.values' is not"),
        ("sweep.key = sweep.key\nsweep.values = 1\n", "line 9: sweep.key 'sweep.key' is not"),
        # a sweep point's axis entry keeps the line of sweep.key
        ("sweep.key = initial.alpha\nsweep.values = 0.5, -1\n",
         "line 9: initial.alpha must be positive, got -1.0"),
    ],
    ids=["unknown_key", "output_dir", "sweep_values", "sweep_key", "bad_later_value"],
)
def test_sweep_axis_is_checked_before_any_output(tmp_path, capsys, axis, message):
    cfg = write_config(tmp_path, BASE + axis)
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_command_exit_codes(monkeypatch, capsys):
    from inls_lab.verification import CheckResult

    ok = CheckResult("alpha", True, 1e-9, 1e-6)
    bad = CheckResult("beta", False, 2e-3, 1e-6, detail="exceeded")
    monkeypatch.setattr("inls_lab.verification.run_all", lambda: [ok, ok])
    assert main(["verify"]) == 0
    assert "2/2 checks passed" in capsys.readouterr().out
    monkeypatch.setattr("inls_lab.verification.run_all", lambda: [ok, bad])
    assert main(["verify"]) == 3
    stdout = capsys.readouterr().out
    assert "1/2 checks passed" in stdout
    assert bad.report_line() == "FAIL beta: measured 0.002 vs tolerance 1e-06 (exceeded)"
    assert bad.report_line() + "\n" in stdout
    assert ok.report_line() == "PASS alpha: measured 1e-09 vs tolerance 1e-06"


def test_run_all_turns_a_crashed_criterion_into_one_failed_row(monkeypatch):
    from inls_lab import verification
    from inls_lab.verification import CheckResult

    ok = CheckResult("alpha", True, 1e-9, 1e-6)

    def crash():
        raise ValueError("no ground state")

    monkeypatch.setattr(verification, "CRITERIA", (("broken", crash), ("fine", lambda: [ok])))
    bad, after = verification.run_all()
    assert (bad.name, bad.passed, bad.tolerance) == ("broken", False, 0.0)
    assert np.isnan(bad.measured)
    # each row's detail ends with its criterion's wall time
    assert re.fullmatch(r"ValueError: no ground state; criterion broken \d+\.\d ms", bad.detail)
    assert re.fullmatch(r"criterion fine \d+\.\d ms", after.detail)
    assert after == replace(ok, detail=after.detail)


def test_headline_verdict_route_order():
    def entry(verdict):
        return ClassificationEntry("t", {}, verdict, ())

    assert headline_verdict([entry(NOT_APPLICABLE), entry("GlobalCandidate")]) == "GlobalCandidate"
    assert headline_verdict([entry(NOT_APPLICABLE)]) == NOT_APPLICABLE
    assert headline_verdict([entry("BlowupCandidate"), entry("GlobalCandidate")]) == "BlowupCandidate"
