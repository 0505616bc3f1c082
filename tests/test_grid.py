"""Radial mesh construction, quadrature accuracy, and operator identities."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg.lapack import dptsv
from scipy.special import gamma as gamma_fn

from inls_lab.grid import (
    GridError,
    RadialField,
    RadialGrid,
    add_stiffness,
    build_grid,
    factor_shifted,
    gradient_norm_sq,
    load_from_scipy,
    scipy_dir,
)
from inls_lab.cli import field_from_csv, field_to_csv

from conftest import SOLVE_AND_MARCH


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=3, b=0.0, N=8),
        dict(n=3, b=0.0, r_max=0.0),
        dict(n=3, b=0.0, r_max=-1.0),
        dict(n=3, b=0.0, grading=0.5),
        dict(n=3, b=-2.0),  # n-1+b = 0: inner flux weight would not vanish
        # Cell measures beyond the floats, refused before any warning: a
        # ball volume that overflows, then innermost cells that underflow
        # to 0 (all 16 cells at r_max = 1e-300; 15 cells at grading 60).
        dict(n=3, b=0.0, r_max=1e200, N=64),
        dict(n=3, b=0.0, N=64, grading=400.0),
        dict(n=3, b=0.0, r_max=1e-300, N=16),
        dict(n=3, b=0.0, N=1024, grading=60.0),
        # The smallest positive float, whose outer half cell r_max - r_N
        # rounds to 0: refused by its innermost cell, before any division.
        dict(n=3, b=0.0, r_max=5e-324, N=16),
    ],
)
def test_build_grid_rejects(kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError):
            build_grid(**kwargs)


@pytest.mark.parametrize(
    "b, r_max, weight",
    [
        # The outer face weight grows as r_max^(n-1+b), beyond the ball
        # volume's r_max^n for b > 1; the outer variance weight grows as
        # r_max^(n+2-b), beyond it for b < 2.
        (1.5, 1e102, "outer face weight S r_max^(n-1+b) / (r_max - r_N)"),
        (1.9, 1e102, "outer face weight S r_max^(n-1+b) / (r_max - r_N)"),
        (0.0, 1e80, "outer variance weight mu_N r_N^(2-b)"),
    ],
    ids=["face_b1.5", "face_b1.9", "variance_b0"],
)
def test_build_grid_refuses_a_weight_beyond_the_floats_naming_it(b, r_max, weight):
    # The ball volume is finite on each of these meshes; the refusal comes
    # before any weight is formed in NumPy, so no overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match="^" + re.escape(f"{weight} overflows at r_max={r_max}")):
            build_grid(3, b, r_max=r_max, N=64)


def test_cell_volumes_fill_the_ball():
    for n, b, grading in [(3, 0.0, 1.0), (3, -0.5, 2.0), (4, -1.0, 2.5), (5, 1.5, 2.0)]:
        g = build_grid(n, b, r_max=7.0, N=256, grading=grading)
        area = 2 * math.pi ** (n / 2) / gamma_fn(n / 2)
        ball = area * 7.0**n / n
        assert np.sum(g.measure_weights) == pytest.approx(ball, rel=1e-12)
        assert np.all(np.diff(g.faces) > 0)
        assert np.all((g.nodes > g.faces[:-1]) & (g.nodes < g.faces[1:]))


def quad_oracle(n, a, q):
    # \int_{R^n} |x|^a e^{-q |x|^2 / 2} dx in closed form.
    area = 2 * math.pi ** (n / 2) / gamma_fn(n / 2)
    return area * 0.5 * gamma_fn((n + a) / 2) * (2 / q) ** ((n + a) / 2)


@pytest.mark.parametrize(
    "n,b,a,q",
    [
        (3, 0.0, 0.0, 2.0),
        (3, 0.0, -1.0, 2.0),
        (3, 0.0, 2.5, 2.0),
        (3, 0.0, -0.5, 4.0),
        (3, 0.0, 1.0, 3.0),
        (4, -1.0, -2.0, 2.0),
    ],
)
def test_weighted_quadrature_against_closed_form(n, b, a, q):
    g = build_grid(n, b, r_max=30.0, N=16384)
    f = np.exp(-q * g.nodes**2 / 4)  # |f|^2 = e^{-q r^2 / 2}
    got = np.sum(g.measure_weights * g.nodes**a * abs(f) ** 2)
    assert got == pytest.approx(quad_oracle(n, a, q), rel=5e-7)


@pytest.mark.parametrize("n,b", [(3, 0.0), (4, -1.0)])
def test_gradient_quadrature_against_closed_form(n, b):
    # |grad e^{-r^2/2}|^2 = r^2 e^{-r^2}, so the b-weighted Dirichlet energy
    # is the (a = 2 + b, q = 2) moment.
    g = build_grid(n, b, r_max=30.0, N=16384)
    f = RadialField(g, np.exp(-g.nodes**2 / 2))
    assert gradient_norm_sq(g, f.values) == pytest.approx(quad_oracle(n, 2 + b, 2.0), rel=5e-7)


def test_quadrature_is_second_order():
    ref = quad_oracle(3, 0.0, 2.0)

    def err(N):
        g = build_grid(3, 0.0, r_max=30.0, N=N)
        f = np.exp(-g.nodes**2 / 2)
        return abs(np.sum(g.measure_weights * abs(f) ** 2) - ref)

    assert err(512) / err(1024) > 3.0


def apply_A(g, v):
    """A_{b,0} v, formed as (M v) / mu from the grid's add_stiffness."""
    return add_stiffness(g, v, np.zeros_like(v)) * (1.0 / g.measure_weights)


def test_operator_is_self_adjoint_and_matches_energy():
    rng = np.random.default_rng(7)
    for n, b in [(3, 0.0), (3, -0.5), (4, -1.0)]:
        g = build_grid(n, b, r_max=20.0, N=512, grading=2.0)
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        mu = g.measure_weights
        left = np.sum(mu * apply_A(g, u) * v)
        right = np.sum(mu * u * apply_A(g, v))
        assert left == pytest.approx(right, rel=1e-12)
        # Summation by parts: <A_{b,0} u, u>_mu is exactly the Dirichlet energy.
        quad = np.sum(mu * apply_A(g, u) * u)
        assert quad == pytest.approx(gradient_norm_sq(g, u), rel=1e-12)


@pytest.mark.parametrize("N", [256, 4096])
@pytest.mark.parametrize("n,b", [(3, 0.0), (3, -0.5), (4, -1.0)])
def test_operator_maps_a_constant_to_exact_zeros_off_the_edge(n, b, N):
    # Every face flux of a constant is exactly 0; only the Dirichlet edge
    # term survives.  Diag minus neighbour terms would leave rounding
    # residue, divided by the small cell measures near the origin.
    g = build_grid(n, b, r_max=30.0, N=N)
    y = apply_A(g, np.ones(N))
    assert np.all(y[:-1] == 0.0)
    assert y[-1] > 0


@pytest.mark.parametrize("is_complex", [False, True])
def test_gradient_norm_is_the_face_difference_sum(is_complex):
    # sum(nu |u_{i+1} - u_i|^2) + nu_out |u_N|^2, summed exactly face by face.
    g = build_grid(3, -0.5, r_max=20.0, N=512, grading=2.0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(g.N)
    if is_complex:
        u = u + 1j * rng.standard_normal(g.N)
    terms = [float(w) * abs(complex(b - a)) ** 2 for w, a, b in zip(g.face_weights, u, u[1:])]
    want = math.fsum(terms + [g.outer_face_weight * abs(complex(u[-1])) ** 2])
    assert gradient_norm_sq(g, u) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("is_complex", [False, True])
def test_gradient_norm_is_one_dot_of_the_face_differences(is_complex):
    # The bits of nu . (re(d)^2 + im(d)^2) + nu_out |u_N|^2, d the face
    # differences: the adaptive step reads them, so a march's steps
    # depend on them.  A step field has one nonzero difference, so the
    # bits of its square reach the result; in a long sum a last-bit
    # change of some terms mostly rounds away.
    g = build_grid(3, -0.5, r_max=20.0, N=512, grading=2.0)
    rng = np.random.default_rng(12)
    fields = [rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)]
    for k in rng.integers(1, g.N, 8):
        fields.append(np.where(np.arange(g.N) < k, complex(*rng.standard_normal(2)), 0))
    for u in fields:
        if not is_complex:
            u = u.real.copy()
        d = u[1:] - u[:-1]
        sq = d.real * d.real + d.imag * d.imag if is_complex else d * d
        want = float(np.dot(g.face_weights, sq) + g.outer_face_weight * abs(u[-1]) ** 2)
        assert gradient_norm_sq(g, u) == want


def test_gradient_norm_reads_strided_and_single_precision_values():
    # A strided view and complex64 values are read as their C-contiguous
    # complex128 copy; a bare float view would raise on the first and
    # misread the second.
    g = build_grid(3, -0.5, r_max=20.0, N=512, grading=2.0)
    rng = np.random.default_rng(13)
    u2 = rng.standard_normal(2 * g.N) + 1j * rng.standard_normal(2 * g.N)
    assert gradient_norm_sq(g, u2[::2]) == gradient_norm_sq(g, u2[::2].copy())
    single = u2[: g.N].astype(np.complex64)
    assert gradient_norm_sq(g, single) == gradient_norm_sq(g, single.astype(complex))
    assert gradient_norm_sq(g, u2.real[::2]) == gradient_norm_sq(g, u2.real[::2].copy())


def test_solve_shifted_recovers_manufactured_solution():
    g = build_grid(3, -0.5, r_max=20.0, N=512, grading=2.0)
    x_true = np.exp(-g.nodes**2)
    for shift in (1.7, 0.3):
        rhs = apply_A(g, x_true) + shift * x_true
        x = factor_shifted(g, shift)(rhs)
        assert np.max(np.abs(x - x_true)) < 1e-12 * np.max(np.abs(x_true))


@pytest.mark.parametrize("N", [1024, 4096, 16384])
def test_one_factor_solves_every_right_hand_side_as_dptsv_does(N):
    # dptsv is dpttrf followed by dpttrs, so one factor reused across
    # right-hand sides gives each the bits of a fresh dptsv call.
    g = build_grid(3, -0.5, r_max=30.0, N=N, grading=2.0)
    mu, shift = g.measure_weights, 0.52
    solve = factor_shifted(g, shift)
    rng = np.random.default_rng(N)
    for rhs in rng.standard_normal((3, N)):
        *_, want, info = dptsv(g.stiffness_diag + shift * mu, -g.face_weights, mu * rhs)
        assert info == 0
        assert np.array_equal(solve(rhs), want)


def test_solve_shifted_refuses_an_indefinite_system():
    g = build_grid(3, 0.0, r_max=20.0, N=64, grading=2.0)
    with pytest.raises(GridError, match=r"\(dpttrf info [1-9]\d*\)"):
        factor_shifted(g, -1e6)


@pytest.mark.parametrize("N, grading", [(40, 2.0), (4096, 2.0), (4100, 1.5), (16384, 2.0), (65536, 2.0)])
def test_a_grid_keeps_the_mesh_of_a_quarter_of_its_cells(N, grading):
    g = build_grid(3, -0.5, r_max=30.0, N=N, grading=grading)
    assert g.coarse is g.coarse
    want = build_grid(3, -0.5, r_max=30.0, N=max(N // 4, 16), grading=grading)
    for f in fields(RadialGrid):
        assert np.array_equal(getattr(g.coarse, f.name), getattr(want, f.name)), f.name
    if 4 * g.coarse.N == N:
        assert np.array_equal(g.coarse.faces, g.faces[::4])


@pytest.mark.parametrize("first", ["", "import scipy.linalg.lapack\n"], ids=["inls_lab", "scipy"])
def test_lapack_wrappers_are_scipys_own(first):
    # One wrapper module, whichever of inls_lab and scipy.linalg loads it.
    code = (
        first
        + SOLVE_AND_MARCH
        + "import importlib, scipy.linalg.lapack as lapack\n"
        "grid, gs, ev = (importlib.import_module('inls_lab.' + m) "
        "for m in ('grid', 'groundstate', 'evolve'))\n"
        "print(grid.dpttrf is lapack.dpttrf, grid.dpttrs is lapack.dpttrs, "
        "gs.dgtsv is lapack.dgtsv, ev.zgtsv is lapack.zgtsv)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True True True True"


def test_load_flapack_names_a_missing_wrapper_module(tmp_path):
    path = os.path.join(str(tmp_path), "linalg", "_flapack.so")
    with pytest.raises(ImportError, match=re.escape(f"scipy module not found: {path}")):
        load_from_scipy(str(tmp_path), "linalg._flapack", ".so")


def test_scipy_dir_refuses_a_missing_scipy(monkeypatch):
    import importlib.util

    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        scipy_dir()


def test_field_csv_roundtrip(tmp_path):
    g = build_grid(3, -0.5, r_max=15.0, N=128, grading=2.0)
    f = RadialField(g, np.exp(-g.nodes**2 / 3) * (1 + 0.25j))
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    back = field_from_csv(g, path)
    assert np.array_equal(back.values, f.values)


def test_field_csv_rejects_wrong_grid(tmp_path):
    g = build_grid(3, -0.5, r_max=15.0, N=128, grading=2.0)
    f = RadialField(g, np.exp(-g.nodes**2))
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    other = build_grid(3, -0.5, r_max=15.0, N=256, grading=2.0)
    with pytest.raises(GridError):
        field_from_csv(other, path)


def test_field_csv_rejects_a_grid_of_another_grading(tmp_path):
    # Same N, so the row count matches; the graded nodes do not.
    g = build_grid(3, -0.5, r_max=15.0, N=128, grading=2.0)
    path = tmp_path / "f.csv"
    field_to_csv(RadialField(g, np.exp(-g.nodes**2)), path)
    other = build_grid(3, -0.5, r_max=15.0, N=128, grading=1.5)
    with pytest.raises(GridError, match=re.escape(f"field file {path}: nodes do not match the grid")):
        field_from_csv(other, path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("r,re,im\n0.1,1.0,0.0\n0.2,1.0\n", 3),  # a short row
        ("r,re,im\n0.1,1.0,0.0\n0.2,one,0.0\n", 3),  # a non-numeric cell
        ("r,re,im\n0.1,1.0,0.0\n0.2,nan,0.0\n", 3),  # a NaN cell
        ("r,re,im\n0.1,1.0,0.0\n0.2,1.0,inf\n", 3),  # an infinite cell
        ("", 1),  # an empty file
    ],
)
def test_field_csv_names_the_file_and_line_of_a_malformed_row(tmp_path, text, line):
    g = build_grid(3, 0.0, r_max=10.0, N=64)
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(GridError, match=re.escape(f"field file {path}, line {line}:")):
        field_from_csv(g, path)


def test_radial_field_validation():
    g = build_grid(3, 0.0, r_max=10.0, N=64)
    with pytest.raises(GridError):
        RadialField(g, np.ones(65))
    with pytest.raises(GridError):
        RadialField(g, np.full(64, np.nan))
