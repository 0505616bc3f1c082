"""Radial mesh, cell measures, and the symmetric bands of the operator.

Discretization conventions
--------------------------

The operator A_{b,V} = -div(|x|^b grad) + V acting on radial functions
is realized by cell-centered finite volumes on [0, r_max].  Cell faces
follow the graded law

    r_{i+1/2} = r_max * (i/N)^grading,   i = 0..N,

so grading > 1 clusters cells at the origin where the weights r^b and
r^c are singular.  Nodes sit at cell midpoints.  Cell measures are the
exact shell volumes

    mu_i = S_{n-1} * (r_{i+1/2}^n - r_{i-1/2}^n) / n,

with S_{n-1} the unit-sphere area, so that sum(mu) telescopes to the
exact ball volume and the midpoint quadrature sum(mu_i r_i^a |f_i|^q)
is second-order accurate.

The flux form of the operator integrates -div(r^b grad f) over cell i
and approximates the face flux r^{n-1+b} f' by a centered difference:

    (A f)_i = [nu_{i-1/2}(f_i - f_{i-1}) + nu_{i+1/2}(f_i - f_{i+1})]/mu_i
              + V(r_i) f_i,
    nu_{i+1/2} = S_{n-1} * r_{i+1/2}^{n-1+b} / (r_{i+1} - r_i).

The inner face weight nu_{1/2} is exactly zero (r^{n-1+b} -> 0 since
n-1+b > 0), which encodes the natural zero-flux condition at the
origin; the outer boundary is homogeneous Dirichlet, realized by a
ghost value 0 at r_max with nu_{N+1/2} = S_{n-1} r_max^{n-1+b} /
(r_max - r_N).

Because every face weight is shared by its two cells, the matrix
M = diag(mu) * A is symmetric tridiagonal, so A is exactly
self-adjoint in the weighted inner product <u,v>_mu = sum(mu u conj(v))
and <A_{b,0} f, f>_mu coincides term-by-term with the discrete
gradient seminorm

    ||grad f||^2_{b,2} = sum_faces nu_{i+1/2} |f_{i+1} - f_i|^2
                         + nu_{N+1/2} |f_N|^2.

This exact summation-by-parts identity is what makes the Cayley time
step unitary and mass conservation exact in the evolution module.

The grid stores M_{b,0}, the form at V = 0: its diagonal as
stiffness_diag and its off-diagonal as -face_weights.  factor_shifted
factors M + shift diag(mu) from these bands once and solves each
right-hand side with the factor; the time stepper adds diag(mu V) to
the diagonal for its own potential.  M v itself is formed in one
place, add_stiffness, from the face fluxes nu_{i+1/2} (v_i - v_{i+1})
and the Dirichlet edge term: diag v minus the neighbour terms would
cancel to about h^2 of their size where v is smooth and lose those
digits.  apply_operator and the ground-state solve's residual both
call it.  The grid also stores r^(2-b) at the nodes, the weight of the
variance, a grid constant because check_grid ties the parameters' b
to the grid's.  A grid keeps its coarse mesh, the mesh of
max(N // 4, 16) cells with the same radius and grading, built the
first time it is read; the ground-state solve climbs grid.coarse,
grid.coarse.coarse, ... and so builds each mesh below a grid once.

The package calls four LAPACK routines: dpttrf and dpttrs here, dgtsv
in the Newton polish and zgtsv in the Cayley step.  All four are bound from
scipy's compiled wrapper module scipy.linalg._flapack, loaded by path:
importing scipy.linalg would run its package __init__, which costs
about half of every CLI command's time.  A later import of
scipy.linalg.lapack exposes these same function objects.
"""

from __future__ import annotations

import csv
import importlib.util
import os
import sys
import sysconfig
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import gamma, isfinite, pi
from types import ModuleType

import numpy as np
import scipy

from .params import ProblemParams

__all__ = [
    "GridError",
    "RadialField",
    "RadialGrid",
    "add_stiffness",
    "apply_operator",
    "build_grid",
    "check_grid",
    "check_grid_settings",
    "factor_shifted",
    "field_from_csv",
    "field_to_csv",
    "gradient_norm_sq",
]


class GridError(ValueError):
    """Mesh construction or field/grid consistency failure."""


def load_flapack(scipy_dir: str) -> ModuleType:
    """scipy.linalg._flapack from the scipy package at scipy_dir.

    The module must load under its real name, which its PyInit_ symbol
    carries, and is entered in sys.modules under it, so that a later
    import of scipy.linalg finds this module instead of loading a
    second one.  A missing file raises ImportError naming the path.
    """
    name = "scipy.linalg._flapack"
    path = os.path.join(scipy_dir, "linalg", "_flapack" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.isfile(path):
        raise ImportError(f"LAPACK wrappers not found: {path}", name=name, path=path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = load_flapack(os.path.dirname(scipy.__file__))
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
dgtsv, zgtsv = _flapack.dgtsv, _flapack.zgtsv


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2 * pi ** (n / 2) / gamma(n / 2)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded radial finite-volume mesh with weights for dimension n, exponent b."""

    n: int
    b: float
    r_max: float
    N: int
    grading: float
    nodes: np.ndarray  # cell-center radii, shape (N,)
    faces: np.ndarray  # cell-face radii, shape (N+1,), faces[0] = 0
    measure_weights: np.ndarray  # mu_i, shape (N,)
    face_weights: np.ndarray  # nu_{i+1/2} interior, shape (N-1,)
    outer_face_weight: float  # nu_{N+1/2} with ghost spacing r_max - r_N
    stiffness_diag: np.ndarray  # diagonal of M_{b,0} = diag(mu) A_{b,0}, shape (N,)
    variance_weight: np.ndarray  # r_i^(2-b), the weight of the variance, shape (N,)

    @cached_property
    def coarse(self) -> RadialGrid:
        """The mesh of max(N // 4, 16) cells with this radius and grading,
        built once: its faces are every 4th face of this mesh when 4
        divides N.  cached_property writes the instance __dict__, which
        the frozen dataclass leaves open."""
        return build_grid(self.n, self.b, self.r_max, max(self.N // 4, 16), self.grading)


def check_grid_settings(n: int, b: float, r_max: float, N: int, grading: float) -> None:
    """Refuse mesh settings build_grid cannot use, with GridError."""
    if N < 16:
        raise GridError(f"N={N} too small (need >= 16)")
    if not r_max > 0:
        raise GridError(f"r_max={r_max} must be positive")
    if grading < 1:
        raise GridError(f"grading={grading} must be >= 1")
    if not n - 1 + b > 0:
        raise GridError(f"n-1+b = {n - 1 + b} <= 0: inner flux weight would not vanish")


def build_grid(
    n: int,
    b: float,
    r_max: float = 30.0,
    N: int = 4096,
    grading: float = 2.0,
) -> RadialGrid:
    """Construct the graded mesh and all quadrature/flux weights."""
    check_grid_settings(n, b, r_max, N, grading)

    i = np.arange(N + 1, dtype=float)
    faces = r_max * (i / N) ** grading
    nodes = 0.5 * (faces[:-1] + faces[1:])
    if not np.all(np.diff(faces) > 0):
        raise GridError("degenerate mesh: faces not strictly increasing")

    S = sphere_area(n)
    mu = S * (faces[1:] ** n - faces[:-1] ** n) / n
    dr = np.diff(nodes)
    nu = S * faces[1:-1] ** (n - 1 + b) / dr
    nu_out = S * faces[-1] ** (n - 1 + b) / (faces[-1] - nodes[-1])

    diag = np.zeros(N)
    diag[:-1] += nu
    diag[1:] += nu
    diag[-1] += nu_out

    total = float(np.sum(mu))
    exact = S * r_max**n / n
    if abs(total - exact) > 1e-12 * exact:
        raise GridError("cell measures do not telescope to the ball volume")

    return RadialGrid(
        n=n,
        b=b,
        r_max=r_max,
        N=N,
        grading=grading,
        nodes=nodes,
        faces=faces,
        measure_weights=mu,
        face_weights=nu,
        outer_face_weight=float(nu_out),
        stiffness_diag=diag,
        variance_weight=nodes ** (2 - b),
    )


@dataclass(frozen=True)
class RadialField:
    """Complex amplitudes on the nodes of one grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.N,):
            raise GridError(
                f"field length {values.shape} does not match grid N={self.grid.N}"
            )
        if not np.all(np.isfinite(values)):
            raise GridError("field contains non-finite values")


def check_grid(grid: RadialGrid, params: ProblemParams) -> None:
    """Refuse a grid whose dimension n or weight exponent b is not that of params."""
    if grid.n != params.n or grid.b != params.b:
        raise GridError(
            f"grid built for (n={grid.n}, b={grid.b}) but params have "
            f"(n={params.n}, b={params.b})"
        )


def gradient_norm_sq(g: RadialGrid, values: np.ndarray) -> float:
    """Discrete ||grad f||^2_{b,2} of the node values (real or complex) of f
    on g: face-difference sum plus the Dirichlet edge term.  Values are
    not validated; non-finite values give a non-finite result."""
    d = values[1:] - values[:-1]
    if d.dtype.kind == "c":
        sq = d.real * d.real
        sq += d.imag * d.imag
    else:
        sq = d * d
    return float(np.dot(g.face_weights, sq) + g.outer_face_weight * abs(values[-1]) ** 2)


def add_stiffness(g: RadialGrid, values: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """acc + M_{b,0} v for node values v (real or complex) on g, added into
    acc in place and returned.  M v is formed from the face fluxes
    nu_{i+1/2} (v_i - v_{i+1}) and the Dirichlet edge term, so it does
    not cancel where v is nearly constant: a constant v gives exact zeros
    on every node but the last.  Values are not validated."""
    flux = g.face_weights * (values[:-1] - values[1:])
    acc[:-1] += flux
    acc[1:] -= flux
    acc[-1] += g.outer_face_weight * values[-1]
    return acc


def apply_operator(g: RadialGrid, values: np.ndarray) -> np.ndarray:
    """A_{b,0} v for node values v (real or complex) on g, computed as
    (M v) * (1 / mu).  Values are not validated."""
    return add_stiffness(g, values, np.zeros_like(values)) * (1.0 / g.measure_weights)


def factor_shifted(g: RadialGrid, shift: float) -> Callable[[np.ndarray], np.ndarray]:
    """The solver of (A_{b,0} + shift) x = rhs on g, for real rhs and shift > 0.

    Works on the symmetric form: M + shift diag(mu) is symmetric positive
    definite tridiagonal, factored once by LAPACK dpttrf, and each
    right-hand side mu * rhs is one dpttrs solve with that factor, the
    same bits as one dptsv call.  A system that is not positive definite
    raises GridError naming dpttrf.
    """
    mu = g.measure_weights
    # dpttrf overwrites both bands, and each is this factor's own
    d, e, info = dpttrf(g.stiffness_diag + shift * mu, -g.face_weights, 1, 1)
    if info != 0:
        raise GridError(f"shifted factorization failed (dpttrf info {info})")

    def solve(rhs: np.ndarray) -> np.ndarray:
        # dpttrs overwrites the right-hand side, which is this call's own;
        # its info is nonzero only for an illegal argument
        return dpttrs(d, e, mu * rhs, 1)[0]

    return solve


def field_to_csv(f: RadialField, path) -> None:
    """Serialize a field as CSV rows (r, re(u), im(u)) with a header."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "re", "im"])
        for r, v in zip(f.grid.nodes, f.values):
            w.writerow([f"{r:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])


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
                if not all(map(isfinite, values)):
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
