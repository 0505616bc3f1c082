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
digits.  The ground-state solve's residual calls it.  The grid also
stores mu r^(2-b) at the nodes, the quadrature weight of the variance,
a grid constant because check_grid ties the parameters' b to the
grid's.  A grid keeps its coarse mesh, the mesh of
max(N // 4, 16) cells with the same radius and grading, built the
first time it is read; the ground-state solve climbs grid.coarse,
grid.coarse.coarse, ... and so builds each mesh below a grid once.

The package calls four LAPACK routines: dpttrf and dpttrs here, dgtsv
in the Newton polish and zgtsv in the Cayley step.  All four are bound from
scipy's compiled wrapper module scipy.linalg._flapack, loaded by path:
importing scipy.linalg would run its package __init__, which costs
about half of every CLI command's time.  A later import of
scipy.linalg.lapack exposes these same function objects.  scipy itself
is located by its import spec, and its package __init__ is not run
either (about 8 ms after numpy, by -X importtime); SCIPY_VERSION, which
each CLI manifest records, comes from scipy/version.py, loaded by path
through the same loader.  A scipy build whose _distributor_init_local
must run before its compiled modules load (one that ships its own
shared libraries that way) is not supported.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import sysconfig
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import gamma, pi
from types import ModuleType

import numpy as np

from .params import ProblemParams

__all__ = [
    "GridError",
    "RadialField",
    "RadialGrid",
    "add_stiffness",
    "build_grid",
    "check_grid",
    "check_grid_settings",
    "factor_shifted",
    "gradient_norm_sq",
]


class GridError(ValueError):
    """Mesh construction or field/grid consistency failure."""


def load_from_scipy(scipy_dir: str, name: str, suffix: str) -> ModuleType:
    """scipy.<name> from the scipy package at scipy_dir, loaded by path from
    the file <name, dots as separators><suffix>, without scipy's __init__.

    The module must load under its real name, which an extension's PyInit_
    symbol carries.  It is not entered in sys.modules; the caller decides.
    A missing file raises ImportError naming the path.
    """
    full_name = "scipy." + name
    path = os.path.join(scipy_dir, *name.split(".")) + suffix
    if not os.path.isfile(path):
        raise ImportError(f"scipy module not found: {path}", name=full_name, path=path)
    spec = importlib.util.spec_from_file_location(full_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scipy_dir() -> str:
    """The directory of the installed scipy package, found by its import
    spec, which runs none of its code; ImportError where there is none."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    return spec.submodule_search_locations[0]


_scipy_dir = scipy_dir()
# The wrappers are entered in sys.modules, so that a later import of
# scipy.linalg finds them instead of loading a second module; version.py
# is not, so that a later import of scipy loads it and sets scipy.version.
_flapack = load_from_scipy(_scipy_dir, "linalg._flapack", sysconfig.get_config_var("EXT_SUFFIX"))
sys.modules[_flapack.__name__] = _flapack
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
dgtsv, zgtsv = _flapack.dgtsv, _flapack.zgtsv
SCIPY_VERSION: str = load_from_scipy(_scipy_dir, "version", ".py").version


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
    variance_weight: np.ndarray  # mu_i r_i^(2-b), the variance's quadrature weight, shape (N,)

    @cached_property
    def coarse(self) -> RadialGrid:
        """The mesh of max(N // 4, 16) cells with this radius and grading,
        built once: its faces are every 4th face of this mesh when 4
        divides N.  cached_property writes the instance __dict__, which
        the frozen dataclass leaves open."""
        return build_grid(self.n, self.b, self.r_max, max(self.N // 4, 16), self.grading)


def check_grid_settings(n: int, b: float, r_max: float, N: int, grading: float) -> None:
    """Refuse mesh settings build_grid cannot use, with GridError: among
    them a largest weight beyond the float range (the ball volume
    S r_max^n / n, the outer face weight S r_max^(n-1+b) / (r_max - r_N)
    and the outer variance weight mu_N r_N^(2-b); the last two exceed the
    ball volume for b > 1 and b < 2 respectively), and an innermost cell
    measure S (r_max N^-grading)^n / n, the smallest of all, below the
    normal floats (a zero measure divides A = M / mu).  Each is formed in
    Python floats, which raise OverflowError or give inf, never a
    warning."""
    if N < 16:
        raise GridError(f"N={N} too small (need >= 16)")
    if not r_max > 0:
        raise GridError(f"r_max={r_max} must be positive")
    if grading < 1:
        raise GridError(f"grading={grading} must be >= 1")
    if not n - 1 + b > 0:
        raise GridError(f"n-1+b = {n - 1 + b} <= 0: inner flux weight would not vanish")

    def refuse_overflow(name: str, weight: Callable[[], float]) -> None:
        try:
            finite = math.isfinite(weight())
        except OverflowError:
            finite = False
        if not finite:
            raise GridError(f"{name} overflows at r_max={r_max}, N={N}, n={n}, b={b}")

    S = sphere_area(n)
    r = float(r_max)
    refuse_overflow("ball volume S r_max^n / n", lambda: S * r**n / n)
    inner = S * (r * (1 / N) ** grading) ** n / n
    if not inner >= sys.float_info.min:
        raise GridError(
            f"innermost cell measure {inner:.3g} underflows at r_max={r_max}, N={N}, "
            f"grading={grading}, n={n}"
        )
    # A normal innermost cell keeps r_max far above the subnormals, so the
    # outer half cell r_max - r_N is positive.
    last = r * ((N - 1) / N) ** grading  # the face below r_max
    r_N = 0.5 * (last + r)  # the outermost node
    refuse_overflow(
        "outer face weight S r_max^(n-1+b) / (r_max - r_N)",
        lambda: S * r ** (n - 1 + b) / (r - r_N),
    )
    refuse_overflow(
        "outer variance weight mu_N r_N^(2-b)",
        lambda: S * (r**n - last**n) / n * r_N ** (2 - b),
    )


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
        variance_weight=mu * nodes ** (2 - b),
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
    on g: face-difference sum plus the Dirichlet edge term.  Complex
    values are made C-contiguous complex128 (a copy only when they are
    not) and differenced through their float view, the real and the
    imaginary part of every face in one pass; each |f_{i+1} - f_i|^2 is
    then re^2 + im^2.  Real values are taken as float64.  Values are not
    validated; non-finite values give a non-finite result."""
    if np.iscomplexobj(values):
        values = np.ascontiguousarray(values, dtype=complex)
        vf = values.view(float)
        d = vf[2:] - vf[:-2]
        d *= d
        sq = d[0::2] + d[1::2]
    else:
        values = np.asarray(values, dtype=float)
        d = values[1:] - values[:-1]
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

