"""Numerical laboratory for the weighted-dispersion NLS with a potential.

Modules: params (exponent algebra), potential (assumption checks),
grid (graded finite-volume mesh and discrete operator), functionals
(conserved and variational scalars), groundstate (two independent
stationary solvers), evolve (mass-exact relaxation Cayley flow),
classify (theorem-based verdicts on initial data), cli (batch front
end).
"""

__version__ = "0.1.0"

from .params import Criticality, ProblemParams
from .potential import AssumptionReport, PotentialSpec, check_assumptions
from .grid import RadialField, RadialGrid, build_grid
from .groundstate import GroundState, petviashvili_solve, shooting_solve
from .evolve import EvolutionConfig, EvolutionTrace, evolve
from .classify import Classification, ClassificationEntry, classify_all

__all__ = [
    "Criticality",
    "ProblemParams",
    "AssumptionReport",
    "PotentialSpec",
    "check_assumptions",
    "RadialField",
    "RadialGrid",
    "build_grid",
    "GroundState",
    "petviashvili_solve",
    "shooting_solve",
    "EvolutionConfig",
    "EvolutionTrace",
    "evolve",
    "Classification",
    "ClassificationEntry",
    "classify_all",
    "__version__",
]
