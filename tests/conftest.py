"""Shared fixtures: the parameter sets and cached ground-state solves of
the acceptance suite, so tests and `inls-lab verify` share one cache."""

from __future__ import annotations

import sys

import pytest

# Re-exported to the test modules, which import them from here.
from inls_lab.verification import (  # noqa: F401
    F1,
    F2,
    F3,
    MASS_CRITICAL as MC,
    NMINUS as NM,
    STANDING,
    _grid as grid_for,
    _solve as solve,
)

# A certified ground-state solve and a short march, for the tests that
# run them in a fresh interpreter to see which modules they load.
SOLVE_AND_MARCH = """
from inls_lab import (
    EvolutionConfig, PotentialSpec, ProblemParams, RadialField,
    build_grid, evolve, petviashvili_solve,
)
params = ProblemParams(n=3, b=0.0, c=0.0, p=2.0)
grid = build_grid(3, 0.0, r_max=30.0, N=4096, grading=2.0)
gs = petviashvili_solve(params, grid=grid)
u0 = RadialField(grid, 0.5 * gs.profile.values)
evolve(u0, EvolutionConfig(dt0=1e-3, t_end=0.02), params, PotentialSpec.zero())
"""


@pytest.fixture(scope="session")
def gs_f1():
    return solve(F1, 4096)


@pytest.fixture(scope="session")
def gs_f2():
    return solve(F2, 4096)


@pytest.fixture(scope="session")
def gs_mc():
    return solve(MC, 4096)


@pytest.fixture
def count_calls(monkeypatch):
    """Install counting wrappers around the named functions under every
    binding in the loaded inls_lab modules; returns the live counts.

    record, if given, receives (name, args) of every counted call.  A
    name that no loaded module binds raises LookupError, so a renamed or
    deleted function fails the test instead of counting 0."""

    def install(*names, record=None):
        calls = dict.fromkeys(names, 0)
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "inls_lab"]
        unbound = set(names)
        for mod in modules:
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    continue
                unbound.discard(name)

                def wrapper(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    if record is not None:
                        record(_name, args)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, wrapper)
        if unbound:
            raise LookupError(f"bound in no loaded inls_lab module: {sorted(unbound)}")
        return calls

    return install
