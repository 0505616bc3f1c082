"""Shared fixtures: the parameter sets and cached ground-state solves of
the acceptance suite, so tests and `inls-lab verify` share one cache."""

from __future__ import annotations

import pytest

# Re-exported to the test modules, which import them from here.
from inls_lab.verification import (  # noqa: F401
    F1,
    F2,
    F3,
    MASS_CRITICAL as MC,
    NMINUS as NM,
    _grid as grid_for,
    _solve as solve,
)


@pytest.fixture(scope="session")
def gs_f1():
    return solve(F1, 4096)


@pytest.fixture(scope="session")
def gs_f2():
    return solve(F2, 4096)


@pytest.fixture(scope="session")
def gs_mc():
    return solve(MC, 4096)
