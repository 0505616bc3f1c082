"""The package's public names."""

import importlib
import pkgutil

import pytest

import inls_lab

MODULES = ["inls_lab"] + [f"inls_lab.{m.name}" for m in pkgutil.iter_modules(inls_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_count_calls_refuses_a_name_nothing_binds(count_calls):
    # a deleted or renamed function must fail the test, not count 0
    with pytest.raises(LookupError, match=r"\['solve_shifted'\]"):
        count_calls("build_grid", "solve_shifted")
