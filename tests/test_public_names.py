"""Each public name of the package is written once, in ``weakprobe._DEFERRED``:
a module's ``__all__`` is its row of that table, then the names it exports
that the package does not."""

from __future__ import annotations

import importlib

import pytest

import weakprobe

# The names a module exports beside its row, in the order it lists them.
MODULE_ONLY = {
    "hydrogen": ("PLUS", "MINUS", "SIGMA_Z"),
    "operators": ("HERM_TOL", "TRACE_TOL", "PSD_TOL", "ZERO_TOL", "DEGENERACY_TOL"),
    "superops": ("vectorize", "unvectorize"),
}

# An __all__ in errors would put the exception classes under the boundary
# checks of tests/test_operators.py's public_callables; cli exports nothing.
WITHOUT_ALL = ("errors", "cli")


@pytest.mark.parametrize("name", sorted(set(weakprobe._DEFERRED) - set(WITHOUT_ALL)))
def test_all_is_the_row_and_the_module_only_names(name):
    module = importlib.import_module(f"weakprobe.{name}")
    assert module.__all__ == [*weakprobe._DEFERRED[name], *MODULE_ONLY.get(name, ())]


@pytest.mark.parametrize("name", WITHOUT_ALL)
def test_errors_and_cli_have_no_all(name):
    assert not hasattr(importlib.import_module(f"weakprobe.{name}"), "__all__")
