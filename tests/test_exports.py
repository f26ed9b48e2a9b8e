"""Public surface: every exported name resolves and no export list repeats a name."""

import importlib

import pytest

SUBMODULES = ("rmt", "states", "pqc", "dephasing", "diagnostics", "spectral", "cli")


@pytest.mark.parametrize("name", ("openchaos",) + tuple(f"openchaos.{m}" for m in SUBMODULES))
def test_export_list_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []

