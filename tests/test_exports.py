"""Public surface: every exported name resolves and no export list repeats a name."""

import importlib

import pytest

import openchaos

SUBMODULES = ("rmt", "states", "pqc", "dephasing", "diagnostics", "spectral", "cli")


@pytest.mark.parametrize("name", ("openchaos",) + tuple(f"openchaos.{m}" for m in SUBMODULES))
def test_export_list_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_every_library_module_list_in_order():
    # the package keeps no list of its own: each library module's __all__, cli excluded
    modules = [importlib.import_module(f"openchaos.{m}") for m in SUBMODULES if m != "cli"]
    assert openchaos.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert all(getattr(openchaos, n) is getattr(m, n) for m in modules for n in m.__all__)
