"""Every exported name resolves, so ``from specfilt import *`` and the
same import from any submodule cannot fail on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import specfilt

SUBMODULES = sorted(
    f"specfilt.{info.name}" for info in pkgutil.iter_modules(specfilt.__path__)
    if info.name != "__main__"  # the entry point, which exports nothing
)


@pytest.mark.parametrize("name", ["specfilt"] + SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
