"""Every name a quasikin module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import quasikin


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(quasikin.__path__, "quasikin."))
)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
