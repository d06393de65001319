"""The package surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import vizing

MODULES = ["vizing"] + [f"vizing.{m.name}" for m in pkgutil.iter_modules(vizing.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is deleted would
    break only ``from ... import *``; catch it here."""
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
