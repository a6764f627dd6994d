"""Every exported name resolves.

Traced benchmark runs wrap the public functions of each working module by
its ``__all__``, so a stale name there breaks them as well as imports.
"""

import importlib

import pytest

import pinchgt

# the modules that do work; policy and errors hold only data
TRACED_MODULES = ("cli", "matrixio", "verify", "pinching", "tensor", "functions", "spectral", "core")


def test_package_all_resolves():
    missing = [name for name in pinchgt.__all__ if not hasattr(pinchgt, name)]
    assert missing == []
    assert len(set(pinchgt.__all__)) == len(pinchgt.__all__)


@pytest.mark.parametrize("layer", TRACED_MODULES)
def test_module_all_resolves(layer):
    mod = importlib.import_module(f"pinchgt.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
