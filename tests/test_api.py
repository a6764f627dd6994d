"""Every exported name resolves, and the public surface is frozen.

Traced benchmark runs wrap the public functions of each working module by
its ``__all__``, so a stale name there breaks them as well as imports, and
a re-exported name missing from it goes untraced.
"""

import ast
import importlib
import inspect

import pytest

import pinchgt

# the modules that do work; policy and errors hold only data
TRACED_MODULES = ("cli", "matrixio", "verify", "pinching", "tensor", "functions", "spectral", "core")

PUBLIC_NAMES = [
    "ChainTrace", "Check", "ConvergenceFailure", "DEFAULT_POLICY", "DIM_CAP",
    "DimensionMismatch", "DomainError", "GTReport", "HermitianMatrix",
    "MatrixFileError", "NonRealTrace", "NotFinite", "NotHermitian", "NotPSD",
    "NotPositiveDefinite", "NotSquare", "NumericPolicy", "PinchError",
    "PinchOperator", "SizeOverflow", "SpectralDecomposition", "SpectrumCount",
    "apply_to_decomposition", "binomial_bound", "chain_checks", "chain_trace",
    "construct_hermitian", "convergence_study", "count_distinct_spectrum",
    "decompose", "eigh", "eigvals", "finite_power_certificate", "gt_check",
    "herm_exp", "herm_log", "identity", "load_matrix", "matrix_digest", "pinch",
    "pinch_operator", "pinch_via_mixture", "pinching_checks", "random_hermitian",
    "random_pd", "random_psd", "random_unitary", "require_positive_definite",
    "scale", "tensor_power", "write_matrix",
]


def test_package_all_resolves():
    missing = [name for name in pinchgt.__all__ if not hasattr(pinchgt, name)]
    assert missing == []
    assert len(set(pinchgt.__all__)) == len(pinchgt.__all__)


@pytest.mark.parametrize("layer", TRACED_MODULES)
def test_module_all_resolves(layer):
    mod = importlib.import_module(f"pinchgt.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_public_surface_is_frozen():
    assert sorted(pinchgt.__all__) == PUBLIC_NAMES


def test_reexports_are_in_their_module_all():
    tree = ast.parse(inspect.getsource(pinchgt))
    missing = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in TRACED_MODULES
        for alias in node.names
        if alias.name not in importlib.import_module(f"pinchgt.{node.module}").__all__
    ]
    assert missing == []
