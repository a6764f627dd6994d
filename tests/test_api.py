"""Every exported name resolves, and the public surface is frozen.

Traced benchmark runs wrap the public functions of each working module by
its ``__all__``, so a stale name there breaks them as well as imports, and
a re-exported name missing from it goes untraced.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import pinchgt

# the modules that do work; policy and errors hold only data
TRACED_MODULES = ("cli", "matrixio", "verify", "pinching", "tensor", "functions", "spectral", "core")

PUBLIC_NAMES = [
    "ChainTrace", "Check", "ConvergenceFailure", "DEFAULT_POLICY", "DIM_CAP",
    "DimensionMismatch", "DomainError", "GTReport", "HermitianMatrix",
    "MatrixFileError", "NotFinite", "NotHermitian", "NotPSD",
    "NotPositiveDefinite", "NotSquare", "NumericPolicy", "PinchError",
    "PinchOperator", "SizeOverflow", "SpectralDecomposition", "SpectrumCount",
    "apply_to_decomposition", "binomial_bound", "chain_checks",
    "construct_hermitian", "convergence_study", "count_distinct_spectrum",
    "decompose", "eigh", "eigvals", "finite_power_certificate", "gt_check",
    "load_matrix", "matrix_digest", "pinch", "pinch_via_mixture",
    "pinching_checks", "random_hermitian", "random_pd", "random_psd",
    "random_unitary", "require_positive_definite", "tensor_power", "write_matrix",
]

# imported names that a module neither reads nor exports, each kept for the
# reader named above it
UNUSED_IMPORTS_KEPT = {
    # bench/tests/test_bench.py::test_install_then_uninstall_leaves_pinchgt_unchanged
    "pinchgt.functions.decompose",
}


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


@pytest.mark.parametrize(
    "name", ["pinchgt", *(f"pinchgt.{m.name}" for m in pkgutil.iter_modules(pinchgt.__path__))]
)
def test_no_dead_imports(name):
    """Every name a module binds by import is read in it or listed in its __all__."""
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - read - set(getattr(module, "__all__", ()))
    assert {f"{name}.{n}" for n in unused} <= UNUSED_IMPORTS_KEPT


def _module_trees():
    for info in pkgutil.iter_modules(pinchgt.__path__):
        module = importlib.import_module(f"pinchgt.{info.name}")
        yield module, ast.parse(inspect.getsource(module))
    yield pinchgt, ast.parse(inspect.getsource(pinchgt))


def test_no_dead_definitions():
    """Every module-level name outside its module's __all__ is read somewhere in
    the package: loaded by name, or imported by another module."""
    read = set()
    for _, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in _module_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{module.__name__}.{name}"
                for name in names
                if not (name.startswith("__") or name in getattr(module, "__all__", ()))
                and name not in read
            ]
    assert unread == []


def test_traced_attributes_are_kept(monkeypatch):
    """The attributes the traced benchmark's hooks read from call arguments
    and results, with the types the hooks compute with: the pinch operator's
    ``base`` and ``dim``; the decomposition's ``vectors``, ``multiplicities``,
    ``source_dim`` and ``n``; the spectrum count's ``distinct_count``.

    The benchmark's tests also build a ``SpectrumCount`` positionally as
    ``(m, distinct_count, log_bound, d_distinct)``, and substitute
    ``verify.count_distinct_spectrum``, so verify must look that name up
    when it is called."""
    op = pinchgt.PinchOperator(pinchgt.decompose(pinchgt.random_pd(3, 0)))
    assert isinstance(op.base, pinchgt.SpectralDecomposition)
    assert op.dim == 3
    dec = op.base
    assert dec.vectors.shape == (3, 3)
    assert dec.multiplicities.tolist() == [1, 1, 1]
    assert dec.source_dim == 3
    assert dec.n == 3 and isinstance(dec.n, int)
    count = pinchgt.count_distinct_spectrum(dec, 2)
    assert count.distinct_count == 6 and isinstance(count.distinct_count, int)
    assert pinchgt.SpectrumCount(2, 6, count.log_bound, 3) == count

    def one_more(dec, m, policy):
        exact = pinchgt.count_distinct_spectrum(dec, m, policy)
        return pinchgt.SpectrumCount(m, exact.distinct_count + 1, exact.log_bound, dec.n)

    a, b = pinchgt.random_pd(3, 1), pinchgt.random_pd(3, 2)
    report = pinchgt.gt_check(a, b)
    exact_a = pinchgt.count_distinct_spectrum(pinchgt.decompose(a), 2).distinct_count
    exact_exp_a = pinchgt.count_distinct_spectrum(report.exp_a, 2).distinct_count
    monkeypatch.setattr(pinchgt.verify, "count_distinct_spectrum", one_more)
    (row,) = pinchgt.convergence_study(a, b, [2])
    assert row.spectrum_count == exact_a + 1
    check = pinchgt.finite_power_certificate(report, 2)
    assert check.residual == report.lhs - (exact_exp_a + 1) ** (1.0 / 2) * report.rhs
