"""orthoforms: exact arithmetic behind free algebras of orthogonal modular forms.

The pipeline: even lattices and their discriminant data (lattice), root
detection and rescaled irreducible types with modified Coxeter numbers
(roots), the q^0 layer of Borcherds products with Weyl vectors and weights
(weyl), exact truncated Fourier expansions with Jacobian determinants
(series), and the re-derivation of the 26-pair classification (classify).

Submodules run at first use: importing the package registers each one
with ``importlib.util.LazyLoader``, so ``import orthoforms`` runs none of
them, and a submodule's code runs when one of its attributes is first
read.  The names below are served the same way, through ``__getattr__``.
``cli`` is not registered: ``python -m orthoforms.cli`` must find it
unloaded.
"""

import importlib.util
import sys

# the public names, by the submodule that defines them
_EXPORTS = {
    "lattice": (
        "DegenerateLatticeError",
        "DiscriminantGroup",
        "Lattice",
        "NotPositiveDefiniteError",
        "builtin_lattice",
        "builtin_names",
        "discriminant_group",
        "lattice_from_json",
        "rescale",
        "short_vectors",
    ),
    "roots": (
        "DualRoot",
        "IrreducibleComponent",
        "RootDatum",
        "SubcaseRequiredError",
        "UnrecognizedRootSystemError",
        "build_dual_set",
        "coxeter_number",
        "decompose",
        "detect_roots",
        "modified_coxeter",
        "modified_coxeter_value",
        "realize",
        "sum_rule_constant",
    ),
    "weyl": (
        "QZeroData",
        "SumRuleReport",
        "WeylVector",
        "character_data",
        "quadratic_weyl_constant",
        "qzero_from_dual_sets",
        "solve_weight",
        "weyl_vector",
    ),
    "series": (
        "Monomial",
        "SeriesOverflowError",
        "TruncatedSeries",
        "WeightedSeries",
        "ZeroSeriesError",
        "expand_product",
        "jacobian",
        "log_derivative_residual",
        "monomial",
        "one",
        "series_from_json",
        "series_to_json",
        "syzygy_sum",
        "zero",
    ),
    "classify": (
        "CandidateSystem",
        "ClassificationRecord",
        "ClassificationReport",
        "enumerate_candidates",
        "full_table",
        "ledger_arithmetic_checks",
        "resolve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule, in sys.modules, to run at its first attribute read: the importlib "lazy import" recipe."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in ("linalg", "lattice", "roots", "weyl", "series", "classify"))


def __getattr__(name):
    """A public name, read from its submodule (which then runs) and kept here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
