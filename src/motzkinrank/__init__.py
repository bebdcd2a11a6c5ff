"""Exact counting and algebra for colored Motzkin paths of any rank.

A rank-r path uses up and down steps of sizes 1..r plus a level step,
stays on or above the x-axis, and colors each step with one of a fixed
number of colors per step type.  The package counts these paths with an
exact big-integer DP, solves their generating-function system as
truncated power series, rediscovers the algebraic equations the series
satisfy, and guesses and verifies polynomial-coefficient recurrences
for the count sequences (rank 1 gives the Motzkin numbers A001006,
rank 2 gives A104184).

Everything is pure Python.  The four hot loops (series convolution,
the counting DP step, modular and fraction-free elimination) live in
``motzkinrank.backend``; ``BACKEND`` names that implementation.

Names resolve on first use (PEP 562): ``import motzkinrank`` loads no
submodule, and ``motzkinrank.count_paths_dp`` imports ``counting``, and
only what it needs, when it is first read.  Each read looks the name up
on its defining module again, so ``motzkinrank.X`` is always
``motzkinrank.<module>.X``, also after that attribute is replaced.  A
submodule name (``motzkinrank.genfunc``) imports that submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining submodule -> the public names it gives the package
_EXPORTS = {
    "algebraic": (
        "AlgebraicEquation",
        "GuessReport",
        "check_shape_conjecture",
        "guess_algebraic_equation",
        "multiply_equations",
        "rank2_general_equation_check",
        "rank2_general_sextic",
        "reference_equation",
        "reference_equations",
        "verify_algebraic_equation",
    ),
    "backend": ("BACKEND",),
    "counting": (
        "CountTable",
        "WeightSpec",
        "count_paths_dp",
        "count_sequence",
        "rank1_explicit",
        "rank1_recurrence_seq",
        "rank2_prodinger_seq",
    ),
    "errors": (
        "ComposeConstantTerm",
        "GuardExceeded",
        "InsufficientOrder",
        "InsufficientTerms",
        "InvalidPath",
        "InvalidSpec",
        "MotzkinError",
        "NonIntegralStep",
        "NotRankOne",
        "SelfCheckFailed",
        "SingularLeadingCoefficient",
        "SymmetryRequiresAllOnes",
        "UnbalancedPath",
        "UnsupportedRank",
    ),
    "genfunc": (
        "SeriesFamily",
        "SystemOfEquations",
        "build_system",
        "generating_series",
        "rank1_closed_form_series",
        "solve_series",
        "system_residual",
    ),
    "paths": (
        "ColoredPath",
        "RecoloringReport",
        "Step",
        "enumerate_paths",
        "find_pairs",
        "recolor_bijection",
        "recolor_inverse",
        "recoloring_report",
    ),
    "recurrence": (
        "MinimalityReport",
        "Recurrence",
        "apply_recurrence",
        "guess_recurrence",
        "minimality_scan",
        "motzkin_recurrence",
        "prodinger_recurrence",
        "rank1_recurrence",
        "verify_recurrence",
    ),
    "series": ("CoeffSeries", "catalan_series"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if not name.startswith("_"):
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
