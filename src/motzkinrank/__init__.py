"""Exact counting and algebra for colored Motzkin paths of any rank.

A rank-r path uses up and down steps of sizes 1..r plus a level step,
stays on or above the x-axis, and colors each step with one of a fixed
number of colors per step type.  The package counts these paths with an
exact big-integer DP, solves their generating-function system as
truncated power series, rediscovers the algebraic equations the series
satisfy, and guesses and verifies polynomial-coefficient recurrences
for the count sequences (rank 1 gives the Motzkin numbers A001006,
rank 2 gives A104184).

Hot loops run in a compiled extension when it is available; set
MOTZKINRANK_PURE=1 to force the pure Python kernels (``backend.BACKEND``
tells which one is active).
"""

from .algebraic import (
    AlgebraicEquation,
    GuessReport,
    check_shape_conjecture,
    guess_algebraic_equation,
    multiply_equations,
    rank2_general_equation_check,
    rank2_general_sextic,
    reference_equation,
    reference_equations,
    verify_algebraic_equation,
)
from .backend import BACKEND
from .counting import (
    CountTable,
    count_paths_dp,
    count_sequence,
    rank1_explicit,
    rank1_recurrence_seq,
    rank2_prodinger_seq,
)
from .errors import (
    ComposeConstantTerm,
    GuardExceeded,
    InsufficientOrder,
    InsufficientTerms,
    InvalidPath,
    InvalidSpec,
    MotzkinError,
    NonIntegralStep,
    NotRankOne,
    SelfCheckFailed,
    SingularLeadingCoefficient,
    SymmetryRequiresAllOnes,
    UnbalancedPath,
    UnsupportedRank,
)
from .genfunc import (
    SeriesFamily,
    SystemOfEquations,
    build_system,
    generating_series,
    rank1_closed_form_series,
    solve_series,
    system_residual,
)
from .paths import (
    ColoredPath,
    PairMatching,
    RecoloringReport,
    Step,
    WeightSpec,
    enumerate_paths,
    find_pairs,
    recolor_bijection,
    recolor_inverse,
    recoloring_report,
)
from .recurrence import (
    MinimalityReport,
    Recurrence,
    apply_recurrence,
    guess_recurrence,
    minimality_scan,
    motzkin_recurrence,
    prodinger_recurrence,
    rank1_recurrence,
    verify_recurrence,
)
from .series import CoeffSeries, catalan_series

__version__ = "0.1.0"

__all__ = [
    "AlgebraicEquation",
    "BACKEND",
    "ColoredPath",
    "CoeffSeries",
    "ComposeConstantTerm",
    "CountTable",
    "GuardExceeded",
    "GuessReport",
    "InsufficientOrder",
    "InsufficientTerms",
    "InvalidPath",
    "InvalidSpec",
    "MinimalityReport",
    "MotzkinError",
    "NonIntegralStep",
    "NotRankOne",
    "PairMatching",
    "RecoloringReport",
    "Recurrence",
    "SelfCheckFailed",
    "SeriesFamily",
    "SingularLeadingCoefficient",
    "Step",
    "SymmetryRequiresAllOnes",
    "SystemOfEquations",
    "UnbalancedPath",
    "UnsupportedRank",
    "WeightSpec",
    "apply_recurrence",
    "build_system",
    "catalan_series",
    "check_shape_conjecture",
    "count_paths_dp",
    "count_sequence",
    "enumerate_paths",
    "find_pairs",
    "generating_series",
    "guess_algebraic_equation",
    "guess_recurrence",
    "minimality_scan",
    "motzkin_recurrence",
    "multiply_equations",
    "prodinger_recurrence",
    "rank1_closed_form_series",
    "rank1_explicit",
    "rank1_recurrence",
    "rank1_recurrence_seq",
    "rank2_general_equation_check",
    "rank2_general_sextic",
    "rank2_prodinger_seq",
    "recolor_bijection",
    "recolor_inverse",
    "recoloring_report",
    "reference_equation",
    "reference_equations",
    "solve_series",
    "system_residual",
    "verify_algebraic_equation",
    "verify_recurrence",
    "__version__",
]
