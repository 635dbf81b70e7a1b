"""Numerical toolkit for almost-prime Hardy–Littlewood triples (p, p+2, p+6).

Recomputes every constant of the weighted-sieve bound pipeline (linear-sieve
curves, Buchstab function, nested iterated integrals, Euler products, the
sixteen term coefficients and their combination) and counts the triples
themselves at desk scale with a segmented factor sieve.
"""

from .constants import (
    EulerProductResult,
    coefficient_E,
    coefficient_L,
    constant_C0,
    constant_C2,
    constant_C3,
    singular_series_CN,
)
from .engine import (
    OmegaSegment,
    TripleCountResult,
    count_D_1ab,
    count_D_1r,
    count_D_sr,
    count_pi_1ab,
    count_pi_1r,
    ratio_scan,
    sieve_omega,
)
from .errors import CapacityError, DomainError, EvaluationError
from .pipeline import (
    BoundTerm,
    CombinedBounds,
    combine_lemma31,
    term_coefficient,
    upper_bound_constant,
    verification_report,
)
from .quadrature import (
    ChainFamily,
    IntegralSpec,
    chain_value,
    integrate_1d,
    integrate_nested,
    named_integral_value,
)
from .reporting import ConstantCheck
from .sieve_functions import (
    SieveCurveTable,
    buchstab_w,
    build_curve_table,
    lower_f0,
    upper_F0,
    verify_buchstab_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BoundTerm",
    "CapacityError",
    "ChainFamily",
    "CombinedBounds",
    "ConstantCheck",
    "DomainError",
    "EulerProductResult",
    "EvaluationError",
    "IntegralSpec",
    "OmegaSegment",
    "SieveCurveTable",
    "TripleCountResult",
    "buchstab_w",
    "build_curve_table",
    "chain_value",
    "coefficient_E",
    "coefficient_L",
    "combine_lemma31",
    "constant_C0",
    "constant_C2",
    "constant_C3",
    "count_D_1ab",
    "count_D_1r",
    "count_D_sr",
    "count_pi_1ab",
    "count_pi_1r",
    "integrate_1d",
    "integrate_nested",
    "lower_f0",
    "named_integral_value",
    "ratio_scan",
    "sieve_omega",
    "singular_series_CN",
    "term_coefficient",
    "upper_F0",
    "upper_bound_constant",
    "verification_report",
    "verify_buchstab_bounds",
]
