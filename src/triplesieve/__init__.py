"""Numerical toolkit for almost-prime Hardy–Littlewood triples (p, p+2, p+6).

Recomputes every constant of the weighted-sieve bound pipeline (linear-sieve
curves, Buchstab function, nested iterated integrals, Euler products, the
sixteen term coefficients and their combination) and counts the triples
themselves at desk scale with a segmented factor sieve.

The public names are loaded on first use (PEP 562): ``import triplesieve``
imports neither numpy nor a submodule, so a command pays only for the modules
it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "constants": (
        "EulerProductResult", "coefficient_E", "coefficient_L", "constant_C0",
        "constant_C2", "constant_C3", "singular_series_CN",
    ),
    "engine": (
        "OmegaSegment", "TripleCountResult", "count_D_1ab", "count_D_1r", "count_D_sr",
        "count_pi_1ab", "count_pi_1r", "ratio_scan", "sieve_omega",
    ),
    "errors": ("CapacityError", "DomainError", "EvaluationError"),
    "pipeline": (
        "BoundTerm", "CombinedBounds", "combine_lemma31", "term_coefficient",
        "upper_bound_constant", "verification_report",
    ),
    "quadrature": (
        "ChainFamily", "IntegralSpec", "chain_value", "integrate_1d", "integrate_nested",
        "named_integral_value",
    ),
    "reporting": ("ConstantCheck",),
    "sieve_functions": (
        "buchstab_w", "lower_f0", "upper_F0", "verify_buchstab_bounds",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
