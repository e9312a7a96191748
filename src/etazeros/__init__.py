"""etazeros: the alternating-kernel Mellin integral F(s) = ∫ t^(s-1)/(e^t+1) dt,
its exact coefficient series, oscillation-paired decomposition, identity and
inequality verification, and critical-line zero location for the Riemann zeta
function.

The names below are re-exported lazily (PEP 562): each layer is imported on
first use of one of its names, so importing the package, or only the
stdlib-only ``coeffs`` layer, does not load numpy.  Neither do
``quadrature`` and ``decomposition``: they load it on first use of an array
path, which large integrals take (the rule is in ``quadrature``'s
docstring); small ones run on floats alone, and so does every eta sum of
``zerofinder``.
"""

import importlib

_EXPORTS = {
    "coeffs": ("CoefficientTable", "bernoulli", "coefficient_ratio",
               "g_deriv_at_zero", "g_over_factorial", "zeta_even"),
    "quadrature": ("IntegrandSpec", "QuadratureError",
                   "integrate_finite", "integrate_to_infinity"),
    "report": ("CheckRow", "VerificationReport"),
    "special": ("F", "Gamma", "zeta_from_F"),
    "series": ("series_lower_integral",),
    "decomposition": ("DecompositionPlan", "choose_K_R", "interval_average",
                      "make_plan", "upper_integral"),
    "zerofinder": ("LocatedZero", "ZeroBracket", "eta_oracle", "refine_zero",
                   "scan_critical_line"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}

__all__ = list(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
