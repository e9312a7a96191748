"""etazeros: the alternating-kernel Mellin integral F(s) = ∫ t^(s-1)/(e^t+1) dt,
its exact coefficient series, oscillation-paired decomposition, identity and
inequality verification, and critical-line zero location for the Riemann zeta
function."""

from .coeffs import (
    CoefficientTable,
    bernoulli,
    coefficient_ratio,
    g_deriv_at_zero,
    g_over_factorial,
    zeta_even,
)
from .quadrature import (
    IntegrandSpec,
    QuadratureError,
    integrate_finite,
    integrate_to_infinity,
)
from .report import CheckRow, VerificationReport
from .special import ComplexPoint, ComplexValue, F, G, Gamma, zeta_strip
from .series import SeriesEval, choose_K_R, series_lower_integral
from .decomposition import DecompositionPlan, interval_average, make_plan, upper_integral
from .zerofinder import LocatedZero, ZeroBracket, eta_oracle, refine_zero, scan_critical_line

__all__ = [
    "CoefficientTable", "bernoulli", "coefficient_ratio", "g_deriv_at_zero",
    "g_over_factorial", "zeta_even",
    "IntegrandSpec", "QuadratureError",
    "integrate_finite", "integrate_to_infinity",
    "CheckRow", "VerificationReport",
    "ComplexPoint", "ComplexValue", "F", "G", "Gamma", "zeta_strip",
    "SeriesEval", "choose_K_R", "series_lower_integral",
    "DecompositionPlan", "interval_average", "make_plan", "upper_integral",
    "LocatedZero", "ZeroBracket", "eta_oracle", "refine_zero", "scan_critical_line",
]

__version__ = "0.1.0"
