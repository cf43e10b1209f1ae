"""Extrapolated yield curves, their directional sensitivities, and hedges."""

from .curves import (
    DEFAULT_HORIZON,
    CashFlow,
    CurveShift,
    DiscountedFlow,
    ForwardCurve,
    TimeGrid,
    convexity,
    dollar_duration,
    duration,
    excess_duration,
    present_value,
    stieltjes_integral,
)
from .errors import (
    AlphaNotWellDefinedError,
    CalibrationError,
    CurveHedgeError,
    DefectiveCurveError,
    DomainError,
    EvaluationError,
    InputFormatError,
    PlanKindError,
    UndefinedDurationError,
)
from .extrapolation import (
    DefectReport,
    ExtrapolatedCurve,
    MethodSpec,
    SwDiscreteFit,
    arbitrage_scan,
    extrapolate,
    sw_alpha_calibrate,
    sw_fit_discrete,
    sw_kernel,
)
from .hedging import (
    FraContract,
    HedgePlan,
    InfeasibilityReport,
    PlanDensity,
    PlanLump,
    PLAN_FIRST_ORDER,
    PLAN_INFEASIBLE,
    PLAN_PERFECT,
    convexity_gap,
    fra_replicate,
    hedge,
    infeasibility_decomposition,
    verify_first_order,
    verify_perfect,
)
from .methods import (
    M1,
    M2,
    M3,
    M4,
    M5_SFSA,
    M6_SW_CONTINUOUS,
    M6_SW_DISCRETE,
    sw_variation_coefficient,
)
from .sensitivity import UfrSensitivityReport, parameter_sensitivity, ufr_sensitivity
from .shifts import gaussian_bump_shift, shift_suite
from .variation import (
    EPS_SCHEDULE,
    VariationReport,
    clamp_functional,
    clamp_variation,
    method_variation,
    method_variation_pv,
    numeric_variation,
    second_order_pv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
