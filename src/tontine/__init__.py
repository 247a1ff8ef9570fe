"""Optimal equity, consumption, and tontine-allocation controls for a modern
tontine with time-dependent bequest preferences: closed forms, calibration,
Monte Carlo verification, and figure-level CSV reproduction.
"""

from .analytics import (
    FEASIBLE_GAMMAS,
    BENCHMARK_GAMMAS,
    IncomeCurve,
    alpha_curve,
    expected_discounted_bequest_value,
    expected_discounted_income,
    expected_wealth,
    income_csv,
    income_curve,
    income_log_slope,
)
from .controls import (
    ControlSchedule,
    MarketParams,
    beta,
    build_control_schedule,
    merton_fraction,
    schedule_csv,
)
from .mortality import (
    GompertzMakehamFit,
    GompertzMakehamParams,
    LifeTable,
    LifeTableError,
    cumulative_hazard,
    fit_gompertz_makeham,
    fit_to_csv,
    force_of_mortality,
    survival,
)
from .preferences import (
    CalibrationRequired,
    KappaCalibration,
    PreferenceSchedule,
    auto_rho,
    bequest_weight,
    calibrate_kappa,
    log_transformed_weight,
)
from .simulate import (
    REPORT_TIMES,
    DeterministicControls,
    SimulationConfig,
    SimulationError,
    SimulationResult,
    check_supermartingale,
    objective_estimate,
    optimality_audit,
    scaled_controls,
    simulate_wealth,
    summary_csv,
    value_function,
)

__version__ = "0.1.0"
