"""Exact solutions, forecasts and moments of time-varying AR(2) processes."""

from .blockdet import (BlockSpec, block_determinant_oracle, block_spec,
                       decomposition_report, segment_layout,
                       xi_abar_decomposed, xi_block_decomposed,
                       xi_car_decomposed, xi_par_decomposed)
from .config import ConfigError, dump, load, schedule_from_dict, schedule_to_dict
from .moments import (Autocovariance, ForecastResult, MomentSummary,
                      assumption_a1_diagnostic, autocovariance,
                      autocovariance_recursion, forecast,
                      forecast_error_weights, unconditional_mean,
                      unconditional_variance)
from .schedules import (BreakSchedule, CoefficientTuple, ConstantSchedule,
                        CyclicalSchedule, GenericSchedule, PeriodicSchedule,
                        Schedule, ScheduleError, season_of)
from .simulate import (EmpiricalMoments, PathEnsemble, SimulationConfig,
                       empirical_forecast_error, empirical_moments,
                       simulate_paths)
from .solution import (GeneralSolution, evaluate_solution, forward_recursion,
                       general_solution)
from .vs import (StationarityVerdict, VSMatrices, build_vs, par24_restriction,
                 stationarity_check)
from .xi import (XiTable, constant_xi, green_functions, xi, xi_second,
                 xi_determinant_oracle, xi_second_determinant_oracle,
                 xi_stream)

__version__ = "0.1.0"
