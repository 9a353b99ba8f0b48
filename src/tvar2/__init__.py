"""Exact solutions, forecasts and moments of time-varying AR(2) processes.

``import tvar2`` loads ``tvar2.xi`` and what it imports, ``tvar2._oracles``
and ``tvar2.schedules``: enough to build a schedule and walk the ξ kernel.
Every other name in ``__all__`` loads its module on first access, through
the module ``__getattr__`` below (PEP 562), so a caller that only builds
schedules and simulates never imports PyYAML, ``config`` or ``blockdet``.
None of the three modules, nor ``config``, imports numpy at module level:
a schedule keeps its tables as Python floats, so importing tvar2, loading
a config and building schedules leave numpy unloaded, and the first call
that hands out an array (``Schedule.window``, ``green_functions``, an
oracle) loads it.

``xi`` names both a submodule and a function.  ``.xi`` is imported
eagerly so that the function is bound over the submodule attribute the
import system sets; a lazy ``xi`` would resolve to the submodule once
``tvar2.xi`` had been imported.

``__getattr__`` caches nothing: each access reads the owning module's
attribute again.  So a name patched on its owning module and later
restored, as perfbench/layertrace.py does, reads back as restored here; a
cached copy in this namespace would keep whatever was bound when it was
first read.
"""

import importlib

from .xi import (XiTable, constant_xi, green_functions, xi, xi_second,
                 xi_determinant_oracle, xi_second_determinant_oracle,
                 xi_stream)

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_OWNER = {name: module for module, names in (
    ("blockdet", ("BlockSpec", "block_determinant_oracle", "block_spec",
                  "decomposition_report", "segment_layout",
                  "xi_abar_decomposed", "xi_block_decomposed",
                  "xi_car_decomposed", "xi_par_decomposed")),
    ("config", ("ConfigError", "dump", "load", "schedule_from_dict",
                "schedule_to_dict")),
    ("moments", ("Autocovariance", "ForecastResult", "MomentSummary",
                 "assumption_a1_diagnostic", "autocovariance",
                 "autocovariance_recursion", "forecast",
                 "forecast_error_weights", "unconditional_mean",
                 "unconditional_variance")),
    ("schedules", ("BreakSchedule", "CoefficientTuple", "ConstantSchedule",
                   "CyclicalSchedule", "GenericSchedule", "PeriodicSchedule",
                   "Schedule", "ScheduleError", "season_of")),
    ("simulate", ("EmpiricalMoments", "PathEnsemble", "SimulationConfig",
                  "empirical_forecast_error", "empirical_moments",
                  "simulate_paths")),
    ("solution", ("GeneralSolution", "evaluate_solution", "forward_recursion",
                  "general_solution")),
    ("vs", ("StationarityVerdict", "VSMatrices", "build_vs",
            "par24_restriction", "stationarity_check")),
    ("xi", ("XiTable", "constant_xi", "green_functions", "xi", "xi_second",
            "xi_determinant_oracle", "xi_second_determinant_oracle",
            "xi_stream")),
) for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
