"""What ``import tvar2`` loads, and the names the package exports."""

import importlib
import os
import re
import subprocess
import sys

import pytest

import tvar2

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "blockdet": ["BlockSpec", "block_determinant_oracle", "block_spec",
                 "decomposition_report", "segment_layout", "xi_abar_decomposed",
                 "xi_block_decomposed", "xi_car_decomposed", "xi_par_decomposed"],
    "config": ["ConfigError", "dump", "load", "schedule_from_dict",
               "schedule_to_dict"],
    "moments": ["Autocovariance", "ForecastResult", "MomentSummary",
                "assumption_a1_diagnostic", "autocovariance",
                "autocovariance_recursion", "forecast", "forecast_error_weights",
                "unconditional_mean", "unconditional_variance"],
    "schedules": ["BreakSchedule", "CoefficientTuple", "ConstantSchedule",
                  "CyclicalSchedule", "GenericSchedule", "PeriodicSchedule",
                  "Schedule", "ScheduleError", "season_of"],
    "simulate": ["EmpiricalMoments", "PathEnsemble", "SimulationConfig",
                 "empirical_forecast_error", "empirical_moments",
                 "simulate_paths"],
    "solution": ["GeneralSolution", "evaluate_solution", "forward_recursion",
                 "general_solution"],
    "vs": ["StationarityVerdict", "VSMatrices", "build_vs", "par24_restriction",
           "stationarity_check"],
    "xi": ["XiTable", "constant_xi", "green_functions", "xi", "xi_second",
           "xi_determinant_oracle", "xi_second_determinant_oracle", "xi_stream"],
}
OWNERS = [(module, name) for module, names in EXPORTS.items() for name in names]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _loaded_after(*steps: str) -> list:
    """For each step, a fresh interpreter's loaded tvar2 modules and whether
    it loaded PyYAML, after running the steps up to that one."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvar2.__file__))}
    report = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'tvar2'),"
              " 'yaml' in sys.modules)\n")
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + report.join(steps) + report],
        env=env, timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_only_the_xi_kernel_and_the_schedules():
    # a caller that builds the montecarlo schedules and walks xi imports
    # neither PyYAML nor the modules of the other layers
    expect = f"{['tvar2', 'tvar2._oracles', 'tvar2.schedules', 'tvar2.xi']} False"
    assert _loaded_after(
        "import tvar2\n",
        "from tvar2.schedules import (ConstantSchedule, CyclicalSchedule,\n"
        "                             PeriodicSchedule)\n") == [expect, expect]


def test_loading_a_plain_config_loads_only_the_schedules():
    # the README's periodic config is in the subset tvar2.config reads
    # itself; the same config after a document marker is not
    with open(os.path.join(ROOT, "README.md")) as fh:
        periodic = next(text for text in re.findall(r"```yaml\n(.*?)```",
                                                    fh.read(), re.S)
                        if "kind: periodic" in text)
    marked = "---\n" + periodic
    modules = ["tvar2", "tvar2._oracles", "tvar2.config", "tvar2.schedules",
               "tvar2.xi"]
    assert _loaded_after(
        f"import tvar2.config\ntvar2.config.load({periodic!r})\n",
        f"tvar2.config.load({marked!r})\n") == [
        f"{modules} False", f"{modules} True"]


def test_every_exported_name_is_its_owners_object():
    assert len(OWNERS) == 56
    assert sorted(tvar2.__all__) == sorted(name for _, name in OWNERS)
    listed = dir(tvar2)
    for module, name in OWNERS:
        owner = importlib.import_module(f"tvar2.{module}")
        assert getattr(tvar2, name) is getattr(owner, name), name
        assert name in listed, name


def test_star_import_binds_the_exported_names_only():
    # the submodules are not exported: ``from tvar2 import *`` binds no
    # ``blockdet`` or ``config``
    namespace = {}
    exec("from tvar2 import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(tvar2.__all__)
    for name, value in namespace.items():
        assert value is getattr(tvar2, name), name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tvar2.no_such_name
    assert not hasattr(tvar2, "DEFAULT_TOL")      # a submodule's, not exported
