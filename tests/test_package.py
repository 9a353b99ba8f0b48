"""What ``import tvar2`` loads, and the names the package exports."""

import importlib
import os
import re
import shlex
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


def test_numpy_loads_on_the_first_window_call():
    # importing tvar2, loading every README config and building every kind
    # read Python floats only; the first array a schedule hands out loads
    # numpy
    with open(os.path.join(ROOT, "README.md")) as fh:
        configs = re.findall(r"```yaml\n(.*?)```", fh.read(), re.S)
    run = ("import sys\nimport tvar2, tvar2.config\n"
           f"loaded = [tvar2.config.load(text)[0] for text in {configs!r}]\n"
           "rows = [(0.0, 0.5, -0.2, 1.0), (0.1, -0.3, 0.4, 2.0)]\n"
           "built = [tvar2.ConstantSchedule(0.0, 0.5, -0.2, 1.0),\n"
           "         tvar2.PeriodicSchedule(rows),\n"
           "         tvar2.CyclicalSchedule(5, [2], rows),\n"
           "         tvar2.BreakSchedule(50, 10, [4], rows),\n"
           "         tvar2.GenericSchedule(lambda t: rows[t % 2])]\n"
           "print(sorted(s.kind for s in loaded + built),"
           " 'numpy' in sys.modules)\n"
           "built[1].window(1, 2)\n"
           "print('numpy' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvar2.__file__))}
    done = subprocess.run([sys.executable, "-c", run], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    kinds = sorted(["abrupt-breaks", "constant", "cyclical", "periodic"] * 2
                   + ["generic"])
    assert done.stdout.splitlines() == [f"{kinds} False", "True"]


def test_readme_commands_do_not_import_argparse(tmp_path):
    # each README command line is read without argparse; help imports it
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"^```sh\n(tvar2 .*?)^```", readme, re.M | re.S)
    (tmp_path / "model.yaml").write_text(next(
        text for text in re.findall(r"```yaml\n(.*?)```", readme, re.S)
        if "kind: periodic" in text))
    commands = [shlex.split(line)[1:] + ["--out", "out.csv"]
                for line in block.group(1).splitlines()]
    run = ("import contextlib, sys\nfrom tvar2.cli import main\n"
           f"for argv in {commands!r}:\n"
           "    assert main(argv) == 0, argv\n"
           "before = 'argparse' in sys.modules\n"
           "with contextlib.suppress(SystemExit):\n"
           "    main(['green', '--help'])\n"
           "print(before, 'argparse' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvar2.__file__))}
    done = subprocess.run([sys.executable, "-c", run], env=env, cwd=tmp_path,
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(commands) == 8
    assert done.stdout.splitlines()[-1] == "False True"


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
