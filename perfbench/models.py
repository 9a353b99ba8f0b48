"""Schedules and YAML configs the workloads run on, and their set-up.

tvar2 is imported only inside the functions here, so that setup_probe.py
can import this module before it starts its clock and time importing
tvar2 and building the workload's schedules, nothing of the benchmark's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Model:
    """A schedule with what its oracles need to know about it."""
    name: str
    schedule: Any
    period: int | None = None     # of the coefficients, for the period-matrix oracles
    explosive: bool = False       # the right series answer is converged=False


README_PERIODIC = [(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                   (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)]
README_CYCLES = [(0.0, 0.5, -0.2, 1.0), (0.0, -0.3, 0.4, 1.0),
                 (0.0, 0.8, -0.1, 1.0)]
README_REGIMES = [(0.0, 0.5, -0.2, 1.0), (0.0, -0.4, 0.3, 1.0),
                  (0.0, 0.9, -0.5, 1.0)]
NEAR_UNIT_ROOT = (0.01, 1.0, -0.02, 1.0)   # roots 0.980 and 0.020


def readme_models() -> dict:
    from tvar2.schedules import (BreakSchedule, ConstantSchedule, CyclicalSchedule,
                                 PeriodicSchedule)
    return {
        "periodic": Model("periodic", PeriodicSchedule(README_PERIODIC), 4),
        "cyclical": Model("cyclical", CyclicalSchedule(6, [2, 4], README_CYCLES), 6),
        "breaks": Model("breaks", BreakSchedule(50, 10, [3, 7], README_REGIMES)),
        "constant": Model("constant", ConstantSchedule(0.0, 1.2, -0.32, 1.0)),
    }


def montecarlo_models() -> dict:
    from tvar2.schedules import ConstantSchedule
    models = readme_models()
    return {"periodic": models["periodic"], "cyclical": models["cyclical"],
            "near-unit-root": Model("near-unit-root", ConstantSchedule(*NEAR_UNIT_ROOT))}


# --- CLI configs -------------------------------------------------------------

def _season_yaml(tup) -> str:
    return "{phi0: %r, phi1: %r, phi2: %r, sigma2: %r}" % tuple(tup)


def _yaml_list(key: str, tuples) -> str:
    return f"  {key}:\n" + "".join(f"    - {_season_yaml(t)}\n" for t in tuples)


def _constant_yaml(phi0, phi1, phi2, sigma2) -> str:
    return ("schema_version: 1\nschedule:\n  kind: constant\n"
            f"  phi0: {phi0!r}\n  phi1: {phi1!r}\n  phi2: {phi2!r}\n  sigma2: {sigma2!r}\n")


CLI_CONFIGS = {
    "constant": _constant_yaml(0.0, 1.2, -0.32, 1.0),
    "periodic": "schema_version: 1\nschedule:\n  kind: periodic\n"
                + _yaml_list("seasons", README_PERIODIC),
    "cyclical": "schema_version: 1\nschedule:\n  kind: cyclical\n  period: 6\n"
                "  boundaries: [2, 4]\n" + _yaml_list("cycles", README_CYCLES),
    "breaks": "schema_version: 1\nschedule:\n  kind: abrupt-breaks\n  anchor: 50\n"
              "  horizon: 10\n  offsets: [3, 7]\n" + _yaml_list("regimes", README_REGIMES),
    "near-unit-root": _constant_yaml(*NEAR_UNIT_ROOT),
    # explosive (phi1 > 1): a series must report converged=False
    "explosive-1.05": _constant_yaml(0.0, 1.05, -0.02, 1.0),
    "explosive-1.5": _constant_yaml(0.0, 1.5, -0.02, 1.0),
    "explosive-2.5": _constant_yaml(0.0, 2.5, -0.02, 1.0),
    # malformed: rejected at load time
    "unknown-key": "schema_version: 1\nschedule:\n  kind: constant\n  phi0: 0.0\n"
                   "  phi1: 0.5\n  phi2: 0.1\n  sigma2: 1.0\n  phi3: 0.2\n",
    "bad-version": "schema_version: 2\nschedule:\n  kind: constant\n  phi0: 0.0\n"
                   "  phi1: 0.5\n  phi2: 0.1\n  sigma2: 1.0\n",
}
LOADED_CONFIGS = ("constant", "periodic", "cyclical", "breaks", "near-unit-root",
                  "explosive-1.05", "explosive-1.5", "explosive-2.5")


def config_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, f"config-{name}.yaml")


def write_cli_configs(workdir: str) -> None:
    for name, text in CLI_CONFIGS.items():
        with open(config_path(workdir, name), "w") as fh:
            fh.write(text)


def load_cli_configs(workdir: str) -> dict:
    import tvar2.config
    out = {}
    for name in LOADED_CONFIGS:
        with open(config_path(workdir, name)) as fh:
            schedule = tvar2.config.load(fh)[0]
        out[name] = Model(name, schedule, getattr(schedule, "period", None),
                          name.startswith("explosive"))
    return out


def prepare(name: str, workdir: str) -> None:
    """Write the files a workload reads before its set-up is timed."""
    if name == "cli":
        write_cli_configs(workdir)


def setup(name: str, workdir: str) -> dict:
    """What a workload builds before its first request; timed as setup_s."""
    if name == "cli":
        return load_cli_configs(workdir)
    return montecarlo_models()
