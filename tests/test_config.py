import ast
import glob
import importlib.util
import os
import re
import sys

import pytest
import yaml

import tvar2.config
from tvar2 import (BreakSchedule, ConfigError, ConstantSchedule,
                   CyclicalSchedule, GenericSchedule, PeriodicSchedule, dump,
                   load, schedule_from_dict, schedule_to_dict)

CONSTANT_YAML = """
schema_version: 1
schedule:
  kind: constant
  phi0: 0.5
  phi1: 1.2
  phi2: -0.32
  sigma2: 2.0
params:
  t: 10
  k: 3
"""


CYCLICAL_YAML = """
schema_version: 1
schedule:
  kind: cyclical
  period: 6
  boundaries: [2, 4]
  cycles:
    - {phi0: 0.0, phi1: 0.5, phi2: -0.2, sigma2: 1.0}
    - {phi0: 0.0, phi1: -0.3, phi2: 0.4, sigma2: 1.0}
    - {phi0: 0.0, phi1: 0.8, phi2: -0.1, sigma2: 1.0}
"""

BREAKS_YAML = """
schema_version: 1
schedule:
  kind: abrupt-breaks
  anchor: 50
  horizon: 10
  offsets: [3, 7]
  regimes:
    - {phi0: 0.0, phi1: 0.5, phi2: -0.2, sigma2: 1.0}
    - {phi0: 0.0, phi1: -0.4, phi2: 0.3, sigma2: 1.0}
    - {phi0: 0.0, phi1: 0.9, phi2: -0.5, sigma2: 1.0}
"""


def test_load_constant():
    schedule, params = load(CONSTANT_YAML)
    assert isinstance(schedule, ConstantSchedule)
    assert schedule.at(7).phi1 == 1.2
    assert params == {"t": 10, "k": 3}


def test_round_trip_all_kinds():
    samples = [
        ConstantSchedule(0.1, 0.5, -0.2, 1.0),
        PeriodicSchedule([(0.1, 0.5, -0.2, 1.0), (0.2, -0.3, 0.4, 2.0)]),
        CyclicalSchedule(5, [2], [(0.0, 0.5, -0.2, 1.0),
                                  (0.0, -0.3, 0.4, 2.0)]),
        BreakSchedule(100, 8, [3, 6], [(0.0, 0.5, -0.2, 1.0),
                                       (0.0, -0.3, 0.4, 2.0),
                                       (0.1, 0.2, 0.1, 0.5)]),
    ]
    for schedule in samples:
        text = dump(schedule)
        reparsed, params = load(text)
        assert params == {}
        if isinstance(schedule, BreakSchedule):
            times = range(schedule.anchor - schedule.horizon,
                          schedule.anchor + 1)
        else:
            times = range(1, 101)
        for t in times:
            assert reparsed.at(t) == schedule.at(t)


def test_unknown_top_level_key_named():
    with pytest.raises(ConfigError, match="'schedul'"):
        load("schema_version: 1\nschedul: {kind: constant}\n")


def test_unknown_schedule_key_named():
    with pytest.raises(ConfigError, match="'phi3'"):
        schedule_from_dict({"kind": "constant", "phi0": 0, "phi1": 0.5,
                            "phi2": 0.1, "phi3": 0.0, "sigma2": 1.0})


def test_unknown_param_key_named():
    text = CONSTANT_YAML.replace("k: 3", "horizn: 3")
    with pytest.raises(ConfigError, match="'horizn'"):
        load(text)


def test_missing_tuple_key_named():
    with pytest.raises(ConfigError, match="'sigma2'"):
        schedule_from_dict({"kind": "constant", "phi0": 0, "phi1": 0.5,
                            "phi2": 0.1})


def test_bad_kind_rejected():
    with pytest.raises(ConfigError, match="'kind'"):
        schedule_from_dict({"kind": "seasonal"})


def test_schema_version_required():
    with pytest.raises(ConfigError, match="schema_version"):
        load("schedule: {kind: constant, phi0: 0, phi1: 0, phi2: 0, sigma2: 1}")


def test_invalid_yaml_rejected():
    with pytest.raises(ConfigError, match="invalid YAML"):
        load("schedule: [unclosed")


def test_generic_schedule_not_serializable():
    s = GenericSchedule(lambda t: (0.0, 0.5, 0.1, 1.0))
    with pytest.raises(ConfigError, match="not serializable"):
        schedule_to_dict(s)


def test_sigma2_bounds_round_trip_default_only():
    s = ConstantSchedule(0.0, 0.5, 0.1, 1.0, sigma2_bounds=(1e-6, 1e6))
    data = {"kind": "constant", "phi0": 0.0, "phi1": 0.5, "phi2": 0.1,
            "sigma2": 1.0, "sigma2_bounds": [1e-6, 1e6]}
    rebuilt = schedule_from_dict(data)
    assert rebuilt.sigma2_bounds == s.sigma2_bounds


MISTYPED = [
    (CYCLICAL_YAML, "period: 6", "period: x", "period"),
    (BREAKS_YAML, "anchor: 50", "anchor: 1.5", "anchor"),
    (BREAKS_YAML, "offsets: [3, 7]", "offsets: 3", "offsets"),
    (CYCLICAL_YAML, "boundaries: [2, 4]", "boundaries: [2, x]", "boundaries[1]"),
    (CONSTANT_YAML, "sigma2: 2.0", "sigma2: 2.0\n  sigma2_bounds: [a, 2]",
     "sigma2_bounds[0]"),
    (CONSTANT_YAML, "t: 10", "t: abc", "t"),
    (CONSTANT_YAML, "k: 3", "k: 3.7", "k"),
    (CONSTANT_YAML, "k: 3", "k: 3.0", "k"),
    (CONSTANT_YAML, "t: 10", "t: true", "t"),
    (CONSTANT_YAML, "k: 3", "horizon: 3", "horizon"),
    (CONSTANT_YAML, "schema_version: 1", "schema_version: true",
     "schema_version"),
    (CONSTANT_YAML, "schema_version: 1", "schema_version: 1.0",
     "schema_version"),
]
MISTYPED_IDS = ["period-x", "anchor-float", "offsets-scalar", "boundaries-item",
                "sigma2-bounds-item", "t-string", "k-float", "k-integral-float",
                "t-bool", "horizon-param", "schema-version-bool",
                "schema-version-float"]


def test_params_read_as_their_type():
    text = CONSTANT_YAML.replace("k: 3", "y0: 1\n  tol: 1e-3")
    assert load(text)[1] == {"t": 10, "y0": 1.0, "tol": 1e-3}


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


# every config text load rejects, and the pattern its message must match
REJECTED = [
    ("schema_version: 1\nschedul: {kind: constant}\n", "'schedul'"),
    (CONSTANT_YAML.replace("k: 3", "horizn: 3"), "'horizn'"),
    ("schedule: {kind: constant, phi0: 0, phi1: 0, phi2: 0, sigma2: 1}",
     "schema_version"),
    ("schedule: [unclosed", "invalid YAML"),
    (CONSTANT_YAML.replace("phi1: 1.2", "phi1: {1.2"), "invalid YAML"),
    ("[schema_version, 1]", "^config must be a mapping$"),
    ("schema_version: 1\nschedule: constant\n", "^schedule must be a mapping$"),
    (CONSTANT_YAML.replace("  t: 10\n  k: 3", "  - t"),
     "^params must be a mapping$"),
    (_edit(CYCLICAL_YAML, "- {phi0: 0.0, phi1: -0.3, phi2: 0.4, sigma2: 1.0}",
           "- 0.4"), r"^cycles\[1\] must be a mapping$"),
] + [(_edit(text, old, new), re.escape(repr(key)))
     for text, old, new, key in MISTYPED]
REJECTED_IDS = ["unknown-top-level-key", "unknown-param-key", "no-schema-version",
                "unclosed-list", "unclosed-mapping", "config-not-mapping",
                "schedule-not-mapping", "params-not-mapping",
                "cycle-not-mapping"] + MISTYPED_IDS


@pytest.mark.parametrize("text, pattern", REJECTED, ids=REJECTED_IDS)
def test_mistyped_value_rejected_by_name(yaml_pairs, text, pattern):
    for _ in yaml_pairs():
        with pytest.raises(ConfigError, match=pattern):
            load(text)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _config_texts() -> dict:
    """Every config the project ships or tests: the README's YAML blocks, each
    module-level config string of tests/, and the benchmark's CLI configs."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```yaml\n(.*?)```", fh.read(), re.S)
    texts = {f"README-{i}": block for i, block in enumerate(blocks)}
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and "schema_version" in str(node.value.value)):
                name = f"{os.path.basename(path)}-{node.targets[0].id}"
                texts[name] = node.value.value
    spec = importlib.util.spec_from_file_location(
        "perfbench_models", os.path.join(ROOT, "perfbench", "models.py"))
    models = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = models   # its dataclasses look the module up
    spec.loader.exec_module(models)
    texts.update((f"perfbench-{name}", text)
                 for name, text in models.CLI_CONFIGS.items())
    return texts


CONFIG_TEXTS = _config_texts()


def test_every_shipped_config_is_found():
    names = set(CONFIG_TEXTS)
    assert {"README-0", "README-3", "test_cli.py-BREAKS",
            "test_config.py-CONSTANT_YAML", "test_acceptance.py-CLI_CONFIG",
            "perfbench-bad-version"} <= names
    assert len(names) >= 20


def _read(text, loader):
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError:
        return yaml.YAMLError


LOADED_TEXTS = {**CONFIG_TEXTS, **{f"rejected-{name}": text for name, (text, _)
                                   in zip(REJECTED_IDS, REJECTED)}}


@pytest.mark.parametrize("name", sorted(LOADED_TEXTS))
def test_config_loader_reads_what_the_pure_python_loader_reads(name):
    text = LOADED_TEXTS[name]
    ours = _read(text, tvar2.config._LOADER)
    pure = _read(text, yaml.SafeLoader)
    assert ours == pure
    assert repr(ours) == repr(pure)   # the same types too: 1 is not 1.0


DUMPED = [
    ConstantSchedule(0.1, 0.5, -0.2, 1.0),
    ConstantSchedule(0.0, 1.0 / 3.0, -1e-17, 2.5e300, sigma2_bounds=(1e-9, 1e301)),
    PeriodicSchedule([(0.1, 0.5, -0.2, 1.0), (0.2, -0.3, 0.4, 2.0)]),
    CyclicalSchedule(5, [2], [(0.0, 0.5, -0.2, 1.0), (0.0, -0.3, 0.4, 2.0)]),
    BreakSchedule(100, 8, [3, 6], [(0.0, 0.5, -0.2, 1.0), (0.0, -0.3, 0.4, 2.0),
                                   (0.1, 0.2, 0.1, 0.5)]),
]


@pytest.mark.parametrize("schedule", DUMPED,
                         ids=[s.kind + str(i) for i, s in enumerate(DUMPED)])
def test_dump_writes_the_pure_python_dumpers_text(monkeypatch, schedule):
    params = {"t": 12, "tol": 1e-3, "innovations": "uniform"}
    ours = [dump(schedule), dump(schedule, params)]
    monkeypatch.setattr(tvar2.config, "_DUMPER", yaml.SafeDumper)
    assert [dump(schedule), dump(schedule, params)] == ours
    assert ours[0] == yaml.safe_dump(
        {"schema_version": 1, "schedule": schedule_to_dict(schedule)},
        sort_keys=False)
