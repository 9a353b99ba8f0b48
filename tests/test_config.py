import ast
import contextlib
import glob
import importlib.util
import io
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
    # PyYAML's loader, and the plain reader in front of it unless it defers
    text = LOADED_TEXTS[name]
    pure = _read(text, yaml.SafeLoader)
    plain = tvar2.config._plain(text)
    for ours in [_read(text, tvar2.config._LOADER)] + [plain] * (plain is not None):
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


def _edges() -> dict:
    """Texts at the edge of the subset the plain reader reads, most of them
    a shipped config with one edit."""
    const, cyc = CONSTANT_YAML, CYCLICAL_YAML
    # indentless block sequences, some of whose items open a block mapping
    dumped = dump(DUMPED[4], {"t": 12, "tol": 1e-3})
    texts = {
        "empty": "", "blank": "\n  \n", "comment-only": "# a comment\n",
        "top-level-list": "- schema_version\n- 1\n",
        "top-level-word": "schema_version\n", "top-level-int": "1\n",
        "top-level-flow": "{schema_version: 1}\n",
        "indented-top-level": "  " + const.strip().replace("\n", "\n  "),
        "dedent-below-top-level": "  " + const.strip().replace("\n", "\n  ")
                                  + "\ny0: 4\n",
        "no-space-after-colon": _edit(const, "k: 3", "k:3"),
        "no-space-in-flow": _edit(cyc, "{phi0: 0.0,", "{phi0:0.0,"),
        "space-before-colon": _edit(const, "k: 3", "k : 3"),
        "wide-colon": _edit(const, "k: 3", "k:    3"),
        "tab-indent": _edit(const, "  kind", "\tkind"),
        "tab-after-colon": _edit(const, "k: 3", "k:\t3"),
        "crlf": const.replace("\n", "\r\n"), "bom": "\ufeff" + const,
        "non-ascii": _edit(const, "kind: constant", "kind: constant\u00e9"),
        "control-character": _edit(const, "k: 3", "k: 3\x07"),
        "control-in-comment": _edit(const, "k: 3", "k: 3  # \x07"),
        "carriage-return-in-comment": _edit(const, "k: 3", "k: 3  # c\ry0: 4"),
        "trailing-spaces": const.replace("\n", "   \n"),
        "duplicate-key": _edit(const, "k: 3", "k: 3\n  k: 4"),
        "duplicate-flow-key": _edit(cyc, "phi1: 0.5,", "phi0: 0.5,"),
        "document-start": "---\n" + const, "document-end": const + "...\n",
        "two-documents": const + "---\n" + const,
        "directive": "%YAML 1.1\n---\n" + const,
        "single-quoted": _edit(const, "kind: constant", "kind: 'constant'"),
        "double-quoted": _edit(const, "kind: constant", 'kind: "constant"'),
        "hash-in-word": _edit(const, "kind: constant", "kind: cons#tant"),
        "hash-after-colon": _edit(const, "k: 3", "k:# 3"),
        "comment-after-value": _edit(const, "k: 3", "k: 3  # three"),
        "comment-after-key": _edit(const, "schedule:", "schedule:   # below"),
        "comment-in-flow": _edit(cyc, "phi1: 0.5,", "phi1: 0.5, # c"),
        "comment-after-flow": _edit(cyc, "[2, 4]", "[2, 4] # c"),
        "null-value-last": _edit(const, "  k: 3", "  k:"),
        "null-value": _edit(const, "  t: 10", "  t:"),
        "words-with-space": _edit(const, "kind: constant", "kind: con stant"),
        "dotted-word": _edit(const, "kind: constant", "kind: con.st-an_t9"),
        "continuation": _edit(const, "k: 3", "k: 3\n    4"),
        "over-indented-key": _edit(const, "  k: 3", "   k: 3"),
        "under-indented-key": _edit(const, "  k: 3", " k: 3"),
        "over-indented-block": _edit(const, "  kind", "    kind"),
        "nested-word": _edit(const, "schedule:\n", "schedule:\n  constant\n"),
        "key-of-128": _edit(const, "k: 3", "k" * 128 + ": 3"),
        "key-of-129": _edit(const, "k: 3", "k" * 129 + ": 3"),
        "key-of-1100": _edit(const, "k: 3", "k" * 1100 + ": 3"),
        "int-of-128-digits": _edit(const, "k: 3", "k: " + "9" * 128),
        "int-of-129-digits": _edit(const, "k: 3", "k: " + "9" * 129),
        "empty-flow-list": _edit(cyc, "[2, 4]", "[]"),
        "empty-flow-mapping": re.sub(r"\{[^}]*\}", "{}", cyc, count=1),
        "trailing-comma": _edit(cyc, "[2, 4]", "[2, 4,]"),
        "flow-without-spaces": _edit(cyc, "[2, 4]", "[2,4]"),
        "flow-inner-spaces": _edit(cyc, "[2, 4]", "[ 2 , 4 ]"),
        "nested-flow": _edit(cyc, "[2, 4]", "[[2], 4]"),
        "flow-in-flow-mapping": _edit(cyc, "phi1: 0.5,", "phi1: [0.5],"),
        "flow-key-only": _edit(cyc, "phi1: 0.5,", "phi1,"),
        "flow-unclosed": _edit(cyc, "[2, 4]", "[2, 4"),
        "flow-then-word": _edit(cyc, "[2, 4]", "[2, 4] x"),
        "flow-two-lines": _edit(cyc, "[2, 4]", "[2,\n    4]"),
        "flow-word-with-space": _edit(cyc, "[2, 4]", "[a b, 4]"),
        "anchor": _edit(const, "k: 3", "k: &three 3"),
        "alias": _edit(const, "k: 3", "k: &three 3\n  y0: *three"),
        "tag": _edit(const, "k: 3", "k: !!float 3"),
        "block-scalar": _edit(const, "k: 3", "k: |\n    3"),
        "merge-key": _edit(const, "k: 3", "<<: {k: 3}"),
        "explicit-key": _edit(const, "k: 3", "? k\n  : 3"),
        "dumped": dumped,
        "nested-sequence": _edit(dumped, "  - 3\n", "  - - 3\n"),
        "dash-alone": _edit(dumped, "  - 3\n", "  -\n"),
        "item-then-deeper": _edit(dumped, "  - 3\n", "  - 3\n    4\n"),
        "indented-sequence": _edit(dumped, "  - 3\n  - 6\n", "    - 3\n    - 6\n"),
        "sequence-then-key": _edit(dumped, "  - 3\n  - 6\n",
                                   "    - 3\n    - 6\n    x: 1\n"),
        "sequence-at-key-indent": _edit(dumped, "  anchor: 100\n",
                                        "  anchor: 100\n  - 1\n"),
        "wide-item": dumped.replace("  - phi0", "  -   phi0").replace(
            "\n    ", "\n      "),
        "item-key-misaligned": _edit(dumped, "    phi1: 0.5\n", "     phi1: 0.5\n"),
        "item-nested-block": _edit(dumped, "  - phi0: 0.0\n    phi1: 0.5\n",
                                   "  - phi0:\n      x: 0.0\n    phi1: 0.5\n"),
        "item-indentless-sequence": _edit(dumped, "  - phi0: 0.0\n    phi1: 0.5\n",
                                          "  - phi0:\n    - 0.0\n    phi1: 0.5\n"),
    }
    # every number and word form on each of the five places a scalar goes
    for word in ["012", "0o17", "0x1F", "0b11", "1_000", "+1", "1:30", ".5",
                 "1.", "1e-3", "1.0e3", "1.0E-3", "1.5e+3", "-1.0e+400", "-0",
                 "-0.0", "00.5", "0", "-7", "yes", "on", "off", "no", "null",
                 "~", "y", "n", "True", "NULL", "Off", "true", "false",
                 ".inf", ".nan", "2001-12-14", "abc", "x-1", "e5"]:
        texts[f"value-{word}"] = _edit(const, "k: 3", f"k: {word}")
        texts[f"key-{word}"] = _edit(const, "k: 3", f"{word}: 3")
        texts[f"list-{word}"] = _edit(cyc, "[2, 4]", f"[2, {word}]")
        texts[f"flow-{word}"] = _edit(cyc, "phi1: 0.5,", f"phi1: {word},")
        texts[f"item-{word}"] = _edit(dumped, "  - 3\n", f"  - {word}\n")
    return texts


EDGES = _edges()
# the edge texts the plain reader reads; it defers on the others
PLAIN_EDGES = {"indented-top-level", "wide-colon", "trailing-spaces",
               "comment-after-value", "comment-after-key", "comment-after-flow",
               "dotted-word", "key-of-128", "int-of-128-digits",
               "flow-without-spaces", "flow-inner-spaces", "dumped",
               "indented-sequence", "wide-item", "item-nested-block",
               "item-indentless-sequence"} | {
    f"{place}-{word}" for place in ("value", "list", "flow", "item")
    for word in ("1.0E-3", "1.5e+3", "-1.0e+400", "-0", "-0.0", "00.5", "0",
                 "-7", "true", "false", "abc", "x-1", "e5", "y", "n")} | {
    f"key-{word}" for word in ("abc", "x-1", "e5", "y", "n")}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_plain_reader_reads_as_pyyaml_or_defers(name):
    text = EDGES[name]
    plain = tvar2.config._plain(text)
    assert (plain is not None) == (name in PLAIN_EDGES)
    if plain is not None:
        pure = _read(text, yaml.SafeLoader)
        assert plain == pure
        assert repr(plain) == repr(pure)


def test_every_plain_edge_exists():
    assert PLAIN_EDGES <= EDGES.keys()


@pytest.fixture
def pyyaml_loads(monkeypatch):
    """The sources tvar2.config hands PyYAML's loader, from here on."""
    sources = []

    class Counted(tvar2.config._LOADER):
        def __init__(self, stream):
            sources.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(tvar2.config, "_LOADER", Counted)
    return sources


def test_shipped_and_dumped_configs_never_reach_pyyaml(pyyaml_loads, tmp_path):
    # every config text PyYAML reads, as a string and from a file
    texts = [text for text in CONFIG_TEXTS.values()
             if _read(text, yaml.SafeLoader) is not yaml.YAMLError]
    assert len(texts) >= 20
    texts += [dump(schedule, params) for schedule in DUMPED
              for params in (None, {"t": 12, "innovations": "uniform"})]
    path = tmp_path / "model.yaml"
    for text in texts:
        path.write_text(text)
        with contextlib.suppress(ConfigError), open(path) as fh:
            load(fh)
        with contextlib.suppress(ConfigError):
            load(text)
    assert pyyaml_loads == []
    with pytest.raises(ConfigError, match="invalid YAML"):
        load(BAD_YAML)
    assert len(pyyaml_loads) == 1


BAD_YAML = "schema_version: 1\nschedule: [unclosed\n"


def _pyyaml_message(source) -> str:
    try:
        yaml.load(source, Loader=tvar2.config._LOADER)
    except yaml.YAMLError as exc:
        return f"invalid YAML: {exc}"


@pytest.mark.parametrize("mode", ["r", "rb"])
def test_deferred_file_gets_pyyamls_message(yaml_pairs, tmp_path, mode):
    # the message names the file a deferred text was read from, as before
    path = tmp_path / "bad.yaml"
    path.write_text(BAD_YAML)
    for _ in yaml_pairs():
        with open(path, mode) as ours, open(path, mode) as theirs:
            with pytest.raises(ConfigError) as raised:
                load(ours)
            assert str(raised.value) == _pyyaml_message(theirs)
        assert str(path) in str(raised.value)


@pytest.mark.parametrize("make", [io.StringIO, io.BytesIO, str, bytes],
                         ids=["string-stream", "bytes-stream", "str", "bytes"])
def test_deferred_text_gets_pyyamls_message(yaml_pairs, make):
    text = BAD_YAML.encode() if make in (io.BytesIO, bytes) else BAD_YAML
    for _ in yaml_pairs():
        with pytest.raises(ConfigError) as raised:
            load(make(text))
        assert str(raised.value) == _pyyaml_message(make(text))


def test_pyyaml_pair_binds_on_first_access(monkeypatch):
    # until PyYAML is first needed, neither name exists; reading one binds
    # both, so a test can patch either first
    for name in ("_LOADER", "_DUMPER"):
        monkeypatch.delitem(vars(tvar2.config), name, raising=False)
    assert tvar2.config._DUMPER is yaml.CSafeDumper
    assert tvar2.config._LOADER is yaml.CSafeLoader
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tvar2.config.no_such_name
