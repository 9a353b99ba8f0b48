r"""YAML config schema for schedules and run parameters.

A config file is a mapping with ``schema_version: 1``, a ``schedule``
section keyed by kind, and an optional ``params`` section of run defaults
that command-line flags may override.  Unknown keys and values of the
wrong type are rejected by name, so typos fail loudly instead of being
silently ignored or truncated.

``load`` reads the plain subset of YAML that the README's configs and
``dump`` write itself, and hands any other text to PyYAML's safe loader,
imported on first use.  The subset is strict, so that YAML 1.1 cannot
read it two ways:
- printable ASCII and line feeds only: no tab, carriage return or BOM;
- a top-level block mapping;
- block mappings of ``key: value`` (with the space) or of ``key:`` at the
  end of a line, followed by a nested block mapping or a block sequence,
  indented or indentless;
- block sequences of ``- value``, where the value may open a block
  mapping (``- key: value``);
- values that are one-line flow mappings ``{key: scalar, ...}``, one-line
  flow lists ``[scalar, ...]`` or scalars;
- a comment is a ``#`` at the start of a line or after a space;
- a scalar is a decimal int ``-?(0|[1-9][0-9]*)``, a float with a dot,
  ``-?[0-9]+\.[0-9]+``, with an optional signed exponent
  ``[eE][-+][0-9]+``, ``true`` or ``false``, or a string: a bare word of
  letters, digits, ``_``, ``-`` and ``.`` that starts with a letter and is
  none of PyYAML's other bool words or null words;
- a key is such a string, once per mapping;
- no key, string or int is longer than 128 characters, an int's sign
  aside.

Any other text defers to PyYAML: the empty document, a null value, a
quoted string, an anchor, a second document.  So ``load`` reads every
text as ``yaml.SafeLoader`` reads it, and a text PyYAML rejects gets
PyYAML's ``invalid YAML: ...`` message.
"""

from __future__ import annotations

import io
import operator
import re
from typing import IO, Any

from .schedules import (DEFAULT_SIGMA2_BOUNDS, BreakSchedule, ConstantSchedule,
                        CyclicalSchedule, PeriodicSchedule, Schedule)

SCHEMA_VERSION = 1


def _pyyaml():
    """PyYAML, imported on first use, with ``_LOADER`` and ``_DUMPER`` bound:
    libyaml's safe loader and dumper when PyYAML was built with it, else the
    pure-Python pair, which read and write the same at a fraction of the
    speed."""
    global _LOADER, _DUMPER
    import yaml
    if "_LOADER" not in globals():
        _LOADER, _DUMPER = ((yaml.CSafeLoader, yaml.CSafeDumper)
                            if yaml.__with_libyaml__
                            else (yaml.SafeLoader, yaml.SafeDumper))
    return yaml


def __getattr__(name):
    # _LOADER and _DUMPER exist once PyYAML is imported; reading either from
    # outside before then, as a test that patches one does, imports it
    if name not in ("_LOADER", "_DUMPER"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _pyyaml()
    return globals()[name]

_TUPLE_KEYS = ("phi0", "phi1", "phi2", "sigma2")

# kind -> (class, integer keys, integer-list keys, coefficient-list key).
# Every key is an argument of the class's constructor; a kind with no
# coefficient-list key has the four coefficient keys in its section.
KINDS = {
    "constant": (ConstantSchedule, (), (), None),
    "periodic": (PeriodicSchedule, (), (), "seasons"),
    "cyclical": (CyclicalSchedule, ("period",), ("boundaries",), "cycles"),
    "abrupt-breaks": (BreakSchedule, ("anchor", "horizon"), ("offsets",),
                      "regimes"),
}

# run parameter -> (type, default).  A default of None is a subcommand's
# own (tvar2.cli._COMMANDS), or none: the subcommand needs a value
PARAMS = {
    "t": (int, None),
    "k": (int, None),
    "y0": (float, 0.0),
    "y1": (float, 0.0),
    "max_lag": (int, 4),
    "tol": (float, None),
    "nmax": (int, None),
    "seed": (int, 0),
    "paths": (int, 1000),
    "length": (int, 1),
    "burn_in": (int, None),
    "workers": (int, 1),
    "innovations": (str, "normal"),
    "n": (int, 2),
}


class ConfigError(ValueError):
    """Malformed config; the message names the offending key."""


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _check_keys(mapping: dict, allowed, required, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key {key!r} in {where}")


def _typed(value, name: str, kind: type = int):
    """``value`` as ``kind`` (int, float or str), never from a bool.  An int
    takes no float, not even an integral one; a float takes numeric strings,
    since PyYAML reads 1e-3 (no dot) as a string."""
    if not isinstance(value, bool):
        try:
            if kind is int:
                return operator.index(value)
            if kind is float or isinstance(value, str):
                return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"key {name!r} must be of type {kind.__name__} "
                      f"(got {value!r})")


def _number(value, name: str) -> float:
    return _typed(value, name, float)


def _list(mapping: dict, key: str, read, size: int | None = None) -> list:
    """``mapping[key]`` as a list, each item read by ``read(item, name)``."""
    value = mapping[key]
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        length = "" if size is None else f" of {size}"
        raise ConfigError(
            f"key {key!r} must be a list{length} (got {value!r})")
    return [read(item, f"{key}[{i}]") for i, item in enumerate(value)]


def _coefficients(mapping: dict, prefix: str = "") -> dict:
    return {key: _number(mapping[key], prefix + key) for key in _TUPLE_KEYS}


def _tuple_dict(value, where: str) -> dict:
    mapping = _require_mapping(value, where)
    _check_keys(mapping, _TUPLE_KEYS, _TUPLE_KEYS, where)
    return _coefficients(mapping, f"{where}.")


def schedule_from_dict(section: dict) -> Schedule:
    """Build a schedule from the ``schedule`` config section."""
    mapping = _require_mapping(section, "schedule")
    kind = mapping.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"key 'kind' must be one of {', '.join(KINDS)} "
                          f"(got {kind!r})")
    cls, ints, int_lists, tuples = KINDS[kind]
    keys = ints + int_lists + ((tuples,) if tuples else _TUPLE_KEYS)
    _check_keys(mapping, ("kind", "sigma2_bounds") + keys, keys, "schedule")
    args = {key: _typed(mapping[key], key) for key in ints}
    args.update((key, _list(mapping, key, _typed)) for key in int_lists)
    if tuples:
        args[tuples] = _list(mapping, tuples, _tuple_dict)
    else:
        args.update(_coefficients(mapping))
    if "sigma2_bounds" in mapping:
        args["sigma2_bounds"] = tuple(
            _list(mapping, "sigma2_bounds", _number, 2))
    return cls(**args)


def _tuple_to_dict(tup) -> dict:
    return {k: float(getattr(tup, k)) for k in _TUPLE_KEYS}


def schedule_to_dict(schedule: Schedule) -> dict:
    """Inverse of ``schedule_from_dict`` (function-backed schedules are not
    serializable)."""
    if schedule.kind not in KINDS:
        raise ConfigError(f"schedule kind {schedule.kind!r} is not serializable")
    _, ints, int_lists, tuples = KINDS[schedule.kind]
    out: dict[str, Any] = {"kind": schedule.kind}
    out.update((key, getattr(schedule, key)) for key in ints)
    out.update((key, list(getattr(schedule, key))) for key in int_lists)
    if tuples:
        out[tuples] = [_tuple_to_dict(c) for c in getattr(schedule, tuples)]
    else:
        out.update(_tuple_to_dict(schedule.coefficients))
    if schedule.sigma2_bounds != DEFAULT_SIGMA2_BOUNDS:
        out["sigma2_bounds"] = [float(b) for b in schedule.sigma2_bounds]
    return out


def _params(section) -> dict:
    """The given run parameters, each read as its ``PARAMS`` type."""
    mapping = _require_mapping(section, "params")
    _check_keys(mapping, PARAMS, (), "params")
    return {name: _typed(value, name, PARAMS[name][0])
            for name, value in mapping.items()}


def parse_config(data) -> tuple[Schedule, dict]:
    """Validate a loaded config mapping; return (schedule, run parameters)."""
    mapping = _require_mapping(data, "config")
    _check_keys(mapping, ("schema_version", "schedule", "params"),
                ("schedule",), "config")
    version = mapping.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"key 'schema_version' must be {SCHEMA_VERSION} (got {version!r})")
    schedule = schedule_from_dict(mapping["schedule"])
    return schedule, _params(mapping.get("params", {}))


class _Defer(Exception):
    """The text is outside the subset ``_plain`` reads."""


_OUTSIDE = re.compile(r"[^\n -~]")   # all but printable ASCII and line feeds
# ``key: value`` or ``key:``.  A key is at most 128 characters, an int at most
# 128 digits: PyYAML takes no key over 1024, nor Python an int over 4300.
_KEY = re.compile(r"([A-Za-z][-.\w]{0,127}):(?: +(.+))?", re.ASCII)
_SCALAR = re.compile(r"(-?(?:0|[1-9][0-9]{0,127}))"
                     r"|(-?[0-9]+\.[0-9]+(?:[eE][-+][0-9]+)?)"
                     r"|[A-Za-z][-.\w]{0,127}", re.ASCII)
_BOOLS = {"true": True, "false": False}
# the words PyYAML reads as a bool or as null, other than true and false
_RESERVED = frozenset("yes Yes YES no No NO True TRUE False FALSE on On ON off "
                      "Off OFF null Null NULL".split())


def _scalar(text: str):
    """A scalar of the subset, as PyYAML reads it."""
    match = _SCALAR.fullmatch(text)
    if match is None or text in _RESERVED:
        raise _Defer
    if match.lastindex == 1:
        return int(text)
    if match.lastindex == 2:
        return float(text)
    return _BOOLS.get(text, text)


def _put(mapping: dict, key: str, value) -> None:
    if key in mapping or key in _BOOLS or key in _RESERVED:
        raise _Defer
    mapping[key] = value


def _value(text: str):
    """An inline value: a one-line flow list or mapping of scalars, or a
    scalar."""
    if text[0] == "[" and text[-1] == "]":
        return [_scalar(item.strip(" ")) for item in text[1:-1].split(",")]
    if text[0] != "{" or text[-1] != "}":
        return _scalar(text)
    out: dict[str, Any] = {}
    for item in text[1:-1].split(","):
        match = _KEY.fullmatch(item.strip(" "))
        if match is None or match[2] is None:
            raise _Defer
        _put(out, match[1], _scalar(match[2]))
    return out


def _mapping(lines: list, i: int) -> tuple[dict, int]:
    """The block mapping whose first key is ``lines[i]``, and the index of
    the first line past it: a line indented less, or one indented more,
    which no block reads."""
    indent = lines[i][0]
    out: dict[str, Any] = {}
    while lines[i][0] == indent:
        match = _KEY.fullmatch(lines[i][1])
        if match is None:
            raise _Defer
        key, text = match.groups()
        i += 1
        below, first = lines[i]
        if text is not None:
            _put(out, key, _value(text))
        elif below > indent or below == indent and first.startswith("- "):
            value, i = (_sequence if first.startswith("- ") else _mapping)(
                lines, i)
            _put(out, key, value)
        else:   # a null value
            raise _Defer
    return out, i


def _sequence(lines: list, i: int) -> tuple[list, int]:
    """The block sequence whose first item is ``lines[i]``, and the index
    of the first line past it, as ``_mapping``'s."""
    indent = lines[i][0]
    out = []
    while lines[i][0] == indent and lines[i][1].startswith("- "):
        line = lines[i][1]
        text = line[2:].lstrip(" ")
        if _KEY.fullmatch(text):   # the item opens a block mapping
            lines[i] = (indent + len(line) - len(text), text)
            item, i = _mapping(lines, i)
        else:
            item, i = _value(text), i + 1
        out.append(item)
    return out, i


def _plain(text: str) -> dict | None:
    """What ``yaml.SafeLoader`` reads from ``text``, if ``text`` is in the
    subset the module docstring states; else None."""
    if _OUTSIDE.search(text):
        return None
    lines = []   # (indent, content) of each line that is not blank
    for line in text.split("\n"):
        hash_ = line.find("#")
        if hash_ > 0 and line[hash_ - 1] != " ":
            return None
        if hash_ >= 0:
            line = line[:hash_]
        content = line.strip(" ")
        if content:
            lines.append((len(line) - len(line.lstrip(" ")), content))
    lines.append((-1, ""))   # the end, which closes every block
    try:
        data, end = _mapping(lines, 0)
    except _Defer:
        return None
    return data if end == len(lines) - 1 else None   # every line read


def load(stream: IO[str] | str) -> tuple[Schedule, dict]:
    """Parse a YAML config from an open stream or a string."""
    text = stream if isinstance(stream, (str, bytes)) else stream.read()
    data = _plain(text) if isinstance(text, str) else None
    if data is None:
        if text is not stream:   # PyYAML's messages name the stream it reads
            text = (io.StringIO if isinstance(text, str) else io.BytesIO)(text)
            text.name = getattr(stream, "name", "<file>")
        yaml = _pyyaml()
        try:
            data = yaml.load(text, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}")
    return parse_config(data)


def dump(schedule: Schedule, params: dict | None = None) -> str:
    """Serialize a schedule (plus optional run parameters) to YAML text."""
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION,
                           "schedule": schedule_to_dict(schedule)}
    if params:
        doc["params"] = _params(params)
    return _pyyaml().dump(doc, Dumper=_DUMPER, sort_keys=False)
