"""YAML config schema for schedules and run parameters.

A config file is a mapping with ``schema_version: 1``, a ``schedule``
section keyed by kind, and an optional ``params`` section of run defaults
that command-line flags may override.  Unknown keys and values of the
wrong type are rejected by name, so typos fail loudly instead of being
silently ignored or truncated.
"""

from __future__ import annotations

import operator
from typing import IO, Any

import yaml

from .moments import DEFAULT_N_MAX, DEFAULT_TOL
from .schedules import (DEFAULT_SIGMA2_BOUNDS, BreakSchedule, ConstantSchedule,
                        CyclicalSchedule, PeriodicSchedule, Schedule)
from .simulate import DEFAULT_BURN_IN

SCHEMA_VERSION = 1

# libyaml's safe loader and dumper when PyYAML was built with it, else the
# pure-Python pair: the same documents and text, at a fraction of the cost
_LOADER, _DUMPER = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
                    else (yaml.SafeLoader, yaml.SafeDumper))

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

# run parameter -> (type, default); a subcommand that reads a parameter
# with no default needs a value for it
PARAMS = {
    "t": (int, None),
    "k": (int, None),
    "y0": (float, 0.0),
    "y1": (float, 0.0),
    "max_lag": (int, 4),
    "tol": (float, DEFAULT_TOL),
    "nmax": (int, DEFAULT_N_MAX),
    "seed": (int, 0),
    "paths": (int, 1000),
    "length": (int, 1),
    "burn_in": (int, DEFAULT_BURN_IN),
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


def load(stream: IO[str] | str) -> tuple[Schedule, dict]:
    """Parse a YAML config from an open stream or a string."""
    try:
        data = yaml.load(stream, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}")
    return parse_config(data)


def dump(schedule: Schedule, params: dict | None = None) -> str:
    """Serialize a schedule (plus optional run parameters) to YAML text."""
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION,
                           "schedule": schedule_to_dict(schedule)}
    if params:
        doc["params"] = _params(params)
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)
