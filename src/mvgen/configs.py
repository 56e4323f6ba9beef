"""Strict, typed configs from JSON.

Config files and checkpoint headers are parsed by one function,
`parse_config`, against a dataclass's fields and type hints: unknown keys,
missing required keys and values that do not fit raise ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing


class ConfigError(ValueError):
    pass


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               float | None: "a number or null", tuple[int, ...]: "a list of integers",
               tuple[float, float, float]: "a list of 3 numbers"}


def _fits(kind, value) -> bool:
    """Whether a JSON value fits the type hint kind: an int also fits a float,
    NaN and numbers beyond float range (the infinities too) fit nothing, a
    list (or tuple) fits a tuple of one element type (and of its length
    unless open-ended), a bool is no int, and null fits only an optional
    field."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:
        return (isinstance(value, (list, tuple))
                and (args[-1] is Ellipsis or len(value) == len(args))
                and all(_fits(args[0], v) for v in value))
    if type(None) in args:  # an optional field
        return value is None or _fits(args[0], value)
    if kind is float:  # NaN compares false
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def _typed(kind, value, context: str, base=None):
    """value once it fits kind; a nested config, or each one of a list of them,
    is parsed by parse_config (over base). Lists stay lists."""
    if dataclasses.is_dataclass(kind):
        return parse_config(kind, value, context, base)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{context} must be a list, not {json.dumps(value)}")
        return [_typed(typing.get_args(kind)[0], v, f"{context}[{i}]") for i, v in enumerate(value)]
    if not _fits(kind, value):
        raise ConfigError(f"{context} must be {_TYPE_NAMES[kind]}, not {json.dumps(value)}")
    return value


def parse_config(cls, data, context: str, base=None):
    """A cls from its JSON object over base's values, or over cls's defaults
    when base is None. Unknown keys, missing required keys and values that
    do not fit raise ConfigError; a field that defaults to None is left for
    cls to derive unless data gives it."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    missing = [f.name for f in fields
               if f.name not in data and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{context}: missing keys {missing}")
    hints = typing.get_type_hints(cls)
    values = {} if base is None else {
        f.name: getattr(base, f.name) for f in fields if f.default is not None}
    for key, value in data.items():
        values[key] = _typed(hints[key], value, f"{context}: {key}", getattr(base, key, None))
    return cls(**values)
