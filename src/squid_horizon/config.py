"""Run configuration: strict JSON ingestion and serialization.

A configuration file mirrors the domain objects section by section, all
values in SI units.  Parsing is strict: unknown sections or keys are
rejected with a nearest-match suggestion, and every value is type-checked
before the domain constructors run their own physical validation.  Missing
keys fall back to the shipped reference device (data/defaults.json).
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import bias, circuit, lattice
from .errors import ConfigError, ParseError, SquidHorizonError, UnknownKey

__all__ = [
    "OutputConfig",
    "RunConfig",
    "apply_override",
    "config_to_dict",
    "default_config",
    "defaults_path",
    "dumps_config",
    "from_dict",
    "load_config",
    "loads_config",
    "parse_json",
    "resolve_path",
]

_EMIT_FLAGS = ("csv", "svg", "bin")


@dataclass(frozen=True)
class OutputConfig:
    """Where results land and in which formats."""

    directory: Optional[str] = None
    emit: tuple = ("csv",)

    def __post_init__(self) -> None:
        emit = tuple(dict.fromkeys(self.emit))
        for flag in emit:
            if flag not in _EMIT_FLAGS:
                raise ConfigError("unknown emit flag %r; valid flags: %s"
                                  % (flag, ", ".join(_EMIT_FLAGS)))
        object.__setattr__(self, "emit", emit)


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run, built from validated domain objects."""

    squid: circuit.SquidParams
    array: circuit.ArrayParams
    pulse: bias.FluxPulse
    solver: lattice.SolverConfig
    output: OutputConfig
    max_signal_frequency: float

    @property
    def junction(self) -> circuit.JunctionParams:
        return self.squid.junction


def _json_kinds(cls) -> dict:
    # key -> (JSON type, null allowed) of a section dataclass, in field
    # order: Optional[X] admits null, a tuple is a JSON list, and a field
    # holding another section (squid.junction) is not a key.
    hints = typing.get_type_hints(cls)
    kinds = {}
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        nullable = type(None) in typing.get_args(hint)
        if nullable:
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        if not dataclasses.is_dataclass(hint):
            kinds[field.name] = (list if hint is tuple else hint, nullable)
    return kinds


# section -> key -> (JSON type, null allowed), in the order keys are checked.
_SCHEMA = {
    "junction": _json_kinds(circuit.JunctionParams),
    "squid": _json_kinds(circuit.SquidParams),
    "array": _json_kinds(circuit.ArrayParams),
    "pulse": _json_kinds(bias.FluxPulse),
    "solver": _json_kinds(lattice.SolverConfig),
    "audit": {"max_signal_frequency": (float, False)},
    "output": _json_kinds(OutputConfig),
}


def defaults_path() -> Path:
    """Path of the shipped reference configuration."""
    return Path(__file__).parent / "data" / "defaults.json"


_DEFAULTS = json.loads(defaults_path().read_text())


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return "; did you mean %r?" % close[0] if close else ""


# JSON type -> (what an error message says is expected, acceptance test).
# Python counts a bool as an int; a config file does not.  The magnitude
# tests fail for NaN, for infinities, for numbers beyond float range and
# for integers beyond the int64 range numpy sizes arrays with.
_KINDS = {
    float: ("a finite number",
            lambda v: isinstance(v, (int, float)) and
            not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    int: ("a 64-bit integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool) and
          -2 ** 63 <= v < 2 ** 63),
    bool: ("true/false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list of strings",
           lambda v: isinstance(v, list) and
           all(isinstance(s, str) for s in v)),
}


def _check_type(section: str, key: str, value: Any, kind,
                nullable: bool) -> Any:
    if value is None and nullable:
        return None
    expected, accepts = _KINDS[kind]
    if not accepts(value):
        raise ConfigError("key %r: expected %s, got %r"
                          % ("%s.%s" % (section, key), expected, value))
    return kind(value)


def _merged(data: dict) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object, got %r" % data)
    merged = {}
    for section, raw in data.items():
        if section not in _SCHEMA:
            raise UnknownKey("unknown section %r%s"
                             % (section, _suggest(section, _SCHEMA)))
        if not isinstance(raw, dict):
            raise ConfigError("section %r must be a JSON object" % section)
        for key in raw:
            if key not in _SCHEMA[section]:
                raise UnknownKey(
                    "unknown key %r in section %r%s"
                    % (key, section, _suggest(key, _SCHEMA[section])))
    for section, keys in _SCHEMA.items():
        got = data.get(section, {})
        merged[section] = {
            key: _check_type(section, key, got.get(key, _DEFAULTS[section][key]),
                             *entry)
            for key, entry in keys.items()
        }
    return merged


def _build(merged: dict) -> RunConfig:
    def section(name, builder, **kwargs):
        try:
            return builder(**kwargs)
        except (SquidHorizonError, ValueError) as exc:
            raise ConfigError("section %r: %s" % (name, exc)) from exc

    junction = section("junction", circuit.JunctionParams, **merged["junction"])
    squid = section("squid", circuit.SquidParams, junction=junction,
                    **merged["squid"])
    array = section("array", circuit.ArrayParams, **merged["array"])
    pulse = section("pulse", bias.FluxPulse, **merged["pulse"])
    solver = section("solver", lattice.SolverConfig, **merged["solver"])
    output = section("output", OutputConfig, **merged["output"])
    freq = merged["audit"]["max_signal_frequency"]
    if freq <= 0.0:
        raise ConfigError("audit.max_signal_frequency must be positive")
    return RunConfig(squid=squid, array=array, pulse=pulse, solver=solver,
                     output=output, max_signal_frequency=freq)


def from_dict(data) -> RunConfig:
    """Configuration from a parsed JSON object; missing keys take the
    shipped defaults."""
    return _build(_merged(data))


def default_config() -> RunConfig:
    """The reference configuration, equal to parsing the shipped defaults."""
    return from_dict({})


def parse_json(text: str, source: str):
    """Decode JSON text; a syntax error raises ParseError with its place."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: line %d column %d: %s"
                         % (source, exc.lineno, exc.colno, exc.msg)) from exc


def loads_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse a configuration from a JSON string."""
    return from_dict(parse_json(text, source))


def load_config(path) -> RunConfig:
    """Parse a configuration file; missing keys take the shipped defaults."""
    path = Path(path)
    return loads_config(path.read_text(), source=str(path))


def config_to_dict(cfg: RunConfig) -> dict:
    """Nested plain-dict form of the configuration, parseable back."""
    sources = {"junction": cfg.junction, "squid": cfg.squid,
               "array": cfg.array, "pulse": cfg.pulse, "solver": cfg.solver,
               "audit": cfg, "output": cfg.output}

    def plain(value):
        return list(value) if isinstance(value, tuple) else value

    return {section: {key: plain(getattr(sources[section], key))
                      for key in keys}
            for section, keys in _SCHEMA.items()}


def dumps_config(cfg: RunConfig) -> str:
    """Deterministic JSON text for the configuration."""
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def resolve_path(path: str) -> tuple:
    """Split a dotted parameter path, checking it against the schema."""
    parts = path.split(".")
    if len(parts) != 2:
        raise ConfigError("parameter path %r must look like 'section.key'"
                          % path)
    section, key = parts
    if section not in _SCHEMA:
        raise ConfigError("parameter path %r: unknown section%s"
                          % (path, _suggest(section, _SCHEMA)))
    if key not in _SCHEMA[section]:
        raise ConfigError("parameter path %r: unknown key%s"
                          % (path, _suggest(key, _SCHEMA[section])))
    return section, key


def apply_override(cfg: RunConfig, overrides) -> RunConfig:
    """New configuration with each dotted parameter path in the mapping
    overrides replaced by its value, validated once with all in place."""
    data = config_to_dict(cfg)
    for path, value in overrides.items():
        section, key = resolve_path(path)
        data[section][key] = value
    return from_dict(data)
