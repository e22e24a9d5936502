"""Experiment configuration: presets, flat key=value files, validation."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .evolution import N_START_MIN, SCALINGS
from .profiles import KINDS, PROFILES, RULES, Profile

#: Parameter sets reproducing the shipped reference workflows.
PRESETS = {
    "fig1": {"profile": "relaxing_pulse", "B": 3.0 * math.pi, "t_final": 150.0, "n_steps": 150000},
    "fig2": {"profile": "parametric_resonance", "omega_l": 1.04, "epsilon": 2.04,
             "t_final": 120.0, "n_steps": 150000},
    "fig4": {"profile": "janszky_adam", "omega1": 1.5, "t_final": 30.0, "n_steps": 60000},
    "fig5": {"profile": "janszky_adam", "omega1": 1.04, "t_final": 120.0, "n_steps": 150000},
}

FORMATS = ("csv", "json")


@dataclass
class ExperimentConfig:
    profile: str = "constant"
    omega0: float | None = None  # unset: 1, or a table's first omega
    B: float | None = None
    epsilon: float | None = None
    omega_l: float | None = None
    omega1: float | None = None
    hold_low: float | None = None
    hold_high: float | None = None
    table: str | None = None
    t_final: float = 30.0
    n_steps: int | str = "auto"
    tol: float = 1e-5
    n_start: int = 10000
    lam: float = 0.0
    scaling: str = "quarter"
    record_every: int | str = "auto"
    rule: str = "right"
    output: str = "trajectory.csv"
    format: str = "csv"
    oracle_check: bool = False
    preset: str | None = None
    fingerprint: bool = False

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            # a numeric field holds a number or its non-numeric default (None, "auto")
            if (f.name in _NUMBER_FIELDS and value != f.default
                    and (isinstance(value, bool) or not isinstance(value, (int, float)))):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.name in _INT_FIELDS and isinstance(value, float):
                if not value.is_integer():
                    raise ConfigError(f"{f.name} must be an integer, got {value!r}")
                setattr(self, f.name, int(value))
        for name, choices in (("profile", KINDS), ("scaling", tuple(SCALINGS)),
                              ("rule", RULES), ("format", FORMATS)):
            if (value := getattr(self, name)) not in choices:
                raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        if self.omega0 is not None and not (self.omega0 > 0):
            raise ConfigError(f"omega0 must be positive, got {self.omega0}")
        if not (self.t_final > 0):
            raise ConfigError(f"t_final must be positive, got {self.t_final}")
        for name in _INT_OR_AUTO:  # a string other than "auto" failed the number check
            if (value := getattr(self, name)) != "auto" and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.n_steps == "auto" and self.n_start < N_START_MIN:
            raise ConfigError(f"n_start must be >= {N_START_MIN}, got {self.n_start}")
        if self.n_steps == "auto" and self.record_every != "auto":
            raise ConfigError(f"record_every {self.record_every} needs a fixed n_steps, not auto")
        if not (self.tol > 0):
            raise ConfigError(f"tol must be positive, got {self.tol}")
        takes = profile_parameters(self.profile)
        for name, param in takes.items():
            if param.default is param.empty and getattr(self, name) is None:
                raise ConfigError(f"profile {self.profile!r} needs parameter {name!r}")
        for name in _PROFILE_FIELDS:  # set, but the profile would never read it
            if name not in takes and getattr(self, name) is not None:
                raise ConfigError(f"profile {self.profile!r} takes no parameter {name!r}")
        return self

    def to_profile(self) -> Profile:
        """Call the kind's factory with the parameters that are set; unset ones take its defaults."""
        params = {name: value for name in profile_parameters(self.profile)
                  if (value := getattr(self, name)) is not None}
        try:
            return PROFILES[self.profile](**params)
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc)) from exc


def profile_parameters(kind: str):
    """The parameters of a kind's factory, by name: the configuration fields that kind reads."""
    return inspect.signature(PROFILES[kind]).parameters


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
_PROFILE_READS = {name for kind in KINDS for name in profile_parameters(kind)}
#: Fields that some profile kind's factory reads, in field order.
_PROFILE_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name in _PROFILE_READS)
#: Fields annotated ``int`` or ``float``, alone or in a union.
_NUMBER_FIELDS = {f.name for f in fields(ExperimentConfig)
                  if {"int", "float"} & set(f.type.split(" | "))}
#: Fields annotated ``int``: an integral float is taken as that int, others are refused.
_INT_FIELDS = {f.name for f in fields(ExperimentConfig) if "int" in f.type.split(" | ")}
_INT_OR_AUTO = ("n_steps", "record_every")
_BOOL_FIELDS = ("oracle_check", "fingerprint")


def _coerce(key: str, raw: str):
    value = raw.strip()
    if key in _BOOL_FIELDS:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {key} = {raw!r}")
    if key in _INT_OR_AUTO and value == "auto":
        return "auto"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    out = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, rawline in enumerate(fh, 1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key == "lambda":  # file alias for the quadrature angle
                key = "lam"
            if key not in _FIELD_NAMES:
                raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def build_config(preset: str | None = None, config_file: str | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Layer preset < config file < explicit overrides into a validated config."""
    layered: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {', '.join(sorted(PRESETS))}")
        layered.update(PRESETS[preset])
        layered["preset"] = preset
    if config_file is not None:
        file_values = load_config_file(config_file)
        if "preset" in file_values:
            inner = file_values.pop("preset")
            if inner not in PRESETS:
                raise ConfigError(f"unknown preset {inner!r} in {config_file}")
            merged = dict(PRESETS[inner])
            merged.update(layered)
            layered = merged
            layered["preset"] = inner
        layered.update(file_values)
    for key, value in (overrides or {}).items():
        if value is not None:
            layered[key] = value
    unknown = set(layered) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        cfg = ExperimentConfig(**layered)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()
