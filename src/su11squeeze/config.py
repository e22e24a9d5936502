"""Experiment configuration: presets, flat key=value files, layering, validation.

:func:`config_layers` lists a run's ``(source, keys)`` layers, lowest first: a
``--config`` file's ``preset`` line, ``--preset``, the file's keys, the flags.
:func:`build_config` merges them, a higher layer's key winning, and validates
the result.  Every value given as text (a file line, a flag, a sweep value) is
typed there once, by its field, so ``output = 7`` names a file and ``tol = 1``
and ``--tol 1`` are both the float 1.0.
"""

from __future__ import annotations

import contextlib
import inspect
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .evolution import N_START_MIN, SCALINGS
from .profiles import KINDS, PROFILES, RULES, Profile, read_entries

#: Parameter sets reproducing the shipped reference workflows.
PRESETS = {
    "fig1": {"profile": "relaxing_pulse", "B": 3.0 * math.pi, "t_final": 150.0, "n_steps": 150000},
    "fig2": {"profile": "parametric_resonance", "omega_l": 1.04, "epsilon": 2.04,
             "t_final": 120.0, "n_steps": 150000},
    "fig4": {"profile": "janszky_adam", "omega1": 1.5, "t_final": 30.0, "n_steps": 60000},
    "fig5": {"profile": "janszky_adam", "omega1": 1.04, "t_final": 120.0, "n_steps": 150000},
}

FORMATS = ("csv", "json")
#: The values each text field with a fixed set takes: ``validate`` refuses others, the CLI offers them.
CHOICES = {"profile": KINDS, "scaling": tuple(SCALINGS), "rule": RULES, "format": FORMATS}


def _flag(default, help: str | None = None, metavar: str | None = None):
    """A field whose command-line flag has a help text or a metavar (the CLI makes one flag per field)."""
    return field(default=default, metadata={"help": help, "metavar": metavar})


@dataclass
class ExperimentConfig:
    profile: str = "constant"
    omega0: float | None = _flag(None, "reference frequency (default 1.0)")  # unset: 1, or a table's first omega
    B: float | None = _flag(None, "relaxing-pulse width parameter")
    epsilon: float | None = _flag(None, "modulation rate in units of omega0")
    omega_l: float | None = _flag(None, "extreme frequency of the cosine modulation")
    omega1: float | None = _flag(None, "second frequency of jump/square-wave profiles")
    hold_low: float | None = _flag(None, "square-wave dwell at omega0")
    hold_high: float | None = _flag(None, "square-wave dwell at omega1")
    table: str | None = _flag(None, "two-column (t, omega) file for tabulated profiles")
    t_final: float = 30.0
    n_steps: int | str = _flag("auto", metavar="N|auto")
    tol: float = _flag(1e-5, "convergence tolerance used with --n-steps auto")
    n_start: int = _flag(10000, "starting N for step doubling")
    lam: float = _flag(0.0, "quadrature angle (default 0)")
    scaling: str = "quarter"
    record_every: int | str = _flag("auto", metavar="K|auto")
    rule: str = _flag("right", "ladder sampling rule")
    output: str = "trajectory.csv"
    format: str = "csv"
    oracle_check: bool = _flag(False, "check the vacuum's image against RK4 on (a, a+) by closed-form "
                                      "fidelity, to r ~ 14.6")
    fingerprint: bool = _flag(False, "append re_z/im_z fingerprint columns")

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str):  # text from a file line, a flag or a sweep value
                value = _typed(f.name, value)
            # a numeric field holds a number or its non-numeric default (None, "auto")
            if (f.name in _NUMBER_FIELDS and value != f.default
                    and (isinstance(value, bool) or not isinstance(value, (int, float)))):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.name in _INT_FIELDS and isinstance(value, float):
                if not value.is_integer():
                    raise ConfigError(f"{f.name} must be an integer, got {value!r}")
                value = int(value)
            if f.name in CHOICES and value not in CHOICES[f.name]:
                raise ConfigError(f"{f.name} must be one of {', '.join(CHOICES[f.name])}, got {value!r}")
            setattr(self, f.name, value)
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
_BOOL_FIELDS = {f.name for f in fields(ExperimentConfig) if f.type == "bool"}
#: The fields ``sweep`` varies: the numbers some profile kind reads, and the run's t_final and lam.
SWEEP_PARAMS = tuple(name for name in _PROFILE_FIELDS if name in _NUMBER_FIELDS) + ("t_final", "lam")


def _typed(key: str, text: str):
    """Text typed by its field: a bool by its word, a float, an int (``1e3`` as 1000.0 here, which
    ``validate`` makes an int), else the text, for ``validate`` to refuse where a number is needed."""
    if key in _BOOL_FIELDS:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {key} = {text!r}")
    for cast in (int, float) if key in _INT_FIELDS else (float,) if key in _NUMBER_FIELDS else ():
        with contextlib.suppress(ValueError):
            return cast(text)
    return text


def _preset(name: str, where: str = "") -> dict:
    if name not in PRESETS:
        raise ConfigError(f"{where}unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}")
    return PRESETS[name]


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` file into its keys' text; '#' starts a comment.  A key set twice is refused."""
    try:
        entries = read_entries(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a line that is not UTF-8
        raise ConfigError(str(exc)) from exc
    out, first = {}, {}
    for lineno, line in entries:
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key == "lambda":  # file alias for the quadrature angle
            key = "lam"
        if key not in _FIELD_NAMES and key != "preset":
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in first:
            raise ConfigError(f"{path}: {key!r} is set twice, on lines {first[key]} and {lineno}")
        first[key] = lineno
        out[key] = raw.strip()
        if key == "preset":
            _preset(out[key], f"{path}:{lineno}: ")
    return out


def config_layers(preset: str | None = None, config_file: str | None = None,
                  overrides: dict | None = None) -> list:
    """A run's ``(source, keys)`` layers, lowest first, parsing ``config_file`` once: its ``preset``
    line, ``preset``, its other keys (source ``config_file``), the ``overrides`` that are not None.
    """
    file_keys = {} if config_file is None else load_config_file(config_file)
    layers = [(f"preset {name}", _preset(name)) for name in (file_keys.pop("preset", None), preset)
              if name is not None]
    if config_file is not None:
        layers.append((config_file, file_keys))
    layers.append(("the command line", {k: v for k, v in (overrides or {}).items() if v is not None}))
    return layers


def build_config(layers) -> ExperimentConfig:
    """Merge ``(source, keys)`` layers, lowest first, into a valid config; a higher layer's key wins."""
    merged: dict = {}
    for _, keys in layers:
        merged.update(keys)
    unknown = set(merged) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    return ExperimentConfig(**merged).validate()
