"""Experiment configuration: JSON schema, validation, defaults.

A config is a flat JSON object (plus nested "maximizer"/"learner" objects).
Unknown keys are rejected so typos fail loudly; every validation error names
the field and the violated constraint. Only "methods" and "seeds" are
required. Every other default, and every range check, belongs to the
dataclass a key configures (StreamSpec, RunConfig, MaximizerConfig,
LearnerConfig); config reads each number as its default's type, caps what
a run allocates, and resolves "rounds" and "schedule" into one schedule.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .maximize import MaximizerConfig
from .simulator import (
    METHODS,
    LearnerConfig,
    RunConfig,
    StreamSpec,
    every_k_schedule,
    sequential_schedule,
)


class ConfigError(ValueError):
    """Raised when a config file is missing, malformed, or out of range."""


def _field_defaults(cls, *skip: str) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in skip and f.default is not MISSING}


_SPEC_DEFAULTS = _field_defaults(StreamSpec, "schedule", "seed")
_RENAMED = {"n_slices": "slices", "n_classes": "classes"}  # StreamSpec field -> config key
# config key -> StreamSpec field, for the fields the config sets directly
_SPEC_KEYS = {_RENAMED.get(name, name): name for name in _SPEC_DEFAULTS}

DEFAULTS = {
    **{key: _SPEC_DEFAULTS[name] for key, name in _SPEC_KEYS.items()},
    "rounds": 12,
    "schedule": "every_3",
    **_field_defaults(RunConfig),
    "maximizer": _field_defaults(MaximizerConfig, "seed"),
    "learner": _field_defaults(LearnerConfig),
}

# Every number is read as the type of its default, int or float.
_NUMBERS = {**DEFAULTS, **{f"learner.{key}": value for key, value in DEFAULTS["learner"].items()}}
_KINDS = {key: type(value) for key, value in _NUMBERS.items() if type(value) in (int, float)}
# Config's own caps, so that validation builds a whole schedule and a run
# allocates what one machine holds and fits for a bounded number of epochs:
# key -> (the range's lower end, which the dataclass the key configures
# checks, and the cap).
_CAPS = {"slices": ("1", 10_000), "classes": ("2", 10_000), "rounds": ("1", 10_000), "dim": ("slices", 10**6),
         "budget": ("0", 10**9), "common_pool_size": ("imbalance", 10**6), "episode_size": ("1", 10**6),
         "eval_per_slice": ("1", 10**6), "learner.epochs": ("1", 10**6)}


@dataclass
class ExperimentConfig:
    """Validated config: methods, seeds, a stream spec (seed 0) and run settings."""

    methods: list
    seeds: list
    spec: StreamSpec
    run: RunConfig

    @property
    def rounds(self) -> int:
        return self.spec.n_rounds

    @property
    def rare_slice(self) -> int:
        return self.spec.rare_slice

    @property
    def classes(self) -> int:
        return self.spec.n_classes

    @property
    def budget(self) -> int:
        return self.run.budget

    @property
    def rho(self) -> float:
        return self.run.rho

    def stream_spec(self, seed: int) -> StreamSpec:
        return replace(self.spec, seed=seed)

    def run_config(self) -> RunConfig:
        return self.run


def _require(cond: bool, name: str, constraint: str, value) -> None:
    if not cond:
        raise ConfigError(f"{name}: must be {constraint}, got {value!r}")


def _as(kind, value, name: str):
    """The value as an int (kind int) or a finite float (kind float)."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ConfigError(f"{name}: must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # json.loads accepts Infinity, NaN, 10**400
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    return kind(value)


def _built(make, *args, prefix: str = "", **kwargs):
    """make(*args, **kwargs), a dataclass's ValueError, which names its field,
    raised as a ConfigError naming the config key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        name, _, rest = str(exc).partition(":")
        raise ConfigError(f"{prefix}{_RENAMED.get(name, name)}:{rest}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root: must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {"methods", "seeds", *DEFAULTS})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("methods", "seeds"):
        if required not in data:
            raise ConfigError(f"{required}: required key is missing")

    c = {**DEFAULTS, **data}  # nested sections are flattened to "section.key"
    for name in ("maximizer", "learner"):
        nested = data.get(name)
        nested = {} if nested is None else nested
        if not isinstance(nested, dict):
            raise ConfigError(f"{name}: must be an object, got {nested!r}")
        unknown = sorted(set(nested) - set(DEFAULTS[name]))
        if unknown:
            raise ConfigError(f"{name}: unknown keys: {', '.join(unknown)}")
        c.update({f"{name}.{key}": value for key, value in {**DEFAULTS[name], **nested}.items()})

    methods = c["methods"]
    _require(isinstance(methods, list) and len(methods) > 0, "methods", "a nonempty list", methods)
    for m in methods:
        _require(m in METHODS, "methods", f"drawn from {sorted(METHODS)}", m)
    _require(len(set(methods)) == len(methods), "methods", "free of duplicates", methods)

    seeds = c["seeds"]
    _require(isinstance(seeds, list) and len(seeds) > 0, "seeds", "a nonempty list", seeds)
    for s in seeds:
        _require(_as(int, s, "seeds") >= 0, "seeds", ">= 0", s)
    _require(len(set(seeds)) == len(seeds), "seeds", "free of duplicates", seeds)

    for key, kind in _KINDS.items():
        c[key] = value = _as(kind, c[key], key)
        if key in _CAPS:
            least, cap = _CAPS[key]
            _require(value <= cap, key, f"within [{least}, {cap}]", value)
    rounds = c["rounds"]
    _require(rounds >= 1, "rounds", "within [1, 10000]", rounds)  # rounds configures no dataclass

    epsilon = c["maximizer.epsilon"]
    if epsilon is not None:  # a finite number, passed on as given
        _as(float, epsilon, "maximizer.epsilon")
    maximizer = _built(MaximizerConfig, budget=0, algorithm=c["maximizer.algorithm"], epsilon=epsilon,
                       prefix="maximizer.")
    # StreamSpec decides the rare slice, so a preset is built from a spec
    # checked with a one-round placeholder schedule
    spec = _built(StreamSpec, **{name: c[key] for key, name in _SPEC_KEYS.items()}, schedule=(0,))
    schedule = c["schedule"]
    if isinstance(schedule, str):
        k = schedule.split("_", 1)[1] if schedule.startswith("every_") else ""
        # every k above rounds (at most 10000) gives the same schedule, so six
        # digits after the leading zeros decide k, and int() never sees 4,300
        k = min(int(k.lstrip("0")[:6] or 0), rounds + 1) if k.isdecimal() else 0
        ok = schedule == "sequential" or k >= 1
        _require(ok, "schedule", '"sequential", "every_<k>" with k >= 1, or a list of slice ids', schedule)
        n = spec.n_slices
        # every_<k> with k > 1 fills the other rounds with slices besides the rare one
        _require(k <= 1 or n >= 2, "slices", f">= 2 under schedule {schedule}", n)
        schedule = every_k_schedule(rounds, n, spec.rare_slice, k) if k else sequential_schedule(rounds, n)
    elif isinstance(schedule, list):
        if "rounds" in data:
            length = len(schedule)
            _require(rounds <= length, "rounds", f"at most the schedule length {length}", rounds)
            schedule = schedule[:rounds]
    else:
        raise ConfigError(f"schedule: must be a string preset or list, got {schedule!r}")
    spec = _built(replace, spec, schedule=tuple(schedule))

    learner = _built(LearnerConfig, **{key: c[f"learner.{key}"] for key in DEFAULTS["learner"]}, prefix="learner.")
    run = _built(RunConfig, budget=c["budget"], rho=c["rho"], maximizer=maximizer, learner=learner)
    return ExperimentConfig(methods=list(methods), seeds=list(seeds), spec=spec, run=run)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer of over int()'s 4,300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
