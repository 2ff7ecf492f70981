"""Experiment configuration: JSON schema, validation, defaults.

A config is a flat JSON object (plus nested "maximizer"/"learner" objects).
Unknown keys are rejected so typos fail loudly; every validation error names
the field and the violated constraint. Only "methods" and "seeds" are
required. Every other default is read from the dataclass it configures
(StreamSpec, RunConfig, MaximizerConfig, LearnerConfig); only "rounds",
"schedule" and "rare_slice" have defaults of their own, because StreamSpec
takes the resolved schedule and rare-slice tuple instead.
"""

from __future__ import annotations

import json
import math
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


_SPEC_DEFAULTS = _field_defaults(StreamSpec, "schedule", "rare_slices", "seed")
# config key -> StreamSpec field, for the fields the config sets directly
_SPEC_KEYS = {{"n_slices": "slices", "n_classes": "classes"}.get(name, name): name for name in _SPEC_DEFAULTS}

DEFAULTS = {
    **{key: _SPEC_DEFAULTS[name] for key, name in _SPEC_KEYS.items()},
    "rounds": 12,
    "schedule": "every_3",
    "rare_slice": None,  # the last slice
    **_field_defaults(RunConfig),
    "maximizer": _field_defaults(MaximizerConfig, "seed"),
    "learner": _field_defaults(LearnerConfig),
}

# Numeric rules, checked in order: (key, int or float, test, constraint). The
# test sees the value and the keys checked before it.
_RULES = (
    ("slices", int, lambda v, c: 1 <= v <= 10_000, "within [1, 10000]"),
    ("classes", int, lambda v, c: v >= 2, ">= 2"),
    ("dim", int, lambda v, c: v >= c["slices"], ">= slices"),
    ("class_sep", float, lambda v, c: v > 0, "> 0"),
    ("class_twist", float, lambda v, c: v > 0, "> 0"),
    ("slice_sep", float, lambda v, c: v > 0, "> 0"),
    ("noise_std", float, lambda v, c: v > 0, "> 0"),
    ("imbalance", int, lambda v, c: v >= 1, ">= 1"),
    ("common_pool_size", int, lambda v, c: v >= c["imbalance"], ">= imbalance"),
    ("rounds", int, lambda v, c: 1 <= v <= 10_000, "within [1, 10000]"),
    ("episode_size", int, lambda v, c: v >= 1, ">= 1"),
    ("redundancy", int, lambda v, c: v >= 1, ">= 1"),
    ("eval_per_slice", int, lambda v, c: v >= 1, ">= 1"),
    ("budget", int, lambda v, c: 0 <= v <= 10**9, "within [0, 1000000000]"),
    ("rho", float, lambda v, c: 0.0 <= v <= 1.0, "within [0, 1]"),
    ("learner.step_size", float, lambda v, c: v > 0, "> 0"),
    ("learner.epochs", int, lambda v, c: v >= 1, ">= 1"),
    ("learner.l2", float, lambda v, c: v >= 0, ">= 0"),
)


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
        return self.spec.rare_slices[0]

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
    if kind is int:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json.loads accepts Infinity and NaN
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    return number


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

    for key, kind, test, constraint in _RULES:
        c[key] = value = _as(kind, c[key], key)
        _require(test(value, c), key, constraint, value)
    slices, rounds, episode_size = c["slices"], c["rounds"], c["episode_size"]
    _require(episode_size % c["redundancy"] == 0, "episode_size", "divisible by redundancy", episode_size)

    rare_slice = _as(int, slices - 1 if c["rare_slice"] is None else c["rare_slice"], "rare_slice")
    _require(0 <= rare_slice < slices, "rare_slice", f"in [0, {slices})", rare_slice)

    schedule = c["schedule"]
    if isinstance(schedule, str):
        k = schedule.split("_", 1)[1] if schedule.startswith("every_") else ""
        ok = schedule == "sequential" or (k.isdecimal() and int(k) >= 1)
        _require(ok, "schedule", '"sequential", "every_<k>" with k >= 1, or a list of slice ids', schedule)
        # every_<k> with k > 1 fills the other rounds with slices besides the rare one
        _require(not k or int(k) == 1 or slices >= 2, "slices", f">= 2 under schedule {schedule}", slices)
        if k:
            schedule = every_k_schedule(rounds, slices, rare_slice, int(k))
        else:
            schedule = sequential_schedule(rounds, slices)
    elif isinstance(schedule, list):
        for s in schedule:
            _require(0 <= _as(int, s, "schedule") < slices, "schedule", f"a slice id in [0, {slices})", s)
        _require(len(schedule) > 0, "schedule", "nonempty", schedule)
        if "rounds" in data:
            length = len(schedule)
            _require(rounds <= length, "rounds", f"at most the schedule length {length}", rounds)
            schedule = schedule[:rounds]
    else:
        raise ConfigError(f"schedule: must be a string preset or list, got {schedule!r}")

    algorithm, epsilon = c["maximizer.algorithm"], c["maximizer.epsilon"]
    _require(
        algorithm in ("naive", "lazy", "stochastic"),
        "maximizer.algorithm",
        "one of naive, lazy, stochastic",
        algorithm,
    )
    if algorithm == "stochastic":  # a float in (0, 1) as given, so no conversion
        ok = epsilon is not None and 0.0 < _as(float, epsilon, "maximizer.epsilon") < 1.0
        _require(ok, "maximizer.epsilon", "in (0, 1)", epsilon)
    else:
        _require(epsilon is None, "maximizer.epsilon", "absent unless stochastic", epsilon)

    spec = StreamSpec(
        **{name: c[key] for key, name in _SPEC_KEYS.items()},
        schedule=tuple(schedule),
        rare_slices=(rare_slice,),
    )
    run = RunConfig(
        budget=c["budget"],
        rho=c["rho"],
        maximizer=MaximizerConfig(budget=0, algorithm=algorithm, epsilon=epsilon),
        learner=LearnerConfig(**{key: c[f"learner.{key}"] for key in DEFAULTS["learner"]}),
    )
    return ExperimentConfig(methods=list(methods), seeds=list(seeds), spec=spec, run=run)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
