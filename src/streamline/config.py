"""Experiment configuration: JSON schema, validation, defaults.

A config is a flat JSON object (plus nested "maximizer"/"learner" objects).
Unknown keys are rejected so typos fail loudly; every validation error names
the field and the violated constraint. Only "methods" and "seeds" are
required. Every other default is read from the dataclass it configures
(StreamSpec, RunConfig, MaximizerConfig, LearnerConfig); only "rounds" and
"schedule" have defaults of their own, because StreamSpec takes the
resolved schedule instead.
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


_SPEC_DEFAULTS = _field_defaults(StreamSpec, "schedule", "seed")
# config key -> StreamSpec field, for the fields the config sets directly
_SPEC_KEYS = {{"n_slices": "slices", "n_classes": "classes"}.get(name, name): name for name in _SPEC_DEFAULTS}

DEFAULTS = {
    **{key: _SPEC_DEFAULTS[name] for key, name in _SPEC_KEYS.items()},
    "rounds": 12,
    "schedule": "every_3",
    **_field_defaults(RunConfig),
    "maximizer": _field_defaults(MaximizerConfig, "seed"),
    "learner": _field_defaults(LearnerConfig),
}

# Numeric rules, checked in order: (key, int or float, test, constraint). The
# test sees the value and the keys checked before it.
_RULES = (
    ("slices", int, lambda v, c: 1 <= v <= 10_000, "within [1, 10000]"),
    ("classes", int, lambda v, c: v >= 2, ">= 2"),
    ("dim", int, lambda v, c: c["slices"] <= v <= 10**6, "within [slices, 1000000]"),
    ("class_sep", float, lambda v, c: v > 0, "> 0"),
    ("class_twist", float, lambda v, c: v > 0, "> 0"),
    ("slice_sep", float, lambda v, c: v > 0, "> 0"),
    ("noise_std", float, lambda v, c: v > 0, "> 0"),
    ("imbalance", int, lambda v, c: v >= 1, ">= 1"),
    ("common_pool_size", int, lambda v, c: c["imbalance"] <= v <= 10**6, "within [imbalance, 1000000]"),
    ("rounds", int, lambda v, c: 1 <= v <= 10_000, "within [1, 10000]"),
    ("episode_size", int, lambda v, c: 1 <= v <= 10**6, "within [1, 1000000]"),
    ("eval_per_slice", int, lambda v, c: 1 <= v <= 10**6, "within [1, 1000000]"),
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
    slices, rounds = c["slices"], c["rounds"]
    schedule = c["schedule"]
    if isinstance(schedule, str):
        k = schedule.split("_", 1)[1] if schedule.startswith("every_") else ""
        # every k above rounds (at most 10000) gives the same schedule, so six
        # digits after the leading zeros decide k, and int() never sees 4,300
        k = min(int(k.lstrip("0")[:6] or 0), rounds + 1) if k.isdecimal() else 0
        ok = schedule == "sequential" or k >= 1
        _require(ok, "schedule", '"sequential", "every_<k>" with k >= 1, or a list of slice ids', schedule)
        # every_<k> with k > 1 fills the other rounds with slices besides the rare one
        _require(k <= 1 or slices >= 2, "slices", f">= 2 under schedule {schedule}", slices)
        schedule = every_k_schedule(rounds, slices, c["rare_slice"], k) if k else sequential_schedule(rounds, slices)
    elif isinstance(schedule, list):
        if "rounds" in data:
            length = len(schedule)
            _require(rounds <= length, "rounds", f"at most the schedule length {length}", rounds)
            schedule = schedule[:rounds]
    else:
        raise ConfigError(f"schedule: must be a string preset or list, got {schedule!r}")

    epsilon = c["maximizer.epsilon"]
    if epsilon is not None:  # a finite number, passed on as given
        _as(float, epsilon, "maximizer.epsilon")
    try:
        maximizer = MaximizerConfig(budget=0, algorithm=c["maximizer.algorithm"], epsilon=epsilon)
    except ValueError as exc:  # which names the field and its constraint
        raise ConfigError(f"maximizer.{exc}") from None
    try:  # StreamSpec checks the keys no rule above does: redundancy, rare_slice, a schedule's entries
        spec = StreamSpec(
            **{name: c[key] for key, name in _SPEC_KEYS.items()},
            schedule=tuple(schedule),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    run = RunConfig(
        budget=c["budget"],
        rho=c["rho"],
        maximizer=maximizer,
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
    except ValueError as exc:  # JSONDecodeError, or an integer of over int()'s 4,300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)
