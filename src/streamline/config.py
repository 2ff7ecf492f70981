"""Experiment configuration: JSON schema, validation, defaults.

A config is a flat JSON object (plus nested "maximizer"/"learner" objects).
Unknown keys are rejected so typos fail loudly; every validation error names
the field and the violated constraint. Only "methods" and "seeds" are
required; everything else has a default documented in DEFAULTS.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


DEFAULTS = {
    "slices": 4,
    "classes": 6,
    "dim": 16,
    "class_sep": 2.4,
    "class_twist": 3.2,
    "slice_sep": 8.0,
    "noise_std": 1.0,
    "imbalance": 5,
    "common_pool_size": 200,
    "rounds": 12,
    "schedule": "every_3",
    "episode_size": 100,
    "redundancy": 1,
    "eval_per_slice": 400,
    "rare_slice": None,  # defaults to the last slice
    "rare_by_size": False,
    "budget": 50,
    "rho": 0.5,
    "maximizer": {"algorithm": "lazy", "epsilon": None},
    "learner": {"step_size": 1.0, "epochs": 200, "l2": 1e-3},
}


@dataclass
class ExperimentConfig:
    methods: list
    seeds: list
    slices: int
    classes: int
    dim: int
    class_sep: float
    class_twist: float
    slice_sep: float
    noise_std: float
    imbalance: int
    common_pool_size: int
    rounds: int
    schedule: object
    episode_size: int
    redundancy: int
    eval_per_slice: int
    rare_slice: int
    rare_by_size: bool
    budget: int
    rho: float
    maximizer: dict = field(default_factory=dict)
    learner: dict = field(default_factory=dict)

    def resolved_schedule(self) -> tuple:
        if isinstance(self.schedule, str):
            if self.schedule.startswith("every_"):
                k = int(self.schedule.split("_", 1)[1])
                return every_k_schedule(self.rounds, self.slices, self.rare_slice, k)
            return sequential_schedule(self.rounds, self.slices)
        return tuple(int(s) for s in self.schedule)

    def stream_spec(self, seed: int) -> StreamSpec:
        return StreamSpec(
            n_slices=self.slices,
            n_classes=self.classes,
            dim=self.dim,
            class_sep=self.class_sep,
            class_twist=self.class_twist,
            slice_sep=self.slice_sep,
            noise_std=self.noise_std,
            imbalance=self.imbalance,
            common_pool_size=self.common_pool_size,
            schedule=self.resolved_schedule(),
            redundancy=self.redundancy,
            episode_size=self.episode_size,
            eval_per_slice=self.eval_per_slice,
            rare_slices=(self.rare_slice,),
            rare_by_size=self.rare_by_size,
            seed=seed,
        )

    def run_config(self) -> RunConfig:
        return RunConfig(
            budget=self.budget,
            rho=self.rho,
            maximizer=MaximizerConfig(
                budget=0,
                algorithm=self.maximizer["algorithm"],
                epsilon=self.maximizer["epsilon"],
                seed=0,
            ),
            learner=LearnerConfig(
                step_size=self.learner["step_size"],
                epochs=self.learner["epochs"],
                l2=self.learner["l2"],
            ),
        )


def _require(cond: bool, name: str, constraint: str, value) -> None:
    if not cond:
        raise ConfigError(f"{name}: must be {constraint}, got {value!r}")


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    return value


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
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
    known = {"methods", "seeds", *DEFAULTS.keys()}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("methods", "seeds"):
        if required not in data:
            raise ConfigError(f"{required}: required key is missing")

    merged = {**DEFAULTS, **data}
    for name in ("maximizer", "learner"):
        nested = data.get(name)
        nested = {} if nested is None else nested
        if not isinstance(nested, dict):
            raise ConfigError(f"{name}: must be an object, got {nested!r}")
        unknown = sorted(set(nested) - set(DEFAULTS[name]))
        if unknown:
            raise ConfigError(f"{name}: unknown keys: {', '.join(unknown)}")
        merged[name] = {**DEFAULTS[name], **nested}

    methods = merged["methods"]
    _require(isinstance(methods, list) and len(methods) > 0, "methods", "a nonempty list", methods)
    for m in methods:
        _require(m in METHODS, "methods", f"drawn from {sorted(METHODS)}", m)
    _require(len(set(methods)) == len(methods), "methods", "free of duplicates", methods)

    seeds = merged["seeds"]
    _require(isinstance(seeds, list) and len(seeds) > 0, "seeds", "a nonempty list", seeds)
    seeds = [_as_int(s, "seeds") for s in seeds]
    _require(len(set(seeds)) == len(seeds), "seeds", "free of duplicates", seeds)

    slices = _as_int(merged["slices"], "slices")
    _require(slices >= 1, "slices", ">= 1", slices)
    classes = _as_int(merged["classes"], "classes")
    _require(classes >= 2, "classes", ">= 2", classes)
    dim = _as_int(merged["dim"], "dim")
    _require(dim >= slices, "dim", ">= slices", dim)
    for name in ("class_sep", "class_twist", "slice_sep", "noise_std"):
        merged[name] = _as_number(merged[name], name)
        _require(merged[name] > 0, name, "> 0", merged[name])
    imbalance = _as_int(merged["imbalance"], "imbalance")
    _require(imbalance >= 1, "imbalance", ">= 1", imbalance)
    common_pool_size = _as_int(merged["common_pool_size"], "common_pool_size")
    _require(common_pool_size >= imbalance, "common_pool_size", ">= imbalance", common_pool_size)
    rounds = _as_int(merged["rounds"], "rounds")
    _require(rounds >= 1, "rounds", ">= 1", rounds)

    schedule = merged["schedule"]
    if isinstance(schedule, str):
        k = schedule.split("_", 1)[1] if schedule.startswith("every_") else ""
        ok = schedule == "sequential" or (k.isdecimal() and int(k) >= 1)
        _require(ok, "schedule", '"sequential", "every_<k>" with k >= 1, or a list of slice ids', schedule)
        # every_<k> with k > 1 fills the other rounds with slices besides the rare one
        _require(not k or int(k) == 1 or slices >= 2, "slices", f">= 2 under schedule {schedule}", slices)
    elif isinstance(schedule, list):
        for s in schedule:
            s = _as_int(s, "schedule")
            _require(0 <= s < slices, "schedule", f"a slice id in [0, {slices})", s)
        _require(len(schedule) > 0, "schedule", "nonempty", schedule)
    else:
        raise ConfigError(f"schedule: must be a string preset or list, got {schedule!r}")

    episode_size = _as_int(merged["episode_size"], "episode_size")
    _require(episode_size >= 1, "episode_size", ">= 1", episode_size)
    redundancy = _as_int(merged["redundancy"], "redundancy")
    _require(redundancy >= 1, "redundancy", ">= 1", redundancy)
    _require(
        episode_size % redundancy == 0,
        "episode_size",
        "divisible by redundancy",
        episode_size,
    )
    if isinstance(schedule, list):
        if "rounds" not in data:
            rounds = len(schedule)
        else:
            _require(
                rounds <= len(schedule),
                "rounds",
                f"at most the schedule length {len(schedule)}",
                rounds,
            )
            schedule = schedule[:rounds]

    eval_per_slice = _as_int(merged["eval_per_slice"], "eval_per_slice")
    _require(eval_per_slice >= 1, "eval_per_slice", ">= 1", eval_per_slice)

    rare_slice = merged["rare_slice"]
    if rare_slice is None:
        rare_slice = slices - 1
    rare_slice = _as_int(rare_slice, "rare_slice")
    _require(0 <= rare_slice < slices, "rare_slice", f"in [0, {slices})", rare_slice)

    rare_by_size = merged["rare_by_size"]
    if not isinstance(rare_by_size, bool):
        raise ConfigError(f"rare_by_size: must be a boolean, got {rare_by_size!r}")

    budget = _as_int(merged["budget"], "budget")
    _require(budget >= 0, "budget", ">= 0", budget)
    rho = _as_number(merged["rho"], "rho")
    _require(0.0 <= rho <= 1.0, "rho", "within [0, 1]", rho)

    mx = merged["maximizer"]
    _require(
        mx["algorithm"] in ("naive", "lazy", "stochastic"),
        "maximizer.algorithm",
        "one of naive, lazy, stochastic",
        mx["algorithm"],
    )
    if mx["algorithm"] == "stochastic":
        eps = _as_number(mx["epsilon"], "maximizer.epsilon") if mx["epsilon"] is not None else None
        _require(eps is not None and 0.0 < eps < 1.0, "maximizer.epsilon", "in (0, 1)", mx["epsilon"])
        mx["epsilon"] = eps
    else:
        _require(mx["epsilon"] is None, "maximizer.epsilon", "absent unless stochastic", mx["epsilon"])

    lrn = merged["learner"]
    lrn["step_size"] = _as_number(lrn["step_size"], "learner.step_size")
    _require(lrn["step_size"] > 0, "learner.step_size", "> 0", lrn["step_size"])
    lrn["epochs"] = _as_int(lrn["epochs"], "learner.epochs")
    _require(lrn["epochs"] >= 1, "learner.epochs", ">= 1", lrn["epochs"])
    lrn["l2"] = _as_number(lrn["l2"], "learner.l2")
    _require(lrn["l2"] >= 0, "learner.l2", ">= 0", lrn["l2"])

    cfg = ExperimentConfig(
        methods=list(methods),
        seeds=seeds,
        slices=slices,
        classes=classes,
        dim=dim,
        class_sep=merged["class_sep"],
        class_twist=merged["class_twist"],
        slice_sep=merged["slice_sep"],
        noise_std=merged["noise_std"],
        imbalance=imbalance,
        common_pool_size=common_pool_size,
        rounds=rounds,
        schedule=schedule,
        episode_size=episode_size,
        redundancy=redundancy,
        eval_per_slice=eval_per_slice,
        rare_slice=rare_slice,
        rare_by_size=rare_by_size,
        budget=budget,
        rho=rho,
        maximizer=mx,
        learner=lrn,
    )
    sched = cfg.resolved_schedule()
    _require(len(sched) >= 1, "schedule", "nonempty once resolved", sched)
    return cfg


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
