import ast
import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamline
import streamline.cli as cli
from streamline.cli import METRICS_COLUMNS, SEED_ENV_VAR, main, run
from streamline.config import DEFAULTS, ConfigError, config_from_dict, parse_config
from streamline.simulator import METHODS, every_k_schedule
from test_outputs import CONFIGS, digests, pinned


def minimal_config():
    return {"methods": ["random"], "seeds": [0]}


def tiny_run_config():
    return {
        "methods": ["streamline", "random"],
        "seeds": [0, 1],
        "rounds": 4,
        "slices": 3,
        "classes": 3,
        "dim": 8,
        "common_pool_size": 30,
        "episode_size": 30,
        "eval_per_slice": 40,
        "budget": 10,
        "learner": {"epochs": 40},
    }


# ----------------------------------------------------------------------- config


def test_minimal_config_gets_defaults():
    cfg = config_from_dict(minimal_config())
    assert cfg.rho == 0.5
    assert cfg.budget == 50
    sched = cfg.spec.schedule
    assert sched == every_k_schedule(12, 4, 3, k=3)
    assert [i for i, s in enumerate(sched) if s == cfg.rare_slice] == [2, 5, 8, 11]


def test_config_rejects_out_of_range_rho():
    with pytest.raises(ConfigError, match=r"rho.*\[0, 1\]"):
        config_from_dict({**minimal_config(), "rho": 1.5})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: budgett"):
        config_from_dict({**minimal_config(), "budgett": 10})
    with pytest.raises(ConfigError, match="maximizer"):
        config_from_dict({**minimal_config(), "maximizer": {"algo": "lazy"}})
    with pytest.raises(ConfigError, match="maximizer: unknown keys: partitions"):
        config_from_dict({**minimal_config(), "maximizer": {"partitions": 2}})
    with pytest.raises(ConfigError, match="unknown config keys: rare_by_size"):
        config_from_dict({**minimal_config(), "rare_by_size": True})


def test_readme_config_schema_is_the_all_defaults_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema.*?```json\n(.*?)```", readme, re.S).group(1)
    data = json.loads(block)
    assert set(data) == {"methods", "seeds", *DEFAULTS}
    assert all(set(data[name]) == set(DEFAULTS[name]) for name in ("maximizer", "learner"))
    documented = config_from_dict(data)
    defaults = config_from_dict(minimal_config())
    assert documented.stream_spec(0) == defaults.stream_spec(0)
    assert documented.run_config() == defaults.run_config()


def test_readme_outputs_are_the_written_columns_and_keys(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    outputs = re.search(r"### Outputs\n(.*?)\n### ", readme, re.S).group(1)

    def listed(name):
        names = re.search(rf"`{re.escape(name)}` — [^`]*`([^`]*)`", outputs).group(1)
        return [n.strip() for n in names.split(",")]

    cfg = config_from_dict({**tiny_run_config(), "methods": ["streamline"], "seeds": [0], "rounds": 2})
    run(cfg, tmp_path)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        assert next(csv.reader(fh)) == listed("metrics.csv")
    lines = (tmp_path / "selections.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert all(sorted(json.loads(line)) == sorted(listed("selections.jsonl")) for line in lines)


def test_readme_module_references_resolve_and_the_tour_names_every_module():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for name in set(re.findall(r"\bstreamline\.(\w+)", readme)):
        assert importlib.util.find_spec(f"streamline.{name}") or hasattr(streamline, name), name
    tour = re.search(r"## Library tour\n\n((?:\|.*\n)+)", readme).group(1)
    modules = {p.stem for p in Path(streamline.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    assert modules <= set(re.findall(r"`streamline\.(\w+)`", tour))


def test_every_test_the_readme_cites_exists():
    root = Path(__file__).parents[1]
    cited = set(re.findall(r"`(tests/\w+\.py)::(\w+)`", (root / "README.md").read_text()))
    assert cited
    missing = []
    for path, name in sorted(cited):
        tree = ast.parse((root / path).read_text()) if (root / path).is_file() else ast.Module(body=[])
        if name not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}:
            missing.append(f"{path}::{name}")
    assert missing == []


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("maximizer", "lazy", "maximizer: must be an object, got 'lazy'"),
        ("learner", 5, "learner: must be an object, got 5"),
        ("maximizer", [], r"maximizer: must be an object, got \[\]"),
    ],
)
def test_config_rejects_a_nested_section_that_is_not_an_object(key, value, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict({**minimal_config(), key: value})


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"class_sep": float("inf")}, "class_sep"),
        ({"noise_std": float("nan")}, "noise_std"),
        ({"rho": -float("inf")}, "rho"),
        ({"class_twist": 10**400}, "class_twist"),
        ({"learner": {"step_size": float("inf")}}, "learner.step_size"),
        ({"learner": {"l2": float("inf")}}, "learner.l2"),
        ({"maximizer": {"algorithm": "stochastic", "epsilon": float("nan")}}, "maximizer.epsilon"),
    ],
)
def test_config_rejects_non_finite_numbers(overrides, field):
    with pytest.raises(ConfigError, match=rf"^{field}: must be a finite number"):
        config_from_dict({**minimal_config(), **overrides})


def test_config_requires_methods_and_seeds():
    with pytest.raises(ConfigError, match="methods"):
        config_from_dict({"seeds": [0]})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"methods": ["random"]})


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError, match="methods"):
        config_from_dict({"methods": ["oracle"], "seeds": [0]})


def test_config_poverty_scale_values():
    cfg = config_from_dict(
        {**minimal_config(), "budget": 500, "rho": 0.825, "schedule": "every_3"}
    )
    assert cfg.budget == 500 and cfg.rho == 0.825
    spec = cfg.stream_spec(seed=3)
    assert spec.seed == 3
    assert [i for i, s in enumerate(spec.schedule) if s == spec.rare_slice] == [2, 5, 8, 11]


def test_config_explicit_schedule_list():
    cfg = config_from_dict({**minimal_config(), "schedule": [0, 1, 2, 0]})
    assert cfg.rounds == 4
    assert cfg.spec.schedule == (0, 1, 2, 0)
    with pytest.raises(ConfigError, match="rounds"):
        config_from_dict({**minimal_config(), "schedule": [0, 1], "rounds": 5})


def test_config_stochastic_epsilon_rules():
    ok = config_from_dict(
        {**minimal_config(), "maximizer": {"algorithm": "stochastic", "epsilon": 0.1}}
    )
    assert ok.run.maximizer.epsilon == 0.1
    with pytest.raises(ConfigError, match="epsilon"):
        config_from_dict({**minimal_config(), "maximizer": {"algorithm": "stochastic"}})
    with pytest.raises(ConfigError, match="epsilon"):
        config_from_dict({**minimal_config(), "maximizer": {"epsilon": 0.1}})


@pytest.mark.parametrize(
    "maximizer, message",
    [
        ({"algorithm": "greedy"}, r"maximizer\.algorithm: must be one of naive, lazy, stochastic, got 'greedy'"),
        ({"algorithm": ["lazy"]}, r"maximizer\.algorithm: must be one of naive, lazy, stochastic, got \['lazy'\]"),
        ({"algorithm": "stochastic", "epsilon": 1}, r"maximizer\.epsilon: must be in \(0, 1\), got 1"),
        ({"algorithm": "stochastic", "epsilon": "0.1"}, r"maximizer\.epsilon: must be a number, got '0\.1'"),
        ({"epsilon": 0.1}, r"maximizer\.epsilon: must be absent unless stochastic, got 0\.1"),
    ],
)
def test_config_names_the_maximizer_field_it_rejects(maximizer, message):
    """MaximizerConfig's own checks, reported under the config's field names."""
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        config_from_dict({**minimal_config(), "maximizer": maximizer})


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        parse_config(bad)
    bad.write_text('{"methods": ["random"], "seeds": [0], "rounds": ' + "9" * 5000 + "}")
    with pytest.raises(ConfigError, match="valid JSON: .*4300 digits"):  # past int()'s limit
        parse_config(bad)


# -------------------------------------------------------------------------- run


def test_run_writes_expected_row_counts(tmp_path):
    cfg = config_from_dict(tiny_run_config())
    run(cfg, tmp_path / "out")
    with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 4  # methods x seeds x rounds
    assert set(r["method"] for r in rows) == {"streamline", "random"}
    # emitted files parse back with the documented schema
    with open(tmp_path / "out" / "selections.jsonl") as fh:
        recs = [json.loads(line) for line in fh]
    assert len(recs) == 2 * 2 * 4
    granted = {
        (r["method"], r["seed"], r["round"]): int(r["granted_b"]) for r in rows
    }
    for rec in recs:
        key = (rec["method"], str(rec["seed"]), str(rec["round"]))
        assert len(rec["selected_ids"]) == granted[key]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary["methods"]) == {"streamline", "random"}


def test_run_random_self_efficiency_is_one(tmp_path):
    cfg = config_from_dict(tiny_run_config())
    run(cfg, tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["methods"]["random"]["labeling_efficiency_vs_random"] == pytest.approx(1.0)


def test_run_labels_total_matches_granted_sum(tmp_path):
    cfg = config_from_dict(tiny_run_config())
    run(cfg, tmp_path / "out")
    with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for method in ("streamline", "random"):
        for seed in ("0", "1"):
            sel = [r for r in rows if r["method"] == method and r["seed"] == seed]
            assert int(sel[-1]["labels_total"]) == sum(int(r["granted_b"]) for r in sel)


# -------------------------------------------------------------------------- cli


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out


def test_cli_validate_bad_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {**minimal_config(), "rho": 2.0})
    assert main(["validate", "--config", str(path)]) == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"maximizer": "lazy"}, "maximizer: must be an object"),
        ({"learner": 5}, "learner: must be an object"),
        ({"class_sep": float("inf")}, "class_sep: must be a finite number"),
        ({"learner": {"step_size": float("inf")}}, "learner.step_size: must be a finite number"),
        ({"maximizer": {"partitions": 2}}, "maximizer: unknown keys: partitions"),
        ({"seeds": [-1]}, "seeds: must be >= 0, got -1"),
        ({"rounds": 10**400}, "rounds: must be within [1, 10000]"),
        ({"rounds": 10**9}, "rounds: must be within [1, 10000]"),
        ({"budget": 10**319}, "budget: must be within [0, 1000000000]"),
        ({"slices": 10**400, "dim": 10**400}, "slices: must be within [1, 10000]"),
        ({"dim": 10**20}, "dim: must be within [slices, 1000000]"),
        ({"common_pool_size": 10**20}, "common_pool_size: must be within [imbalance, 1000000]"),
        ({"episode_size": 10**20}, "episode_size: must be within [1, 1000000]"),
        ({"eval_per_slice": 10**20}, "eval_per_slice: must be within [1, 1000000]"),
        ({"schedule": "every_" + "0" * 5000}, '"every_<k>" with k >= 1'),  # over int()'s 4,300 digits
        # keys that only StreamSpec checks
        ({"redundancy": 3}, "episode_size: must be divisible by redundancy, got 100"),
        ({"rare_slice": 1.5}, "rare_slice: must be an integer in [0, 4), got 1.5"),
        ({"schedule": [0, "a"]}, "schedule: must be a slice id in [0, 4), got 'a'"),
        # ranges that the dataclass a key configures checks
        ({"classes": 1}, "classes: must be >= 2, got 1"),
        ({"slices": 0}, "slices: must be >= 1, got 0"),
        ({"episode_size": 0}, "episode_size: must be >= 1, got 0"),
        ({"eval_per_slice": 0}, "eval_per_slice: must be >= 1, got 0"),
        ({"common_pool_size": 4}, "common_pool_size: must be >= imbalance 5, got 4"),
        ({"class_sep": -1}, "class_sep: must be a finite number > 0, got -1.0"),
        ({"learner": {"epochs": 0}}, "learner.epochs: must be an integer >= 1, got 0"),
        ({"learner": {"l2": -1}}, "learner.l2: must be a finite number >= 0, got -1.0"),
        ({"budget": -1}, "budget: must be a nonnegative integer, got -1"),
        ({"rho": 2}, "rho: must be a finite number in [0, 1], got 2.0"),
        ({"classes": 10**9}, "classes: must be within [2, 10000]"),
        ({"learner": {"epochs": 10**12}}, "learner.epochs: must be within [1, 1000000]"),
    ],
)
def test_cli_validate_exit_2_names_the_field(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, {**minimal_config(), **overrides})  # json writes Infinity
    assert main(["validate", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    # huge integers, short of the 4,300 digits past which json writes none
    st.builds(lambda n, sign: sign * (10**n - 1), st.integers(1, 4000), st.sampled_from([1, -1])),
    st.floats(),  # NaN and Infinity too, which json writes and reads
    st.text(max_size=12),
    st.text(alphabet="0123456789", max_size=6000),
    st.text(alphabet="0123456789", max_size=6000).map("every_".__add__),
    st.sampled_from(["sequential", "every_3", "lazy", "naive", "stochastic", *METHODS]),
)
_HOSTILE = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from([*DEFAULTS["maximizer"], *DEFAULTS["learner"], "junk"]), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(changed=st.dictionaries(st.sampled_from(["methods", "seeds", *DEFAULTS]), _HOSTILE, min_size=1, max_size=3))
@example(changed={"schedule": "every_" + "9" * 5000})
def test_validate_exits_0_or_2_naming_a_changed_key_for_any_values(tmp_path_factory, changed):
    """Hostile values for up to three schema keys never escape as a traceback
    (exit 1) or a run-time error (exit 3), and a rejection names a key
    that was changed; a key whose rule reads another names both."""
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps({**minimal_config(), **changed}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", "--config", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error: ")
        assert any(key in err.getvalue() for key in changed), err.getvalue()


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_a_parent_that_split_a_kernel_block_still_forks_its_workers(tmp_path):
    """cli.run's workers are forked, and a child has no helper thread: it
    makes its own executor rather than wait on the parent's thread."""
    path = CONFIGS / "split.json"
    script = (
        "import sys\n"
        "import threading\n"
        "import numpy as np\n"
        "from streamline import build_kernel\n"
        "from streamline.cli import main\n"
        "X = np.random.default_rng(0).normal(size=(1030, 4))\n"
        "build_kernel(X, X)  # 1030 x 1030: split, so the helper's thread runs before the fork\n"
        "assert any(t.name.startswith('kernels') and t.is_alive() for t in threading.enumerate())\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(streamline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "parallel"), "--workers", "2"]
    # its own session, so that a hung run's forked workers are killed with it
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run --workers 2 hung after its parent split a kernel block")
    assert proc.returncode == 0, err
    assert digests(tmp_path / "parallel") == pinned("split")


def test_cli_run_and_efficiency(tmp_path, capsys):
    path = write_config(tmp_path, tiny_run_config())
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    metrics = out_dir / "metrics.csv"
    assert main(["efficiency", "--metrics", str(metrics), "--target", "0.3", "--metric", "rare"]) == 0
    out = capsys.readouterr().out
    assert "random" in out and "streamline" in out


def test_cli_efficiency_missing_file_exit_3(tmp_path):
    assert main(["efficiency", "--metrics", str(tmp_path / "no.csv"), "--target", "0.5"]) == 3


def test_cli_seed_env_override(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, {**tiny_run_config(), "seeds": [0, 1, 2, 3]})
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    out_dir = tmp_path / "smoke"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(r["seed"] for r in rows) == {"7"}


def test_cli_seed_env_override_must_be_int(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, minimal_config())
    for value, message in (("x", "must be an integer, got 'x'"), ("-3", "must be >= 0, got '-3'")):
        monkeypatch.setenv(SEED_ENV_VAR, value)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"config error: {SEED_ENV_VAR}: {message}" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, text, message",
    [
        (7, None, "metrics.csv: seed 1 of random has 2 rounds, not 3"),
        (3, "random,0,1,20,0.5,x,0,0,10,0.0", "metrics.csv:3: column rare_metric is not a number: 'x'"),
        (4, "random,0,2,30", "metrics.csv:4: column rare_metric is missing"),
        (3, "random,0,1,20,0.5,nan,0,0,10,0.0", "metrics.csv:3: column rare_metric is not finite: 'nan'"),
        (4, "random,0,2,inf,0.5,0.3,0,0,10,0.0", "metrics.csv:4: column labels_total is not finite: 'inf'"),
        (1, "method,seed,round", "metrics.csv does not look like an emitted metrics.csv"),
    ],
    ids=["fewer_rounds", "non_numeric", "short_row", "nan_cell", "inf_cell", "other_header"],
)
def test_cli_efficiency_names_the_bad_row_exit_3(tmp_path, capsys, line, text, message):
    lines = [",".join(METRICS_COLUMNS)]
    lines += [f"random,{seed},{r},{10 * (r + 1)},0.5,0.{r + 1},0,0,10,0.0" for seed in (0, 1) for r in range(3)]
    if text is None:
        del lines[line - 1]
    else:
        lines[line - 1] = text
    path = tmp_path / "metrics.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["efficiency", "--metrics", str(path), "--target", "0.2"]) == 3
    assert message in capsys.readouterr().err


def test_cli_efficiency_without_random_rows_exit_3(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_text(",".join(METRICS_COLUMNS) + "\nstreamline,0,0,10,0.5,0.1,0,0,10,0.0\n")
    assert main(["efficiency", "--metrics", str(path), "--target", "0.2"]) == 3
    assert "metrics.csv contains no 'random' rows to compare against" in capsys.readouterr().err


def test_cli_run_into_an_unwritable_directory_exit_3(tmp_path, capsys):
    """A directory where run's write probe goes stands in for one without
    write permission, which root would write to regardless."""
    path = write_config(tmp_path, minimal_config())
    (tmp_path / "out" / ".write_probe").mkdir(parents=True)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"error: output directory {tmp_path / 'out'} is not writable" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_cli_config_whose_root_is_not_an_object_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, [minimal_config()])
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error: config root: must be a JSON object, got list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [({"schedule": "every_0"}, "schedule"), ({"slices": 1, "dim": 4}, "slices")],
)
def test_cli_schedule_without_common_rounds_exit_2(tmp_path, capsys, override, field):
    path = write_config(tmp_path, {**minimal_config(), **override})
    assert main(["validate", "--config", str(path)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_reads_every_k_whatever_its_leading_zeros_or_length():
    # k beyond the 12 rounds, of any length, schedules no rare round, as k = 13 does
    for k, read in (("3", 3), ("0" * 5000 + "3", 3), ("0" * 5000 + "12", 12), ("13", 13), ("9" * 5000, 13)):
        cfg = config_from_dict({**minimal_config(), "schedule": f"every_{k}"})
        assert cfg.spec.schedule == every_k_schedule(12, 4, 3, k=read)
    assert 3 not in every_k_schedule(12, 4, 3, k=13)


def test_config_single_slice_schedules_that_need_no_common_slice():
    for schedule in ("every_1", "sequential", [0, 0]):
        cfg = config_from_dict({**minimal_config(), "slices": 1, "schedule": schedule, "rounds": 2})
        assert cfg.spec.schedule == (0, 0)


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_run_rejects_workers_below_one_exit_2(tmp_path, capsys, workers):
    path = write_config(tmp_path, minimal_config())
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--workers", workers]) == 2
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out_dir.exists()


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that records max_workers and runs the jobs in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("seeds, workers, started", [([0, 1], 5000, [2]), ([0, 1], 2, [2]), ([0], 8, [])])
def test_run_starts_at_most_one_worker_per_job(tmp_path, monkeypatch, seeds, workers, started):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    cfg = config_from_dict({**minimal_config(), "seeds": seeds})
    assert run(cfg, tmp_path / "out", workers=workers) == 0
    assert _RecordingPool.started == started  # [] when one job runs serially
    lines = (tmp_path / "out" / "selections.jsonl").read_text().splitlines()
    assert len(lines) == DEFAULTS["rounds"] * len(seeds)


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
def test_cli_efficiency_rejects_a_non_finite_target_exit_2(tmp_path, capsys, target):
    path = write_config(tmp_path, tiny_run_config())
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    metrics = str(tmp_path / "out" / "metrics.csv")
    assert main(["efficiency", "--metrics", metrics, f"--target={target}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--target must be finite, got {float(target)}" in err


def test_run_rejects_workers_below_one(tmp_path):
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        run(config_from_dict(minimal_config()), tmp_path / "out", workers=0)
    assert not (tmp_path / "out").exists()
