import csv
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from streamline.cli import METRICS_COLUMNS, SEED_ENV_VAR, main, run
from streamline.config import DEFAULTS, ConfigError, config_from_dict, parse_config
from streamline.embedio import EmbeddingFileError, read_embeddings, write_embeddings
from streamline.simulator import METHODS, every_k_schedule


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
    assert [i for i, s in enumerate(spec.schedule) if s == spec.rare_slices[0]] == [2, 5, 8, 11]


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


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        parse_config(bad)


# ------------------------------------------------------------------- embeddings


def test_embeddings_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 5)).astype(np.float32)
    path = tmp_path / "emb.slem"
    write_embeddings(path, X)
    back = read_embeddings(path)
    assert np.array_equal(back.X, X)
    assert back.ids is None


def test_embeddings_roundtrip_with_sidecar(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 3))
    path = tmp_path / "emb.slem"
    write_embeddings(path, X, ids=[10, 11, 12, 13], labels=[0, 1, 0, 1], slices=[0, 0, 1, 1])
    back = read_embeddings(path)
    assert np.array_equal(back.X, X.astype(np.float32))
    assert list(back.ids) == [10, 11, 12, 13]
    assert list(back.labels) == [0, 1, 0, 1]
    assert list(back.slices) == [0, 0, 1, 1]


@pytest.mark.parametrize(
    "bad_row, why", [([np.nan, 1.0], "not finite"), ([1e300, 1.0], "not finite"), ([0.0, 0.0], "all zero")]
)
def test_write_embeddings_refuses_rows_read_embeddings_rejects(tmp_path, bad_row, why):
    X = np.array([[1.0, 2.0], bad_row, [3.0, 4.0]])
    path = tmp_path / "emb.slem"
    with np.errstate(over="ignore"), pytest.raises(EmbeddingFileError, match=f"row 1 is {why}"):
        write_embeddings(path, X, ids=[0, 1, 2])  # 1e300 overflows the float32 cast to inf
    assert list(tmp_path.iterdir()) == []  # neither the file nor its sidecar
    write_embeddings(path, X[[0, 2]], ids=[0, 2])
    back = read_embeddings(path)
    assert np.array_equal(back.X, X[[0, 2]].astype(np.float32)) and list(back.ids) == [0, 2]


def test_embeddings_truncated_file(tmp_path):
    path = tmp_path / "emb.slem"
    write_embeddings(path, np.ones((3, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(EmbeddingFileError, match="expected 62 bytes"):
        read_embeddings(path)


def test_embeddings_bad_magic_is_not_silently_accepted(tmp_path):
    path = tmp_path / "emb.slem"
    write_embeddings(path, np.ones((2, 2)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"  # no longer binary; garbage bytes fail the text fallback too
    path.write_bytes(bytes(raw))
    with pytest.raises(EmbeddingFileError):
        read_embeddings(path)


def test_embeddings_text_format(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    back = read_embeddings(path)
    assert back.X.dtype == np.float32
    assert np.array_equal(back.X, np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))


def test_embeddings_text_format_with_sidecar(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    (tmp_path / "emb.csv.meta.csv").write_text("id,label,slice\n5,0,1\n6,1,0\n")
    back = read_embeddings(path)
    assert list(back.ids) == [5, 6]
    assert list(back.slices) == [1, 0]


@pytest.mark.parametrize(
    "bad_row, why", [([1.0, np.nan], "not finite"), ([np.inf, 0.0], "not finite"), ([0.0, 0.0], "all zero")]
)
def test_embeddings_reject_bad_rows_naming_row_and_offset(tmp_path, bad_row, why):
    X = np.array([[1.0, 2.0], [3.0, 4.0], bad_row])
    binary = tmp_path / "emb.slem"  # written by hand: write_embeddings refuses bad rows
    binary.write_bytes(struct.pack("<4sHII", b"SLEM", 1, 3, 2) + X.astype("<f4").tobytes())
    # 14-byte header, then 2 float32 values (8 bytes) per row
    with pytest.raises(EmbeddingFileError, match=f"row 2 at byte offset 30 is {why}"):
        read_embeddings(binary)
    text = tmp_path / "emb.csv"
    text.write_text("\n".join(",".join(str(v) for v in row) for row in X) + "\n")
    with pytest.raises(EmbeddingFileError, match=f"row 2 is {why}"):
        read_embeddings(text)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_embeddings_text_overflowing_float32_is_not_finite(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("1e39,1.0\n")
    with pytest.raises(EmbeddingFileError, match="row 0 is not finite"):
        read_embeddings(path)


def test_embeddings_text_format_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(EmbeddingFileError, match="row has 1 values"):
        read_embeddings(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmbeddingFileError, match="empty text"):
        read_embeddings(empty)


@pytest.mark.parametrize(
    "row, message",
    [
        ("5,0", r"meta\.csv:3: field slice is missing"),
        ("5,0,1,7", r"meta\.csv:3: field 4 is extra"),
        ("5,x,1", r"meta\.csv:3: field label is not an integer: 'x'"),
        ("5.5,0,1", r"meta\.csv:3: field id is not an integer: '5\.5'"),
    ],
)
def test_embeddings_sidecar_errors_name_file_line_and_field(tmp_path, row, message):
    path = tmp_path / "emb.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    (tmp_path / "emb.csv.meta.csv").write_text(f"id,label,slice\n4,1,0\n{row}\n")
    with pytest.raises(EmbeddingFileError, match=message):
        read_embeddings(path)


def test_embeddings_empty_sidecar_names_the_file(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("1.0,2.0\n")
    (tmp_path / "emb.csv.meta.csv").write_text("")
    with pytest.raises(EmbeddingFileError, match=r"meta\.csv: header must be id,label,slice, got None"):
        read_embeddings(path)


def test_embeddings_empty_collection_rejected(tmp_path):
    path = tmp_path / "emb.slem"
    path.write_bytes(struct.pack("<4sHII", b"SLEM", 1, 0, 4))
    with pytest.raises(EmbeddingFileError, match="empty collection"):
        read_embeddings(path)
    with pytest.raises(EmbeddingFileError):
        write_embeddings(path, np.empty((0, 3)))


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


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = config_from_dict(tiny_run_config())
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    for name in ("metrics.csv", "selections.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
    ],
)
def test_cli_validate_exit_2_names_the_field(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, {**minimal_config(), **overrides})  # json writes Infinity
    assert main(["validate", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_run_writes_the_same_bytes_with_one_or_two_workers(tmp_path):
    cfg = config_from_dict({**tiny_run_config(), "methods": list(METHODS), "learner": {"epochs": 10}})
    assert run(cfg, tmp_path / "serial", workers=1) == 0
    assert run(cfg, tmp_path / "parallel", workers=2) == 0
    for name in ("metrics.csv", "selections.jsonl", "summary.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()


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
    ],
    ids=["fewer_rounds", "non_numeric", "short_row"],
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


def test_run_rejects_workers_below_one(tmp_path):
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        run(config_from_dict(minimal_config()), tmp_path / "out", workers=0)
    assert not (tmp_path / "out").exists()
