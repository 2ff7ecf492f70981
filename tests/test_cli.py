import csv
import json

import numpy as np
import pytest

from streamline.cli import SEED_ENV_VAR, main, run
from streamline.config import ConfigError, config_from_dict, parse_config
from streamline.embedio import EmbeddingFileError, read_embeddings, write_embeddings


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
    assert cfg.schedule == "every_3"
    sched = cfg.resolved_schedule()
    assert len(sched) == 12
    assert [i for i, s in enumerate(sched) if s == cfg.rare_slice] == [2, 5, 8, 11]


def test_config_rejects_out_of_range_rho():
    with pytest.raises(ConfigError, match=r"rho.*\[0, 1\]"):
        config_from_dict({**minimal_config(), "rho": 1.5})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: budgett"):
        config_from_dict({**minimal_config(), "budgett": 10})
    with pytest.raises(ConfigError, match="maximizer"):
        config_from_dict({**minimal_config(), "maximizer": {"algo": "lazy"}})


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
    assert cfg.resolved_schedule() == (0, 1, 2, 0)
    with pytest.raises(ConfigError, match="rounds"):
        config_from_dict({**minimal_config(), "schedule": [0, 1], "rounds": 5})


def test_config_stochastic_epsilon_rules():
    ok = config_from_dict(
        {**minimal_config(), "maximizer": {"algorithm": "stochastic", "epsilon": 0.1}}
    )
    assert ok.maximizer["epsilon"] == 0.1
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
    binary = tmp_path / "emb.slem"
    write_embeddings(binary, X)
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


def test_embeddings_empty_collection_rejected(tmp_path):
    import struct

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


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


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


def test_cli_seed_env_override_must_be_int(tmp_path, monkeypatch):
    path = write_config(tmp_path, minimal_config())
    monkeypatch.setenv(SEED_ENV_VAR, "x")
    assert main(["validate", "--config", str(path)]) == 2


def test_run_with_workers_matches_serial(tmp_path):
    cfg = config_from_dict({**tiny_run_config(), "rounds": 3})
    run(cfg, tmp_path / "serial", workers=1)
    run(cfg, tmp_path / "parallel", workers=2)
    assert (tmp_path / "serial" / "metrics.csv").read_bytes() == (
        tmp_path / "parallel" / "metrics.csv"
    ).read_bytes()


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
        assert cfg.resolved_schedule() == (0, 0)
