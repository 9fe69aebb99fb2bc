import pickle
from dataclasses import asdict
from pathlib import Path

import pytest
import yaml

from narlab.config import (
    OUTPUT_ROOT_ENV,
    RunConfig,
    RunLock,
    apply_overrides,
    load_config,
    run_dir,
    write_resolved,
)
from narlab.transformer import AR, NAR
from narlab.vocab import N_RESERVED

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestRunConfig:
    def test_desk_defaults(self):
        c = RunConfig()
        assert c.task.kind == "mapped_reversal"
        assert (c.model.num_layers, c.model.num_heads) == (2, 4)
        assert (c.model.model_dim, c.model.hidden_dim) == (64, 256)
        assert c.train.batch_tokens == 512
        assert c.train.warmup_steps == 200
        assert c.train.label_smoothing == 0.1
        assert c.train.patience_epochs == 5
        assert c.train.average_last_k == 5
        assert c.data.n_pairs == 8000
        assert c.data.mono_ratio == 4.0

    def test_round_trip(self):
        c = load_config(None, ["train.peak_lr=0.005", "task.n_content=16"])
        assert RunConfig.from_dict(asdict(c)) == c

    def test_pickles(self):
        c = load_config(None, ["model.model_dim=32"])
        assert pickle.loads(pickle.dumps(c)) == c

    def test_model_config_derives_vocab(self):
        c = load_config(None, ["task.n_content=20"])
        m = c.model_config()
        assert m.vocab_size == 24
        assert m.flavor == AR
        assert c.model_config(NAR).flavor == NAR

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config sections"):
            RunConfig.from_dict({"optimizer": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            RunConfig.from_dict({"train": {"learning_rate": 0.1}})

    def test_scalar_section_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            RunConfig.from_dict({"train": 3})

    @pytest.mark.parametrize("section, key, value, written", [
        ("length", "B", "abc", "int"),
        ("train", "peak_lr", "fast", "float"),
        ("data", "n_pairs", 2.5, "int"),
        ("data", "n_pairs", True, "int"),
        ("length", "C", "abc", "int | None"),
        ("length", "dedup", 1, "bool"),
        ("task", "kind", None, "str"),
    ])
    def test_value_of_wrong_type_named(self, section, key, value, written):
        with pytest.raises(ValueError) as err:
            RunConfig.from_dict({section: {key: value}})
        assert str(err.value) == f"{section}.{key} must be {written}, got {value!r}"

    def test_int_passes_for_float_and_none_where_allowed(self):
        c = RunConfig.from_dict({"train": {"peak_lr": 1}, "length": {"C": None},
                                 "task": {"perm_seed": None}})
        assert (c.train.peak_lr, c.length.C, c.task.perm_seed) == (1, None, None)

    def test_section_validation_propagates(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"distill": {"mono_fraction": 2.0}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"length": {"rank_mode": "argmax"}})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"data": {"n_pairs": 0}})
        with pytest.raises(ValueError, match="divisible"):
            RunConfig.from_dict({"model": {"num_heads": 3}})


class TestOverrides:
    def test_types_parse_as_yaml(self):
        d = apply_overrides({}, ["a.x=3", "a.y=0.5", "a.z=true", "a.w=hello",
                                 "a.n=null"])
        assert d["a"] == {"x": 3, "y": 0.5, "z": True, "w": "hello", "n": None}

    def test_no_file_takes_the_defaults(self):
        assert load_config(None) == RunConfig()
        assert load_config(None, ["length.B=2"]) == RunConfig.from_dict({"length": {"B": 2}})

    def test_override_type_error_names_key(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("length:\n  B: 1\n")
        for path, where in ((p, f"config {p}"), (None, "config overrides")):
            with pytest.raises(ValueError) as err:
                load_config(path, ["length.B=abc"])
            assert str(err.value) == f"{where}: length.B must be int, got 'abc'"

    def test_override_wins_over_file_value(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("train:\n  peak_lr: 0.001\n")
        c = load_config(p, ["train.peak_lr=0.02"])
        assert c.train.peak_lr == 0.02

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides({}, ["justakey"])
        with pytest.raises(ValueError, match="empty key"):
            apply_overrides({}, ["a..b=1"])
        with pytest.raises(ValueError, match="scalar"):
            apply_overrides({"a": {"b": 3}}, ["a.b.c=1"])


class TestLoadConfig:
    def test_loads_sections(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(
            "task:\n  kind: even_duplication\n  n_content: 8\n"
            "output_dir: myrun\n"
        )
        c = load_config(p)
        assert c.task.kind == "even_duplication"
        assert c.output_dir == "myrun"
        # untouched sections keep defaults
        assert c.train.batch_tokens == 512

    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_config(p) == RunConfig()

    def test_non_mapping_root_rejected(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- a\n- b\n")
        with pytest.raises(ValueError, match="mapping"):
            load_config(p)


@pytest.mark.parametrize("name", ["desk.yaml", "paper-scale.yaml"])
def test_shipped_config_builds_models(name):
    cfg = load_config(CONFIGS / name)
    for flavor in (AR, NAR):
        m = cfg.model_config(flavor)
        assert m.flavor == flavor
        assert m.vocab_size == cfg.task.n_content + N_RESERVED
        assert m.model_dim == cfg.model.model_dim


def test_desk_config_is_the_defaults():
    # configs/desk.yaml spells out RunConfig's defaults, the one desk recipe
    assert load_config(CONFIGS / "desk.yaml") == RunConfig(output_dir="desk")


class TestRunDir:
    def test_relative_uses_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        c = load_config(None, ["output_dir=exp1"])
        assert run_dir(c) == tmp_path / "exp1"

    def test_relative_defaults_to_cwd_dot(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        c = load_config(None, ["output_dir=exp1"])
        assert str(run_dir(c)) == "exp1"

    def test_absolute_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "ignored"))
        c = load_config(None, [f"output_dir={tmp_path / 'abs'}"])
        assert run_dir(c) == tmp_path / "abs"


class TestResolvedSnapshot:
    def test_snapshot_reloads_to_same_config(self, tmp_path):
        c = load_config(None, ["train.peak_lr=0.004", "length.B=3"])
        path = write_resolved(c, tmp_path)
        assert load_config(path) == c

    def test_snapshot_bytes_stable(self, tmp_path):
        c = load_config(None, ["task.perm_seed=7"])
        a = write_resolved(c, tmp_path / "a")
        b = write_resolved(c, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_snapshot_is_sorted_yaml(self, tmp_path):
        path = write_resolved(RunConfig(), tmp_path)
        d = yaml.safe_load(path.read_text())
        assert list(d) == sorted(d)


class TestRunLock:
    def test_exclusive(self, tmp_path):
        with RunLock(tmp_path):
            with pytest.raises(RuntimeError, match="locked"):
                with RunLock(tmp_path):
                    pass

    def test_released_on_exit(self, tmp_path):
        with RunLock(tmp_path):
            assert (tmp_path / ".lock").exists()
        assert not (tmp_path / ".lock").exists()
        with RunLock(tmp_path):
            pass

    def test_released_on_error(self, tmp_path):
        with pytest.raises(KeyError):
            with RunLock(tmp_path):
                raise KeyError("boom")
        assert not (tmp_path / ".lock").exists()
