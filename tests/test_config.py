"""Run configuration: JSON loading, validation, overrides, description."""

import json

import pytest

from fragreel.config import (
    QuantizerSettings,
    RunConfig,
    SamplerSettings,
    describe,
    load_run_config,
)
from fragreel.errors import ConfigError
from fragreel.frames import PreprocessConfig
from fragreel.params import EncoderConfig
from fragreel.training import TrainConfig

TOY_SECTIONS = {
    "preprocess": {"t_frames": 2, "side": 4},
    "encoder": {
        "t_frames": 2,
        "side": 4,
        "patch": 2,
        "d_model": 8,
        "n_heads": 2,
        "n_cct_layers": 1,
        "n_mit_layers": 1,
        "d_ffn": 16,
    },
}


def write_config(tmp_path, payload: dict):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestRunConfig:
    def test_defaults_are_consistent(self):
        run = RunConfig()
        assert run.seed == 0
        assert run.preprocess.t_frames == run.encoder.t_frames
        assert run.preprocess.side == run.encoder.side
        assert run.model_config.encoder is run.encoder

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(jobs=0)

    def test_frame_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(preprocess=PreprocessConfig(t_frames=8))

    def test_side_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(preprocess=PreprocessConfig(side=112))

    def test_unknown_freeze_group_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(train=TrainConfig(freeze=frozenset({"walrus"})))

    def test_known_freeze_groups_accepted(self):
        run = RunConfig(train=TrainConfig(freeze=frozenset({"text_encoder", "head"})))
        assert run.train.freeze == {"text_encoder", "head"}


class TestLoadRunConfig:
    def test_no_file_gives_defaults(self):
        assert load_run_config() == RunConfig()

    def test_sections_merge_from_file(self, tmp_path):
        payload = {"seed": 5, "train": {"epochs": 3}, **TOY_SECTIONS}
        run = load_run_config(write_config(tmp_path, payload))
        assert run.seed == 5
        assert run.train.epochs == 3
        assert run.encoder == EncoderConfig(**TOY_SECTIONS["encoder"])
        assert run.preprocess.side == 4

    def test_train_seed_inherits_root_seed(self, tmp_path):
        run = load_run_config(write_config(tmp_path, {"seed": 5, "train": {"epochs": 2}}))
        assert run.train.seed == 5

    def test_explicit_train_seed_wins(self, tmp_path):
        payload = {"seed": 5, "train": {"epochs": 2, "seed": 9}}
        run = load_run_config(write_config(tmp_path, payload))
        assert run.train.seed == 9

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="walrus"):
            load_run_config(write_config(tmp_path, {"walrus": 1}))

    def test_unknown_section_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="encoder"):
            load_run_config(write_config(tmp_path, {"encoder": {"bogus": 1}}))
        # jobs is the one parallelism setting; train.workers is gone
        with pytest.raises(ConfigError, match="workers"):
            load_run_config(write_config(tmp_path, {"train": {"workers": 2}}))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(str(tmp_path / "absent.json"))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_overrides_beat_file_values(self, tmp_path):
        path = write_config(tmp_path, {"seed": 5})
        run = load_run_config(path, overrides={"seed": 9, "data_root": None})
        assert run.seed == 9
        assert run.data_root == "."

    def test_negative_or_non_integer_seed_rejected(self, tmp_path):
        for bad in (-1, True, "7"):
            with pytest.raises(ConfigError, match="seed"):
                load_run_config(write_config(tmp_path, {"seed": bad}))

    def test_freeze_list_becomes_frozenset(self, tmp_path):
        payload = {"train": {"freeze": ["text_encoder"]}}
        run = load_run_config(write_config(tmp_path, payload))
        assert run.train.freeze == frozenset({"text_encoder"})

    def test_non_iterable_freeze_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="config.train"):
            load_run_config(write_config(tmp_path, {"train": {"freeze": 5}}))

    def test_non_object_train_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="config.train: expected an object"):
            load_run_config(write_config(tmp_path, {"train": [1]}))

    def test_sampler_and_quantizer_sections(self, tmp_path):
        payload = {"sampler": {"max_retries": 5}, "quantizer": {"calib_count": 3}}
        run = load_run_config(write_config(tmp_path, payload))
        assert run.sampler == SamplerSettings(max_retries=5)
        assert run.quantizer == QuantizerSettings(calib_count=3)

    def test_zero_calibration_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write_config(tmp_path, {"quantizer": {"calib_count": 0}}))

    def test_inconsistent_sections_rejected(self, tmp_path):
        # encoder shrinks but preprocess still carries the default geometry
        payload = {"encoder": TOY_SECTIONS["encoder"]}
        with pytest.raises(ConfigError):
            load_run_config(write_config(tmp_path, payload))

    def test_list_valued_fields_become_tuples(self, tmp_path):
        payload = {
            "preprocess": {"mean": [0.1, 0.2, 0.3], "std": [1.0, 1.0, 1.0]},
        }
        run = load_run_config(write_config(tmp_path, payload))
        assert run.preprocess.mean == (0.1, 0.2, 0.3)
        assert run.preprocess.std == (1.0, 1.0, 1.0)


class TestDescribe:
    def test_description_is_sorted_json(self):
        text = describe(RunConfig())
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload["seed"] == 0

    def test_description_is_deterministic(self):
        assert describe(RunConfig()) == describe(RunConfig())

    def test_freeze_serialized_as_sorted_list(self):
        run = RunConfig(train=TrainConfig(freeze=frozenset({"text_encoder", "head"})))
        payload = json.loads(describe(run))
        assert payload["train"]["freeze"] == ["head", "text_encoder"]

    def test_reflects_overridden_values(self):
        run = RunConfig(seed=11, jobs=4)
        payload = json.loads(describe(run))
        assert payload["jobs"] == 4
        assert payload["seed"] == 11
