"""Run configuration: JSON loading, validation, overrides, description."""

import json

import pytest

from fragreel.cli import main
from fragreel.config import (
    QuantizerSettings,
    RunConfig,
    SamplerSettings,
    describe,
    load_run_config,
)
from fragreel.errors import ConfigError
from fragreel.params import EncoderConfig, TextConfig
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
        # the encoder is the one owner of the clip shape
        assert not hasattr(run, "preprocess")
        assert run.model_config.encoder is run.encoder

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(jobs=0)

    def test_frame_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^config.preprocess.t_frames 8 != encoder.t_frames 32"):
            load_run_config(write_config(tmp_path, {"preprocess": {"t_frames": 8}}))

    def test_side_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^config.preprocess.side 112 != encoder.side 224"):
            load_run_config(write_config(tmp_path, {"preprocess": {"side": 112}}))

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
        # the preprocess section agreed with the encoder and is not kept
        assert "preprocess" not in json.loads(describe(run))

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

    @pytest.mark.parametrize("payload", [
        {"jobs": 2.5},
        {"jobs": True},
        {"data_root": 5},
        {"catalogue": 7},
        {"decoder": ["dec", "{input}", "{start}", "{dur}"]},
        {"cutter": 3},
    ], ids=["fractional_jobs", "bool_jobs", "numeric_data_root",
            "numeric_catalogue", "list_decoder", "numeric_cutter"])
    def test_mistyped_scalar_rejected(self, tmp_path, payload):
        (key,) = payload
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            load_run_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("section, key, value", [
        ("train", "epochs", 2.5),
        ("train", "batch_size", 1.5),
        ("encoder", "n_cct_layers", 1.5),
        ("head", "logit_scale_init", "x"),
        ("quantizer", "calib_count", 1.5),
        ("train", "freeze", "text_encoder"),
        ("sampler", "buffer_secs", True),
    ], ids=["fractional_epochs", "fractional_batch_size", "fractional_layer_count",
            "string_logit_scale", "fractional_calib_count", "string_freeze", "bool_buffer_secs"])
    def test_mistyped_section_value_rejected(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=f"^config.{section}.{key} must be"):
            load_run_config(write_config(tmp_path, {section: {key: value}}))

    @pytest.mark.parametrize("section, key, value", [
        ("preprocess", "mean", [123.675, 116.28, 103.55]),
        ("preprocess", "std", [58.395, 57.12, 57.375]),
        ("head", "kind", "similarity"),
        ("head", "width", 8),
    ], ids=["mean", "std", "head_kind", "head_width"])
    def test_removed_field_is_an_unknown_key(self, tmp_path, capsys, section, key, value):
        """The pixel statistics are fixed and the cosine head is the only
        head: their old fields are unknown keys, exit 2, even at the old
        default values."""
        path = write_config(tmp_path, {section: {key: value}})
        assert main(["print-prompts", "--config", str(path)]) == 2
        assert f"config.{section}: unknown keys ['{key}']" in capsys.readouterr().err

    def test_values_of_the_declared_types_accepted(self, tmp_path):
        payload = {"head": {"logit_scale_init": 50}, "sampler": {"target_count": None},
                   "catalogue": None}
        run = load_run_config(write_config(tmp_path, payload))
        assert run.head.logit_scale_init == 50
        assert run.sampler.target_count is None
        assert run.catalogue is None

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

    @pytest.mark.parametrize("sampler", [
        {"max_retries": 0},
        {"buffer_secs": -1},
        {"max_retries": "3"},
        {"target_count": -3},
    ], ids=["zero_retries", "negative_buffer", "string_retries", "negative_target_count"])
    def test_bad_sampler_setting_rejected(self, tmp_path, sampler):
        with pytest.raises(ConfigError, match="config.sampler"):
            load_run_config(write_config(tmp_path, {"sampler": sampler}))

    def test_zero_calibration_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write_config(tmp_path, {"quantizer": {"calib_count": 0}}))

    def test_inconsistent_sections_rejected(self, tmp_path):
        # the encoder shrinks, but preprocess still names the default side
        payload = {"encoder": TOY_SECTIONS["encoder"], "preprocess": {"t_frames": 2, "side": 224}}
        with pytest.raises(ConfigError, match=r"^config.preprocess.side 224 != encoder.side 4"):
            load_run_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("preprocess", [None, {"side": 4}], ids=["absent", "side_only"])
    def test_encoder_alone_sets_the_clip_shape(self, tmp_path, preprocess):
        """No preprocess section is needed, and one is checked only on the keys it sets."""
        payload = {"encoder": TOY_SECTIONS["encoder"]}
        if preprocess is not None:
            payload["preprocess"] = preprocess
        run = load_run_config(write_config(tmp_path, payload))
        assert (run.encoder.t_frames, run.encoder.side) == (2, 4)

    @pytest.mark.parametrize("preprocess, message", [
        ({"t_frames": 3, "side": 4}, "config.preprocess.t_frames 3 != encoder.t_frames 2"),
        ({"frames": 2}, "config.preprocess: unknown keys ['frames']"),
        ({"side": "4"}, "config.preprocess.side must be an integer, got '4'"),
        ({"t_frames": 0}, "config.preprocess: t_frames must be >= 1"),
        ([2, 4], "config.preprocess: expected an object"),
        (None, "config.preprocess: expected an object"),
    ], ids=["contradicts_encoder", "unknown_key", "string_side", "zero_t_frames",
            "not_an_object", "null"])
    def test_bad_preprocess_section_is_exit_2(self, tmp_path, capsys, preprocess, message):
        payload = {"encoder": TOY_SECTIONS["encoder"], "preprocess": preprocess}
        assert main(["print-prompts", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


class TestModelSizes:
    @pytest.mark.parametrize("section, field, value", [
        ("encoder", "n_cct_layers", -1),
        ("encoder", "n_mit_layers", -2),
        ("text", "n_layers", -3),
        ("text", "prompt_blocks", -1),
        ("encoder", "t_frames", 0),
        ("encoder", "side", 0),
        ("encoder", "patch", 0),
        ("encoder", "d_model", 0),
        ("encoder", "n_heads", -2),
        ("encoder", "d_ffn", 0),
        ("text", "d_text", -8),
        ("text", "n_heads", 0),
        ("text", "d_ffn", 0),
        ("text", "prompt_heads", 0),
    ])
    def test_negative_counts_and_non_positive_sizes_rejected(self, section, field, value):
        cls = EncoderConfig if section == "encoder" else TextConfig
        with pytest.raises(ConfigError, match=field):
            cls(**{field: value})

    def test_zero_layers_and_blocks_accepted(self):
        assert EncoderConfig(n_cct_layers=0, n_mit_layers=0).n_cct_layers == 0
        assert TextConfig(n_layers=0, prompt_blocks=0).prompt_blocks == 0

    def test_negative_layer_count_in_a_run_config_rejected(self, tmp_path):
        payload = {"text": {"n_layers": -3}}
        with pytest.raises(ConfigError, match="n_layers"):
            load_run_config(write_config(tmp_path, payload))


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
