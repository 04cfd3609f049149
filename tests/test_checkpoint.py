"""Checkpoint container: round-trips, byte determinism, corruption handling."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from conftest import toy_model_config
from fragreel.checkpoint import (
    MAGIC_FP32,
    MAGIC_QUANT,
    load_checkpoint,
    load_quantized,
    payload_bytes,
    read_container,
    save_checkpoint,
    save_quantized,
    write_container,
)
from fragreel.errors import DataError, MalformedJson, ShapeMismatch
from fragreel.params import ModelParams, param_count


@pytest.fixture()
def params():
    return ModelParams.init(toy_model_config(), seed=7)


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to the JSON header of a checkpoint, keeping its payload."""
    blob = path.read_bytes()
    hlen = struct.unpack_from("<I", blob, 9)[0]
    header = json.loads(blob[13 : 13 + hlen])
    edit(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:9] + struct.pack("<I", len(new_header)) + new_header + blob[13 + hlen:])


BAD_CONFIG_EDITS = pytest.mark.parametrize("edit", [
    lambda h: h["config"]["encoder"].update(n_experts=4),
    lambda h: h.pop("config"),
], ids=["unknown_key", "missing_config"])


class TestContainer:
    def test_round_trip_preserves_arrays(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "b": rng.normal(size=(3, 4)).astype(np.float32),
            "a": rng.normal(size=(2,)).astype(np.float64),
            "scalar": np.float32(4.5).reshape(()),
        }
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {"note": 1}, arrays)
        header, back = read_container(path, MAGIC_FP32)
        assert header["note"] == 1
        assert set(back) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(back[name], arrays[name])
            assert back[name].dtype == arrays[name].dtype

    def test_payload_is_sorted_by_name(self, tmp_path):
        arrays = {
            "z": np.full(2, 1.0, dtype=np.float32),
            "a": np.full(2, 2.0, dtype=np.float32),
        }
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, arrays)
        header, _ = read_container(path, MAGIC_FP32)
        assert header["tensors"]["a"]["offset"] == 0
        assert header["tensors"]["z"]["offset"] == 8

    def test_write_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {f"t{i}": rng.normal(size=(4,)).astype(np.float32) for i in range(5)}
        p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
        write_container(p1, MAGIC_FP32, {"epoch": 3}, arrays)
        write_container(p2, MAGIC_FP32, {"epoch": 3}, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_container(tmp_path / "c.bin", MAGIC_FP32, {}, {"x": np.zeros(2, dtype=np.int64)})

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, {"x": np.zeros(2, dtype=np.float32)})
        with pytest.raises(DataError):
            read_container(path, MAGIC_QUANT)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        for version in (99, 1):  # version 1 still held the prompting q/k tensors
            blob[5:9] = struct.pack("<I", version)
            path.write_bytes(bytes(blob))
            with pytest.raises(DataError, match=f"version {version}$"):
                read_container(path, MAGIC_FP32)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[9] = ord("!")  # first header byte
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedJson):
            read_container(path, MAGIC_FP32)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, {"x": np.arange(8, dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError):
            read_container(path, MAGIC_FP32)


class TestModelCheckpoints:
    def test_round_trip_restores_model(self, tmp_path, params):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=4, val_accuracy=0.75)
        loaded, header = load_checkpoint(path)
        assert header["epoch"] == 4
        assert header["val_accuracy"] == 0.75
        assert loaded.config == params.config
        for name in params.names():
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
            assert loaded[name].requires_grad

    def test_text_version_round_trips(self, tmp_path, params):
        params.bump_text_version()
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=0, val_accuracy=None)
        loaded, _ = load_checkpoint(path)
        assert loaded.text_version == 1

    def test_mismatched_config_rejected(self, tmp_path, params):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=0, val_accuracy=None)
        # tamper: claim a deeper config than the tensors provide
        rewrite_header(path, lambda h: h["config"]["encoder"].update(n_cct_layers=2))
        with pytest.raises((DataError, ShapeMismatch), match="do not match config"):
            load_checkpoint(path)

    @BAD_CONFIG_EDITS
    def test_bad_config_is_data_error(self, tmp_path, params, edit):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=0, val_accuracy=None)
        rewrite_header(path, edit)
        with pytest.raises(DataError, match="m.xckp"):
            load_checkpoint(path)

    def test_fp32_payload_size(self, tmp_path, params):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=0, val_accuracy=None)
        assert payload_bytes(path, MAGIC_FP32) == 4 * param_count(params.config)


class TestQuantizedCheckpoints:
    def test_round_trip_dequantizes(self, tmp_path, params):
        qtensors = {}
        rng = np.random.default_rng(2)
        for name in params.names():
            shape = params[name].shape
            qtensors[name] = (
                rng.integers(-127, 128, size=shape).astype(np.int8),
                float(rng.uniform(0.001, 0.1)),
            )
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, qtensors, {"site:in": 0.5},
                       epoch=9, val_accuracy=0.5, text_version=3)
        loaded, scales, header = load_quantized(path)
        assert scales == {"site:in": 0.5}
        assert loaded.text_version == 3
        assert header["epoch"] == 9
        for name, (q, scale) in qtensors.items():
            assert loaded[name].dtype == np.float32
            assert not loaded[name].requires_grad
            np.testing.assert_allclose(
                loaded[name].data, q.astype(np.float32) * np.float32(scale), atol=0
            )

    @BAD_CONFIG_EDITS
    def test_bad_config_is_data_error(self, tmp_path, params, edit):
        qtensors = {
            name: (np.zeros(params[name].shape, dtype=np.int8), 1.0)
            for name in params.names()
        }
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, qtensors, {}, 0, None, 0)
        rewrite_header(path, edit)
        with pytest.raises(DataError, match="m.xckq"):
            load_quantized(path)

    def test_quantized_payload_is_one_byte_per_weight(self, tmp_path, params):
        qtensors = {
            name: (np.zeros(params[name].shape, dtype=np.int8), 1.0)
            for name in params.names()
        }
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, qtensors, {}, 0, None, 0)
        assert payload_bytes(path, MAGIC_QUANT) == param_count(params.config)
