"""Checkpoint container: round-trips, byte determinism, corruption handling."""

from __future__ import annotations

import mmap
import os
import struct

import numpy as np
import pytest

from conftest import param_count, rewrite_header, toy_model_config, tracemalloc_peak
from fragreel import checkpoint
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
from fragreel.quantize import load_quantized_model
from fragreel.params import (
    EncoderConfig,
    HeadConfig,
    ModelConfig,
    ModelParams,
    TextConfig,
)


@pytest.fixture()
def params():
    return ModelParams.init(toy_model_config(), seed=7)


def random_qtensors(params, seed: int = 2) -> dict:
    rng = np.random.default_rng(seed)
    return {
        name: (rng.integers(-127, 128, size=params[name].shape).astype(np.int8),
               float(rng.uniform(0.001, 0.1)))
        for name in params.names()
    }


BAD_CONFIG_EDITS = pytest.mark.parametrize("edit", [
    lambda h: h["config"]["encoder"].update(n_experts=4),
    lambda h: h.pop("config"),
], ids=["unknown_key", "missing_config"])


# Each edit breaks one entry of the tensor index of a container holding
# "x" (4 float32 at offset 0) and "y" (4 float32 at offset 16).
BAD_INDEX_EDITS = pytest.mark.parametrize("edit, tensor, what", [
    (lambda t: t["y"].pop("offset"), "y", "has bad offset None"),
    (lambda t: t["y"].pop("dtype"), "y", "has unknown dtype None"),
    (lambda t: t["y"].pop("shape"), "y", "has bad shape None"),
    (lambda t: t["y"].update(offset=-32), "y", "has bad offset -32"),  # slices x from the end
    (lambda t: t["y"].update(offset=8.0), "y", "has bad offset 8.0"),
    (lambda t: t["y"].update(offset=True), "y", "has bad offset True"),
    (lambda t: t["y"].update(offset=18), "y", "has offset 18, not a multiple of its itemsize 4"),
    (lambda t: t["y"].update(offset=8), "y", "overlaps tensor 'x'"),
    (lambda t: t["y"].update(shape=[-1, -4]), "y", r"has bad shape \[-1, -4\]"),
    (lambda t: t["y"].update(shape=[2.0, 2]), "y", r"has bad shape \[2.0, 2\]"),
    (lambda t: t.update(y=[0]), "y", "has no index entry"),
], ids=["no_offset", "no_dtype", "no_shape", "negative_offset", "float_offset",
        "bool_offset", "misaligned_offset", "overlap", "negative_dims", "float_dims", "entry_not_object"])


class TestTensorIndex:
    def write(self, path, magic=MAGIC_FP32, extras=None, dtype=np.float32):
        arrays = {"x": np.arange(4, dtype=dtype), "y": np.arange(4, 8, dtype=dtype)}
        write_container(path, magic, {}, arrays, tensor_extras=extras)

    @BAD_INDEX_EDITS
    def test_bad_entry_is_data_error_naming_path_and_tensor(self, tmp_path, edit, tensor, what):
        path = tmp_path / "c.bin"
        self.write(path)
        rewrite_header(path, lambda h: edit(h["tensors"]))
        with pytest.raises(DataError, match=f"c.bin: tensor '{tensor}' {what}"):
            read_container(path, MAGIC_FP32)

    def test_adjacent_tensors_are_not_an_overlap(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, {"a": np.zeros(0, dtype=np.float32),
                                               "b": np.ones(2, dtype=np.float32)})
        _, arrays = read_container(path, MAGIC_FP32)
        assert arrays["a"].shape == (0,)
        np.testing.assert_array_equal(arrays["b"], [1.0, 1.0])

    @pytest.mark.parametrize("scale", [None, "0.5", True, 0.0, -0.5, float("inf")],
                             ids=["missing", "string", "bool", "zero", "negative", "infinite"])
    def test_quantized_entry_needs_a_positive_scale(self, tmp_path, scale):
        path = tmp_path / "q.bin"
        extras = {"x": {"scale": 0.5}, "y": {"scale": 0.25}}
        self.write(path, MAGIC_QUANT, extras, dtype=np.int8)
        if scale is None:
            rewrite_header(path, lambda h: h["tensors"]["y"].pop("scale"))
        else:
            rewrite_header(path, lambda h: h["tensors"]["y"].update(scale=scale))
        with pytest.raises(DataError, match="q.bin: tensor 'y' has bad scale"):
            read_container(path, MAGIC_QUANT)

    def test_non_object_index_is_malformed(self, tmp_path):
        path = tmp_path / "c.bin"
        self.write(path)
        rewrite_header(path, lambda h: h.update(tensors=[1, 2]))
        with pytest.raises(MalformedJson, match="no tensor index"):
            read_container(path, MAGIC_FP32)


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
        # version 1 still held the prompting q/k tensors; version 2 did not
        # align its payload, so its tensors cannot be mapped in place; a
        # version 3 header still carries the head's kind and width
        for version in (99, 3, 2, 1):
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

    def test_payload_and_tensors_are_aligned(self, tmp_path):
        arrays = {"a": np.ones(3, dtype=np.int8), "b": np.ones(2, dtype=np.float64),
                  "c": np.ones(1, dtype=np.int8), "d": np.ones(2, dtype=np.float32)}
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, arrays)
        header, back = read_container(path, MAGIC_FP32)
        offsets = {name: entry["offset"] for name, entry in header["tensors"].items()}
        assert offsets == {"a": 0, "b": 8, "c": 24, "d": 28}  # itemsize gaps only
        assert payload_bytes(path, MAGIC_FP32) == 36
        assert (path.stat().st_size - 36) % 64 == 0  # the payload's start
        for name, arr in back.items():
            assert arr.flags.aligned
            np.testing.assert_array_equal(arr, arrays[name])

    @pytest.mark.parametrize("blob", [b"", b"XCK"], ids=["empty", "cut_in_magic"])
    def test_file_without_the_magic_rejected_naming_it(self, tmp_path, blob):
        path = tmp_path / "c.bin"
        path.write_bytes(blob)
        with pytest.raises(DataError, match="c.bin: not a XCKP1 checkpoint"):
            read_container(path, MAGIC_FP32)

    def test_file_cut_inside_its_header_rejected_naming_it(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {"note": "x" * 100}, {"x": np.zeros(2, dtype=np.float32)})
        blob = path.read_bytes()
        header_end = len(blob) - 8  # the padded header, without the payload
        for cut in (12, 13, 40, header_end - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match="c.bin: file ends inside its header"):
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
        """The file gives back the stored int8 tensors and scales as saved;
        ``quantize.load_quantized_model`` dequantizes them."""
        qtensors = random_qtensors(params)
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, qtensors, {"site:in": 0.5},
                       epoch=9, val_accuracy=0.5)
        config, stored, scales, header = load_quantized(path)
        assert config == params.config
        assert scales == {"site:in": 0.5}
        assert header["epoch"] == 9
        assert set(stored) == set(qtensors)
        for name, (q, scale) in qtensors.items():
            assert stored[name][0].dtype == np.int8
            np.testing.assert_array_equal(stored[name][0], q)
            assert stored[name][1] == scale
        loaded, qctx = load_quantized_model(path)
        assert qctx.scales == {"site:in": 0.5}
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
        save_quantized(path, params.config, qtensors, {}, 0, None)
        rewrite_header(path, edit)
        with pytest.raises(DataError, match="m.xckq"):
            load_quantized(path)

    def test_quantized_payload_is_one_byte_per_weight(self, tmp_path, params):
        qtensors = {
            name: (np.zeros(params[name].shape, dtype=np.int8), 1.0)
            for name in params.names()
        }
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, qtensors, {}, 0, None)
        assert payload_bytes(path, MAGIC_QUANT) == param_count(params.config)


class TestActivationScales:
    @pytest.mark.parametrize("scale", ["abc", None, 0, -1.0, float("nan")],
                             ids=["string", "null", "zero", "negative", "nan"])
    def test_bad_activation_scale_is_data_error_naming_the_site(self, tmp_path, params, scale):
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, random_qtensors(params), {"site:in": 0.5}, 0, None)
        rewrite_header(path, lambda h: h["activation_scales"].update({"site:in": scale}))
        with pytest.raises(DataError, match="m.xckq: activation site 'site:in' has bad scale"):
            load_quantized(path)

    def test_activation_scales_must_be_an_object(self, tmp_path, params):
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, random_qtensors(params), {"site:in": 0.5}, 0, None)
        rewrite_header(path, lambda h: h.update(activation_scales=[0.5]))
        with pytest.raises(DataError, match="m.xckq: activation_scales is not an object"):
            load_quantized(path)


class TestOlderHeaderKeys:
    """Files that still carry the dropped ``text_version`` header key and the
    per-tensor ``zero_point`` index key load as if those keys were absent."""

    def test_fp32_text_version_ignored(self, tmp_path, params):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=1, val_accuracy=0.5)
        plain, _ = load_checkpoint(path)
        rewrite_header(path, lambda h: h.update(text_version=3))
        older, header = load_checkpoint(path)
        assert header["text_version"] == 3
        for name in params.names():
            assert older[name].data.tobytes() == plain[name].data.tobytes()

    def test_quantized_text_version_and_zero_point_ignored(self, tmp_path, params):
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, random_qtensors(params), {"site:in": 0.5}, 0, None)
        _, plain, plain_scales, _ = load_quantized(path)

        def edit(header):
            header["text_version"] = 1
            for entry in header["tensors"].values():
                entry["zero_point"] = 0

        rewrite_header(path, edit)
        _, older, older_scales, _ = load_quantized(path)
        assert older_scales == plain_scales
        for name in params.names():
            assert older[name][0].tobytes() == plain[name][0].tobytes()
            assert older[name][1] == plain[name][1]


class TestMappedLoad:
    """Loads are read-only views over the mapped file; saves replace the file."""

    def test_loaded_parameters_are_read_only(self, tmp_path, params):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=0, val_accuracy=None)
        loaded, _ = load_checkpoint(path)
        for name in loaded.names():
            assert not loaded[name].data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            loaded[loaded.names()[0]].data[...] = 0.0
        _, qtensors, _, _ = load_quantized(self.quantized(tmp_path, params))
        assert not any(q.flags.writeable for q, _ in qtensors.values())

    def quantized(self, tmp_path, params, seed=2):
        path = tmp_path / "m.xckq"
        save_quantized(path, params.config, random_qtensors(params, seed), {"site:in": 0.5}, 0, None)
        return path

    def test_saving_over_a_loaded_file_leaves_its_tensors_alone(self, tmp_path, params):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=0, val_accuracy=None)
        loaded, _ = load_checkpoint(path)
        other = ModelParams.init(params.config, seed=8)
        save_checkpoint(path, other, epoch=1, val_accuracy=None)
        for name in params.names():
            assert loaded[name].data.tobytes() == params[name].data.tobytes()
        assert load_checkpoint(path)[1]["epoch"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.xckp"]

    def test_saving_over_a_loaded_quantized_file_leaves_its_tensors_alone(self, tmp_path, params):
        path = self.quantized(tmp_path, params)
        _, stored, _, _ = load_quantized(path)
        self.quantized(tmp_path, params, seed=3)
        for name, (q, scale) in random_qtensors(params).items():
            assert stored[name][0].tobytes() == q.tobytes()
            assert stored[name][1] == scale
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.xckq"]

    @pytest.mark.parametrize("interleave", [False, True], ids=["contiguous", "interleaved"])
    def test_each_group_reads_the_bytes_its_index_names(self, tmp_path, interleave):
        """Each group is mapped on its own from a granularity boundary: a
        group that starts off a boundary, or whose tensors interleave with
        another group's, still reads the bytes at its tensors' offsets."""
        rng = np.random.default_rng(0)
        arrays = {
            # puts group b past the first boundary of the payload, off the next
            "a.0": rng.normal(size=mmap.ALLOCATIONGRANULARITY // 4 + 3).astype(np.float32),
            "a.1": rng.normal(size=5).astype(np.float32),
            "b.0": rng.normal(size=5).astype(np.float32),
            "b.1": rng.normal(size=7).astype(np.float64),
        }
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_FP32, {}, arrays)
        if interleave:  # a.1 and b.0 trade places: b.0 then lies inside group a
            def swap(header):
                index = header["tensors"]
                index["a.1"]["offset"], index["b.0"]["offset"] = \
                    index["b.0"]["offset"], index["a.1"]["offset"]
            rewrite_header(path, swap)
        header, back = read_container(path, MAGIC_FP32)
        blob = path.read_bytes()
        start = len(blob) - payload_bytes(path, MAGIC_FP32)
        offsets = {name: start + entry["offset"] for name, entry in header["tensors"].items()}
        assert min(offsets["b.0"], offsets["b.1"]) % mmap.ALLOCATIONGRANULARITY
        for name, arr in back.items():
            assert arr.tobytes() == blob[offsets[name]: offsets[name] + arr.nbytes], name
        swapped = {"a.1": "b.0", "b.0": "a.1"} if interleave else {}
        for name in arrays:
            np.testing.assert_array_equal(back[name], arrays[swapped.get(name, name)])

    def test_failed_save_keeps_the_old_file_and_no_temporary(self, tmp_path, params, monkeypatch):
        path = tmp_path / "m.xckp"
        save_checkpoint(path, params, epoch=0, val_accuracy=None)
        before = path.read_bytes()

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, params, epoch=1, val_accuracy=None)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.xckp"]


SMALL_CONFIG = ModelConfig(  # perfbench's ``small`` config
    encoder=EncoderConfig(t_frames=8, side=224, d_model=256, n_heads=4,
                          n_cct_layers=4, d_ffn=1024),
    text=TextConfig(d_text=256, n_heads=4, n_layers=4, d_ffn=1024, prompt_heads=4),
    head=HeadConfig(),
)


def test_load_peak_memory_is_under_the_file(tmp_path):
    """Tensors are views over the mapped file: loading copies none of them."""
    path = tmp_path / "m.xckp"
    save_checkpoint(path, ModelParams.init(SMALL_CONFIG, seed=0), epoch=0, val_accuracy=None)
    size = path.stat().st_size
    (loaded, _), peak = tracemalloc_peak(lambda: load_checkpoint(path))
    assert sum(loaded[name].data.nbytes for name in loaded.names()) > 0.99 * size
    assert peak < 1.1 * size


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_peak_memory_is_one_tensor_and_the_header(tmp_path, dtype):
    """A save converts and writes one tensor at a time: it never holds a
    second copy of the model, float32 or converted from float64. The slack
    of 256 KiB covers the header's Python objects (index dicts, JSON text)
    and the file buffer."""
    params = ModelParams.init(SMALL_CONFIG, seed=0, dtype=dtype)
    largest = 4 * max(t.data.size for t in params.tensors.values())  # as float32
    path = tmp_path / "m.xckp"
    _, peak = tracemalloc_peak(lambda: save_checkpoint(path, params, epoch=0, val_accuracy=None))
    size = path.stat().st_size
    header = size - payload_bytes(path, MAGIC_FP32)
    assert size > 30 * largest  # a whole-model copy would not fit under the bound
    assert peak <= largest + header + 256 * 1024
    # the bytes of converting the whole model first
    whole = tmp_path / "whole.xckp"
    checkpoint.write_container(
        whole, MAGIC_FP32, {"config": SMALL_CONFIG.to_dict(), "epoch": 0, "val_accuracy": None},
        {name: t.data.astype(np.float32) for name, t in params.tensors.items()},
    )
    assert path.read_bytes() == whole.read_bytes()


def test_failed_write_removes_the_temporary(tmp_path):
    """An error in the middle of the payload leaves neither the target nor
    the temporary file."""
    def chunks():
        yield b"head"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        checkpoint._replace_file(tmp_path / "m.xckp", chunks())
    assert list(tmp_path.iterdir()) == []
