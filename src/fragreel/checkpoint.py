"""Checkpoint containers.

Both formats share one layout: magic bytes, a u32 little-endian format
version, a u32 little-endian JSON header length, the JSON header, then the
raw tensor payload. The header carries the model config, training metadata
(epoch, validation accuracy, text version stamp) and a tensor index mapping
each name to dtype, shape, and byte offset into the payload. Tensors are
serialized little-endian in sorted-name order, so a rerun with identical
state produces byte-identical files.

"XCKP1" stores float32 tensors. "XCKQ1" stores every tensor as int8 with a
per-tensor symmetric scale in the index entry, plus calibrated activation
scales under a dedicated header key.

Format version 2 dropped the query and key tensors of the prompting blocks,
which could not affect any output; version-1 files are rejected.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError, MalformedJson, ShapeMismatch
from .params import ModelConfig, ModelParams, param_specs

MAGIC_FP32 = b"XCKP1"
MAGIC_QUANT = b"XCKQ1"
FORMAT_VERSION = 2

_DTYPE_TO_CODE = {
    np.dtype(np.float32): "f32",
    np.dtype(np.float64): "f64",
    np.dtype(np.int8): "i8",
}
_CODE_TO_DTYPE = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "i8": np.dtype(np.int8),
}


def _header_bytes(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray],
                    tensor_extras: dict[str, dict] | None = None) -> None:
    """Serialize arrays under the shared container layout."""
    index: dict[str, dict] = {}
    offset = 0
    ordered = sorted(arrays)
    payload_parts = []
    for name in ordered:
        # np.ascontiguousarray would do, except it promotes 0-d arrays to
        # 1-d and would corrupt scalar shapes; tobytes() is C-order anyway.
        arr = np.asarray(arrays[name])
        code = _DTYPE_TO_CODE.get(arr.dtype)
        if code is None:
            raise DataError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        le = arr.astype(_CODE_TO_DTYPE[code], copy=False)
        raw = le.tobytes()
        entry = {"dtype": code, "shape": list(arr.shape), "offset": offset}
        if tensor_extras and name in tensor_extras:
            entry.update(tensor_extras[name])
        index[name] = entry
        payload_parts.append(raw)
        offset += len(raw)
    full_header = dict(header)
    full_header["tensors"] = index
    blob = _header_bytes(full_header)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for raw in payload_parts:
            fh.write(raw)


def read_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(magic) + 8 or data[: len(magic)] != magic:
        raise DataError(f"{path}: not a {magic.decode('ascii')} checkpoint")
    pos = len(magic)
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    (hlen,) = struct.unpack_from("<I", data, pos)
    pos += 4
    try:
        header = json.loads(data[pos : pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedJson(f"{path}: bad checkpoint header: {exc}") from exc
    pos += hlen
    payload = data[pos:]
    arrays: dict[str, np.ndarray] = {}
    for name, entry in header.get("tensors", {}).items():
        dtype = _CODE_TO_DTYPE.get(entry["dtype"])
        if dtype is None:
            raise DataError(f"{path}: tensor {name!r} has unknown dtype {entry['dtype']!r}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + count * dtype.itemsize
        if end > len(payload):
            raise DataError(f"{path}: tensor {name!r} overruns payload")
        arrays[name] = np.frombuffer(payload[start:end], dtype=dtype).reshape(shape).copy()
    return header, arrays


def _check_against_config(config: ModelConfig, arrays: dict[str, np.ndarray], path) -> None:
    expected = {spec.name: spec.shape for spec in param_specs(config)}
    if set(expected) != set(arrays):
        missing = sorted(set(expected) - set(arrays))[:3]
        extra = sorted(set(arrays) - set(expected))[:3]
        raise DataError(f"{path}: tensor names do not match config (missing {missing}, extra {extra})")
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise ShapeMismatch(f"{path}: tensor {name!r} shape {arr.shape} != {expected[name]}")


def _header_config(header: dict, path) -> ModelConfig:
    try:
        return ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad model config in header: {exc!r}") from exc


def save_checkpoint(path, params: ModelParams, epoch: int, val_accuracy: float | None) -> None:
    header = {
        "config": params.config.to_dict(),
        "epoch": epoch,
        "val_accuracy": val_accuracy,
        "text_version": params.text_version,
    }
    arrays = {name: t.data.astype(np.float32, copy=False) for name, t in params.tensors.items()}
    write_container(path, MAGIC_FP32, header, arrays)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    header, arrays = read_container(path, MAGIC_FP32)
    config = _header_config(header, path)
    _check_against_config(config, arrays, path)
    tensors = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    params = ModelParams(config, tensors, text_version=int(header.get("text_version", 0)))
    return params, header


def save_quantized(
    path,
    config: ModelConfig,
    qtensors: dict[str, tuple[np.ndarray, float]],
    activation_scales: dict[str, float],
    epoch: int,
    val_accuracy: float | None,
    text_version: int,
) -> None:
    header = {
        "config": config.to_dict(),
        "epoch": epoch,
        "val_accuracy": val_accuracy,
        "text_version": text_version,
        "activation_scales": dict(sorted(activation_scales.items())),
    }
    arrays = {name: q for name, (q, _scale) in qtensors.items()}
    extras = {name: {"scale": scale, "zero_point": 0} for name, (_q, scale) in qtensors.items()}
    write_container(path, MAGIC_QUANT, header, arrays, tensor_extras=extras)


def load_quantized(path) -> tuple[ModelParams, dict[str, float], dict]:
    """Load a quantized checkpoint as dequantized float32 inference params."""
    header, arrays = read_container(path, MAGIC_QUANT)
    config = _header_config(header, path)
    _check_against_config(config, arrays, path)
    tensors: dict[str, Tensor] = {}
    for name, arr in arrays.items():
        entry = header["tensors"][name]
        scale = float(entry["scale"])
        tensors[name] = Tensor((arr.astype(np.float32) * np.float32(scale)), requires_grad=False)
    params = ModelParams(config, tensors, text_version=int(header.get("text_version", 0)))
    scales = {site: float(s) for site, s in header.get("activation_scales", {}).items()}
    return params, scales, header


def payload_bytes(path, magic: bytes) -> int:
    """Size of the raw tensor payload, excluding magic/version/header."""
    with open(path, "rb") as fh:
        head = fh.read(len(magic) + 8)
    if head[: len(magic)] != magic:
        raise DataError(f"{path}: not a {magic.decode('ascii')} checkpoint")
    (hlen,) = struct.unpack_from("<I", head, len(magic) + 4)
    return os.path.getsize(path) - (len(magic) + 8 + hlen)
