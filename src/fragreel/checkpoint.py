"""Checkpoint containers.

Both formats share one layout: magic bytes, a u32 little-endian format
version, a u32 little-endian JSON header length, the JSON header, zero
bytes up to the next multiple of 64, then the raw tensor payload. The
header carries the model config, training metadata (epoch, validation
accuracy) and a tensor index mapping each name to dtype, shape, and byte
offset into the payload. Tensors are serialized little-endian in
sorted-name order, each at an offset that is a multiple of its dtype's
itemsize (zero bytes fill any gap), so a rerun with identical state
produces byte-identical files.

Loading maps the file read-only and returns ``np.frombuffer`` views over
the mapping, so no tensor is copied: pages are read as they are touched,
and the arrays are read-only, so nothing can write into a loaded tensor.
Each parameter group (the first segment of a tensor name: ``head``,
``prompt``, ``text``, ``video``) gets a mapping of its own, from its first
byte, moved down to a multiple of ``mmap.ALLOCATIONGRANULARITY``, to its
last. So once a caller drops a group's tensors, as ``detect`` drops the text
encoder, that group's pages leave the process.
A writer fills a temporary file beside the target and then renames it over
the target, so a process that has the old file mapped keeps its old bytes.
On load every index entry is checked (known dtype, non-negative int shape,
non-negative int offset that is a multiple of the itemsize, inside the
payload, no overlap with another tensor, and for int8 files a finite
positive scale); a failed check is a DataError naming the file and the
tensor, as is a file too short for its header. An int8 file's activation
scales get the same scale check, naming the site.

"XCKP1" stores float32 tensors. "XCKQ1" stores every tensor as int8 with a
per-tensor symmetric scale in the index entry, plus calibrated activation
scales under a dedicated header key. The int8 arithmetic is ``quantize``'s.

Format version 4 dropped the head config's ``kind`` and ``width``, with the
linear head they chose. Version 3 aligned the payload for mapping. Version
2 had dropped the query and key tensors of the prompting blocks, which
could not affect any output. Files of any older version are rejected.
Loaders ignore header and index keys they do not read, such as an old text
version stamp or per-tensor zero points.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import struct

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError, MalformedJson, ShapeMismatch
from .params import ModelConfig, ModelParams, param_specs

MAGIC_FP32 = b"XCKP1"
MAGIC_QUANT = b"XCKQ1"
FORMAT_VERSION = 4
# The payload starts on a 64-byte boundary, so each mapped tensor is aligned
# for its dtype. Tensors themselves are aligned only to their itemsize: a
# 64-byte gap after each of the many small tensors would take an int8 file
# well past a quarter of its fp32 counterpart.
PAYLOAD_ALIGN = 64

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


def _payload_start(magic: bytes, header_len: int) -> int:
    end = len(magic) + 8 + header_len
    return end + -end % PAYLOAD_ALIGN


def write_container(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray],
                    tensor_extras: dict[str, dict] | None = None, dtype=None) -> None:
    """Serialize arrays under the shared container layout, each as ``dtype``
    (by default its own).

    The index comes from shapes and dtypes alone, so each tensor is converted
    just before it is written: a save holds at most one converted tensor,
    never a second copy of the model.
    """
    index: dict[str, dict] = {}
    offset = 0
    ordered = sorted(arrays)
    for name in ordered:
        arr = np.asarray(arrays[name])
        stored = arr.dtype if dtype is None else np.dtype(dtype)
        code = _DTYPE_TO_CODE.get(stored)
        if code is None:
            raise DataError(f"tensor {name!r} has unsupported dtype {stored}")
        offset += -offset % stored.itemsize
        entry = {"dtype": code, "shape": list(arr.shape), "offset": offset}
        if tensor_extras and name in tensor_extras:
            entry.update(tensor_extras[name])
        index[name] = entry
        offset += arr.size * stored.itemsize
    full_header = dict(header)
    full_header["tensors"] = index
    blob = _header_bytes(full_header)
    head = magic + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob
    head += bytes(_payload_start(magic, len(blob)) - len(head))

    def chunks():
        yield head
        end = 0
        for name in ordered:
            entry = index[name]
            yield bytes(entry["offset"] - end)
            # C-order little-endian; a tensor that is already both is not copied
            data = np.ascontiguousarray(arrays[name], dtype=_CODE_TO_DTYPE[entry["dtype"]])
            yield data
            end = entry["offset"] + data.nbytes

    _replace_file(path, chunks())


def _replace_file(path, chunks) -> None:
    """Write ``chunks`` (bytes-like objects, consumed once) to a temporary
    file beside ``path``, then rename it over ``path``. Truncating ``path``
    in place would pull the pages from under any process that has it mapped
    (SIGBUS on the next read)."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_head(fh, path, magic: bytes) -> tuple[bytes, int, int]:
    """(JSON header bytes, payload start, file size) of an open container;
    a wrong magic, version or a file cut short of its payload is a DataError."""
    size = os.fstat(fh.fileno()).st_size
    fixed = fh.read(len(magic) + 8)
    if fixed[: len(magic)] != magic:
        raise DataError(f"{path}: not a {magic.decode('ascii')} checkpoint")
    if len(fixed) < len(magic) + 8:
        raise DataError(f"{path}: file ends inside its header")
    version, hlen = struct.unpack_from("<II", fixed, len(magic))
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    start = _payload_start(magic, hlen)
    if start > size:
        raise DataError(f"{path}: file ends inside its header")
    return fh.read(hlen), start, size


def read_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and every tensor of a container, as read-only views over
    one read-only mapping of the file per parameter group."""
    with open(path, "rb") as fh:
        blob, start, size = _read_head(fh, path, magic)
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedJson(f"{path}: bad checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("tensors", {}), dict):
            raise MalformedJson(f"{path}: checkpoint header has no tensor index")
        spans = []
        for name, entry in header.get("tensors", {}).items():
            begin, end, shape, dtype = _index_span(path, name, entry, size - start,
                                                   quantized=magic == MAGIC_QUANT)
            spans.append((begin, end, name, shape, dtype))
        spans.sort()
        for (_, prev_end, prev, *_), (begin, _, name, *_) in zip(spans, spans[1:]):
            if begin < prev_end:
                raise DataError(f"{path}: tensor {name!r} overlaps tensor {prev!r}")
        groups: dict[str, list] = {}
        for span in spans:
            groups.setdefault(span[2].split(".", 1)[0], []).append(span)
        arrays = {}
        for members in groups.values():
            arrays.update(_map_group(fh, start, members))
    return header, arrays


def _map_group(fh, start: int, spans) -> dict[str, np.ndarray]:
    """Views of one group's tensors, whose ``spans`` are sorted by offset,
    over one read-only mapping of the bytes from the first to the last."""
    first = start + spans[0][0]
    base = first - first % mmap.ALLOCATIONGRANULARITY
    length = start + max(end for _, end, *_ in spans) - base
    # a length of 0 would map the whole file
    mapped = mmap.mmap(fh.fileno(), length, access=mmap.ACCESS_READ, offset=base) \
        if length else b""
    return {
        name: np.frombuffer(mapped, dtype, math.prod(shape), start + begin - base).reshape(shape)
        for begin, _, name, shape, dtype in spans
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_scale(value) -> bool:
    """A finite, positive, non-bool number: a usable quantization scale."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value) and value > 0.0


def _index_span(path, name: str, entry, payload_len: int, quantized: bool):
    """(start, end, shape, dtype) of one tensor index entry, checked against
    the payload: any failed check is a DataError naming the tensor."""
    def bad(what: str) -> DataError:
        return DataError(f"{path}: tensor {name!r} {what}")

    if not isinstance(entry, dict):
        raise bad("has no index entry")
    code = entry.get("dtype")
    dtype = _CODE_TO_DTYPE.get(code) if isinstance(code, str) else None
    if dtype is None:
        raise bad(f"has unknown dtype {code!r}")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(_is_int(n) and n >= 0 for n in shape):
        raise bad(f"has bad shape {shape!r}")
    start = entry.get("offset")
    if not _is_int(start) or start < 0:
        raise bad(f"has bad offset {start!r}")
    if start % dtype.itemsize:
        raise bad(f"has offset {start}, not a multiple of its itemsize {dtype.itemsize}")
    if quantized:
        scale = entry.get("scale")
        if not _is_scale(scale):
            raise bad(f"has bad scale {scale!r}")
    end = start + math.prod(shape) * dtype.itemsize
    if end > payload_len:
        raise bad("overruns payload")
    return start, end, tuple(shape), dtype


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
    }
    arrays = {name: t.data for name, t in params.tensors.items()}
    write_container(path, MAGIC_FP32, header, arrays, dtype=np.float32)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    header, arrays = read_container(path, MAGIC_FP32)
    config = _header_config(header, path)
    _check_against_config(config, arrays, path)
    tensors = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return ModelParams(config, tensors), header


def save_quantized(
    path,
    config: ModelConfig,
    qtensors: dict[str, tuple[np.ndarray, float]],
    activation_scales: dict[str, float],
    epoch: int,
    val_accuracy: float | None,
) -> None:
    header = {
        "config": config.to_dict(),
        "epoch": epoch,
        "val_accuracy": val_accuracy,
        "activation_scales": dict(sorted(activation_scales.items())),
    }
    arrays = {name: q for name, (q, _scale) in qtensors.items()}
    extras = {name: {"scale": scale} for name, (_q, scale) in qtensors.items()}
    write_container(path, MAGIC_QUANT, header, arrays, tensor_extras=extras)


def load_quantized(path) -> tuple[ModelConfig, dict, dict[str, float], dict]:
    """A quantized file's config, int8 tensors with scales, activation scales, header."""
    header, arrays = read_container(path, MAGIC_QUANT)
    config = _header_config(header, path)
    _check_against_config(config, arrays, path)
    scales = header.get("activation_scales", {})
    if not isinstance(scales, dict):
        raise DataError(f"{path}: activation_scales is not an object")
    for site, scale in scales.items():
        if not _is_scale(scale):
            raise DataError(f"{path}: activation site {site!r} has bad scale {scale!r}")
    qtensors = {name: (arr, float(header["tensors"][name]["scale"])) for name, arr in arrays.items()}
    return config, qtensors, {site: float(scale) for site, scale in scales.items()}, header


def payload_bytes(path, magic: bytes) -> int:
    """Size of the raw tensor payload, excluding magic/version/header/padding."""
    with open(path, "rb") as fh:
        _, start, size = _read_head(fh, path, magic)
    return size - start
