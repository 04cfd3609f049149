"""Post-training INT8 quantization, simulated in float.

The one int8 rule (Jacob et al. 2018): a symmetric per-tensor scale
(max|x|/127, or 1 for an all-zero range), round half to even, clamp to ±127,
and level × scale in float32 to dequantize. Weights are stored as int8 with
their scales; ``load_model`` dequantizes them at load. Activations entering
matmuls are calibrated by recording max|x| per site on forward passes, then
fake-quantized at the same sites during simulated quantized inference.
Everything between matmuls (layernorm, softmax, residual adds) stays float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .checkpoint import MAGIC_FP32, MAGIC_QUANT, load_checkpoint, load_quantized, save_quantized
from .errors import DataError, NonFiniteInput
from .params import ModelParams
from .textmodel import classification_logits
from .videomodel import encode_video

QMAX = 127


@dataclass(frozen=True)
class QuantParams:
    scale: float


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def _scale_for(max_abs: float) -> float:
    """The scale that maps ``max_abs`` to QMAX; 1 for an all-zero range."""
    return max_abs / QMAX if max_abs > 0.0 else 1.0


def _levels(x: np.ndarray, scale: float) -> np.ndarray:
    """``x`` in units of ``scale``, rounded half to even, clamped to ±QMAX."""
    return np.clip(np.rint(x / scale), -QMAX, QMAX)


def quantize_tensor(x: np.ndarray) -> tuple[np.ndarray, QuantParams]:
    """Per-tensor symmetric int8 quantization."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("cannot quantize non-finite tensor")
    scale = _scale_for(_max_abs(x))
    return _levels(x, scale).astype(np.int8), QuantParams(scale=scale)


def dequantize(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    return np.asarray(q, dtype=np.float32) * np.float32(qp.scale)


def fake_quant(x: np.ndarray, scale: float) -> np.ndarray:
    """Quantize then dequantize, preserving the input dtype."""
    # named: numpy's in-place reuse of the levels raised int8 `detect` peak RSS
    q = _levels(x, scale)
    return (q * scale).astype(x.dtype, copy=False)


class ActRecorder:
    """Calibration context: accumulates max|x| per activation site.

    Mutates its accumulators, so calibration needs exclusive access. Asks
    the encoders for every row, so the maxima do not depend on which rows
    their outputs read.
    """

    needs_all_rows = True

    def __init__(self):
        self.max_abs: dict[str, float] = {}

    def process(self, site: str, data: np.ndarray) -> np.ndarray:
        seen = _max_abs(data)
        prev = self.max_abs.get(site, 0.0)
        if seen > prev:
            self.max_abs[site] = seen
        elif site not in self.max_abs:
            self.max_abs[site] = 0.0
        return data

    def scales(self) -> dict[str, float]:
        return {site: _scale_for(m) for site, m in sorted(self.max_abs.items())}


class ActQuant:
    """Inference context: fake-quantizes activations with calibrated scales."""

    def __init__(self, scales: dict[str, float]):
        self.scales = dict(scales)

    def process(self, site: str, data: np.ndarray) -> np.ndarray:
        scale = self.scales.get(site)
        if scale is None:
            raise DataError(f"activation site {site!r} was never calibrated")
        return fake_quant(data, scale)


def calibrate_activations(params: ModelParams, calib_clips, prompt_sets) -> dict[str, float]:
    """Record activation ranges over graph-free classification forward passes.

    Each clip is encoded once and its embedding runs through every prompt
    set, where ``detection.classify_second`` would encode it once per set.
    One calibration clip is enough in practice; several clips accumulate a
    running max per site. Every prompt set that inference will use must be
    listed so the text-side sites get calibrated too.
    """
    if not calib_clips:
        raise DataError("calibration set is empty")
    recorder = ActRecorder()
    with no_grad():
        for clip in calib_clips:
            v = encode_video(clip, params, qctx=recorder)
            for prompt_set in prompt_sets:
                classification_logits(v, prompt_set, params, cache=None, qctx=recorder)
    return recorder.scales()


def quantize_model(checkpoint_in, checkpoint_out, calib_clips, prompt_sets) -> dict:
    """FP32 checkpoint -> quantized checkpoint with calibrated activations."""
    params, header = load_checkpoint(checkpoint_in)
    return quantize_params(params, header, checkpoint_out, calib_clips, prompt_sets)


def quantize_params(params: ModelParams, header: dict, checkpoint_out, calib_clips,
                    prompt_sets) -> dict:
    """``quantize_model`` on a loaded fp32 checkpoint's params and header."""
    scales = calibrate_activations(params, calib_clips, prompt_sets)
    qtensors = {}
    for name, tensor in params.tensors.items():
        q, qp = quantize_tensor(tensor.data)
        qtensors[name] = (q, qp.scale)
    save_quantized(
        checkpoint_out,
        params.config,
        qtensors,
        scales,
        epoch=int(header.get("epoch", 0)),
        val_accuracy=header.get("val_accuracy"),
    )
    return scales


def load_quantized_model(path) -> tuple[ModelParams, ActQuant]:
    """Quantized checkpoint -> dequantized float32 params plus activation context."""
    config, qtensors, scales, _header = load_quantized(path)
    tensors = {name: Tensor(dequantize(q, QuantParams(s))) for name, (q, s) in qtensors.items()}
    return ModelParams(config, tensors), ActQuant(scales)


def load_model(path) -> tuple[ModelParams, ActQuant | None]:
    """FP32 or quantized checkpoint -> (params, activation context or None)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC_FP32))
    if magic == MAGIC_FP32:
        return load_checkpoint(path)[0], None
    if magic == MAGIC_QUANT:
        return load_quantized_model(path)
    raise DataError(f"{path}: unrecognized checkpoint magic {magic!r}")
