"""Post-training INT8 quantization, simulated in float.

Weights quantize per-tensor with a symmetric scale (max|x|/127, zero point
0, round half to even, clamp to ±127) and are stored as int8; inference
dequantizes them back to float32 at load. Activations entering matmuls are
calibrated by recording max|x| per site on forward passes, then fake-
quantized (quantize + dequantize) at the same sites during simulated
quantized inference. Everything between matmuls (layernorm, softmax,
residual adds) stays float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .checkpoint import load_checkpoint, load_quantized, save_quantized
from .errors import DataError, NonFiniteInput
from .params import ModelParams

QMAX = 127


@dataclass(frozen=True)
class QuantParams:
    scale: float


def quantize_tensor(x: np.ndarray) -> tuple[np.ndarray, QuantParams]:
    """Per-tensor symmetric int8 quantization; all-zero input gets scale 1."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("cannot quantize non-finite tensor")
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    scale = max_abs / QMAX if max_abs > 0.0 else 1.0
    q = np.clip(np.rint(x / scale), -QMAX, QMAX).astype(np.int8)
    return q, QuantParams(scale=scale)


def dequantize(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    return (np.asarray(q, dtype=np.float32) * np.float32(qp.scale)).astype(np.float32)


def fake_quant(x: np.ndarray, scale: float) -> np.ndarray:
    """Quantize then dequantize, preserving the input dtype."""
    q = np.clip(np.rint(x / scale), -QMAX, QMAX)
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
        seen = float(np.max(np.abs(data))) if data.size else 0.0
        prev = self.max_abs.get(site, 0.0)
        if seen > prev:
            self.max_abs[site] = seen
        elif site not in self.max_abs:
            self.max_abs[site] = 0.0
        return data

    def scales(self) -> dict[str, float]:
        return {
            site: (m / QMAX if m > 0.0 else 1.0) for site, m in sorted(self.max_abs.items())
        }


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
    """Record activation ranges over full classification forward passes.

    One calibration clip is enough in practice; several clips accumulate a
    running max per site. Every prompt set that inference will use must be
    listed so the text-side sites get calibrated too.
    """
    from .textmodel import classification_logits
    from .videomodel import encode_video

    if not calib_clips:
        raise DataError("calibration set is empty")
    recorder = ActRecorder()
    for clip in calib_clips:
        v = encode_video(clip, params, qctx=recorder)
        for prompt_set in prompt_sets:
            classification_logits(Tensor(v.data), prompt_set, params, cache=None, qctx=recorder)
    return recorder.scales()


def quantize_model(checkpoint_in, checkpoint_out, calib_clips, prompt_sets) -> dict:
    """FP32 checkpoint -> quantized checkpoint with calibrated activations."""
    params, header = load_checkpoint(checkpoint_in)
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
    """Quantized checkpoint -> dequantized params plus activation context."""
    params, scales, _header = load_quantized(path)
    return params, ActQuant(scales)
