"""Seeded inputs for the benchmark workloads.

Everything the program reads during a benchmark run is written here, at
set-up, from the workload seed: `.rgbc` sessions, VIA annotations with the
matching events JSON, one run config per named model config, the fp32
checkpoint and the one-entry calibration manifest that `fragreel quantize`
turns into the int8 checkpoint. The same seed gives the same bytes.

Two things do not depend on the seed, so that the predictions the benchmark
checks can be compared with a reference stored beside it:

- model weights come from ``WEIGHT_SEED``;
- the first ``reference_seconds`` of each detect session come from
  ``REFERENCE_SEED``.

Frame content never changes the work done: every kernel in the model is
dense, so only the shapes set the cost.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fragreel.annotations import (
    AnnotatedEvent,
    ClipRef,
    DatasetManifest,
    events_to_json,
    manifest_to_json,
)
from fragreel.catalogue import EventLabel, GameId
from fragreel.checkpoint import save_checkpoint
from fragreel.config import load_run_config
from fragreel.frames import RGBC_MAGIC
from fragreel.params import ModelParams

WEIGHT_SEED = 0
REFERENCE_SEED = 2**31 - 1
FPS = 30

# Named model configs. Only model-size fields differ from the shipped
# defaults. `toy` is the tests/conftest.py toy model; `small` is the
# ROADMAP's small config with a text side cut to the same width and depth;
# `wide-1` is the shipped default with one CCT layer instead of twelve.
MODEL_CONFIGS: dict[str, dict] = {
    "toy": {
        "encoder": {
            "t_frames": 2, "side": 4, "patch": 2, "d_model": 8, "n_heads": 2,
            "n_cct_layers": 1, "n_mit_layers": 1, "d_ffn": 16,
        },
        "text": {"d_text": 8, "n_heads": 2, "n_layers": 1, "d_ffn": 16, "prompt_heads": 2},
    },
    "small": {
        "encoder": {"t_frames": 8, "side": 224, "d_model": 256, "n_heads": 4,
                    "n_cct_layers": 4, "d_ffn": 1024},
        "text": {"d_text": 256, "n_heads": 4, "n_layers": 4, "d_ffn": 1024, "prompt_heads": 4},
    },
    "wide-1": {"encoder": {"n_cct_layers": 1}},
}

# finetune-small trains at batch 1 (batch 4 peaks near 6 GB RSS at `small`)
# for one epoch, so the eight train clips make eight optimizer steps.
FINETUNE_TRAIN = {"batch_size": 1, "epochs": 1}


def run_config(model: str, train: dict | None = None) -> dict:
    """A run config for a named model: model-size fields, nothing else."""
    sizes = MODEL_CONFIGS[model]
    encoder = dict(sizes.get("encoder", {}))
    payload: dict = {"encoder": encoder}
    if "text" in sizes:
        payload["text"] = dict(sizes["text"])
    # preprocessing must produce the clip shape the encoder expects
    payload["preprocess"] = {
        key: encoder[key] for key in ("t_frames", "side") if key in encoder
    }
    if not payload["preprocess"]:
        del payload["preprocess"]
    if train:
        payload["train"] = dict(train)
    return payload


def write_run_config(path: Path, model: str, train: dict | None = None) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run_config(model, train), indent=1, sort_keys=True) + "\n")
    return path


def write_fp32_checkpoint(config_path: Path, out: Path) -> Path:
    """ModelParams.init at WEIGHT_SEED, saved as an fp32 checkpoint."""
    run = load_run_config(str(config_path))
    params = ModelParams.init(run.model_config, WEIGHT_SEED)
    save_checkpoint(out, params, epoch=0, val_accuracy=None)
    return out


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def second_frames(seed: int, second: int, height: int, width: int, fps: int = FPS) -> np.ndarray:
    """One second of frames: blocky noise that shifts from frame to frame."""
    block = max(1, min(height, width) // 32)
    rows = -(-height // block) + 1
    cols = -(-width // block) + 1
    rng = _rng(seed, second)
    coarse = rng.integers(0, 256, size=(fps, rows, cols, 3), dtype=np.uint8)
    fine = np.repeat(np.repeat(coarse, block, axis=1), block, axis=2)
    shifts = rng.integers(0, block, size=2)
    return np.ascontiguousarray(
        fine[:, shifts[0] : shifts[0] + height, shifts[1] : shifts[1] + width]
    )


def write_session(path: Path, seed: int, seconds: int, height: int, width: int,
                  reference_seconds: int = 0) -> Path:
    """Stream an `.rgbc` session one second at a time.

    Seconds below ``reference_seconds`` draw from REFERENCE_SEED, the rest
    from ``seed``. Streaming keeps a 1080p session out of this process's RAM.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(RGBC_MAGIC + struct.pack("<5I", width, height, seconds * FPS, FPS, 1))
        for second in range(seconds):
            source = REFERENCE_SEED if second < reference_seconds else seed
            fh.write(second_frames(source, second, height, width).tobytes())
    return path


def write_calibration_manifest(path: Path, game: GameId, video: str) -> Path:
    """One test entry at second 0, which is reference content in every session."""
    ref = ClipRef(video=video, clip_start_s=0.0, label=EventLabel.BACKGROUND, game=game, split="test")
    path.write_text(manifest_to_json(DatasetManifest(seed=0, entries=(ref,))))
    return path


@dataclass(frozen=True)
class DetectSession:
    """Paths of one detect workload's generated inputs."""

    config: Path
    checkpoint: Path
    data_root: Path
    video: str
    calibration: Path


def make_detect_inputs(work: Path, seed: int, model: str, seconds: int, height: int,
                       width: int, reference_seconds: int) -> DetectSession:
    config = write_run_config(work / "run.json", model)
    checkpoint = write_fp32_checkpoint(config, work / "model.xckp")
    data_root = work / "data"
    write_session(data_root / GameId.CSGO.value / "session.rgbc", seed, seconds, height, width,
                  reference_seconds)
    calibration = write_calibration_manifest(work / "calibration.json", GameId.CSGO, "session.rgbc")
    return DetectSession(config, checkpoint, data_root, "session.rgbc", calibration)


# finetune-small dataset: per game, (event label, file duration) per source
# file. Each event sits in the first two seconds. In a 10 s file exactly one
# background second fits between the 3 s buffers; in a 7 s file none does.
# So every seed yields the same clip counts: 9 events and 2 backgrounds from
# 9 source files (more than ClipStore's 8-file cache), which
# build-manifest's stratified 80/20 rule splits into 8 train and 3 test.
FINETUNE_FILES: dict[GameId, tuple[tuple[EventLabel, int], ...]] = {
    GameId.CSGO: (
        (EventLabel.KILL, 10), (EventLabel.KILL, 7), (EventLabel.KILL, 7),
        (EventLabel.DEATH, 7), (EventLabel.DEATH, 7), (EventLabel.DEATH, 7),
    ),
    GameId.OW2: ((EventLabel.KILL, 10), (EventLabel.KILL, 7), (EventLabel.KILL, 7)),
}
FINETUNE_SPLIT = (8, 3)  # train, test clips
FINETUNE_SOURCE = (36, 64)  # height, width: small, so frames stays light


def _via_project(fname: str, start: float, end: float, label: EventLabel) -> str:
    project = {
        "file": {"1": {"fname": fname}},
        "metadata": {"1_0": {"vid": "1", "z": [start, end], "av": {"1": label.value}}},
    }
    return json.dumps(project, sort_keys=True) + "\n"


@dataclass(frozen=True)
class FinetuneInputs:
    config: Path
    data_root: Path
    events: Path
    games: tuple[GameId, ...]
    detect_root: Path
    detect_video: str


def make_finetune_inputs(work: Path, seed: int, detect_seconds: int) -> FinetuneInputs:
    config = write_run_config(work / "run.json", "small", FINETUNE_TRAIN)
    data_root = work / "data"
    height, width = FINETUNE_SOURCE
    events = []
    for g, (game, files) in enumerate(FINETUNE_FILES.items()):
        for i, (label, duration) in enumerate(files):
            fname = f"{game.value.lower()}_{i:02d}.rgbc"
            video = data_root / game.value / fname
            file_seed = int(_rng(seed, g, i).integers(2**31))
            write_session(video, file_seed, duration, height, width)
            start = round(0.5 + 0.3 * float(_rng(seed, g, i, 1).random()), 3)
            end = start + 1.0
            (video.parent / f"{video.stem}.via.json").write_text(
                _via_project(fname, start, end, label)
            )
            events.append(AnnotatedEvent(fname, start, end, label, game))
    events_path = work / "events.json"
    events_path.write_text(events_to_json(events))
    detect_root = work / "detect"
    write_session(detect_root / GameId.CSGO.value / "session.rgbc", seed, detect_seconds,
                  height, width)
    return FinetuneInputs(config, data_root, events_path, tuple(FINETUNE_FILES), detect_root,
                          "session.rgbc")
