"""Shared fixtures: toy model configs, synthetic clips, and a trained run.

The toy configuration is small enough for float64 oracle comparisons and
finite-difference gradient checks while exercising every code path: message
attention across frames, intra-frame attention, temporal pooling, the text
encoder, prompting blocks and the similarity head.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import fragreel
from fragreel.catalogue import EventLabel, GameId
from fragreel.checkpoint import load_checkpoint
from fragreel.params import (
    EncoderConfig,
    HeadConfig,
    ModelConfig,
    ModelParams,
    TextConfig,
    group_of,
    param_specs,
)
from fragreel.training import TrainConfig, train

OVERFIT_LABELS = (
    EventLabel.KILL,
    EventLabel.DEATH,
    EventLabel.POWER_USE,
    EventLabel.BACKGROUND,
)


def toy_model_config() -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(
            t_frames=2, side=4, patch=2, d_model=8, n_heads=2,
            n_cct_layers=1, n_mit_layers=1, d_ffn=16,
        ),
        text=TextConfig(d_text=8, n_heads=2, n_layers=1, d_ffn=16, prompt_heads=2),
        head=HeadConfig(logit_scale_init=100.0),
    )


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to the JSON header of a checkpoint, keeping its payload.

    The payload starts at the first multiple of 64 after the header. The
    edited file replaces the old one, as the writers do: rewriting it in
    place would change the tensors already loaded from it.
    """
    blob = path.read_bytes()
    hlen = struct.unpack_from("<I", blob, 9)[0]
    header = json.loads(blob[13 : 13 + hlen])
    edit(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = blob[13 + hlen + -(13 + hlen) % 64:]
    head = blob[:9] + struct.pack("<I", len(new_header)) + new_header
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(head + bytes(-len(head) % 64) + payload)
    os.replace(tmp, path)


# Runs ``fragreel.cli.main`` on argv[2:], then writes the process's own
# peak RSS in kB, the VmHWM line of /proc/self/status, to argv[1].
_OWN_PEAK_RSS = """
import sys
from fragreel.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
with open(sys.argv[1], "w") as out:
    out.write(peak)
sys.exit(code)
"""


def cli_peak_rss_mb(argv, tmp_path) -> float:
    """Runs ``fragreel <argv>`` in a child process, which must succeed, and
    returns the child's own peak RSS in MB (2**20 bytes).

    The child reads it from its VmHWM. ``wait4``'s ``ru_maxrss`` would not
    do: it also counts the pages the child shared with this process between
    the fork and the exec, so a small child of a large test process reads
    as large.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    out = tmp_path / "vmhwm_kb"
    src = str(Path(fragreel.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", _OWN_PEAK_RSS, str(out), *(str(a) for a in argv)],
                   env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    return int(out.read_text()) / 1024


def tracemalloc_peak(fn):
    """``fn()``'s result and the peak bytes that ``tracemalloc`` traced
    while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def param_count(cfg: ModelConfig, group: str | None = None) -> int:
    """Scalars of the model, or of one parameter group of it."""
    total = 0
    for spec in param_specs(cfg):
        if group is None or group_of(spec.name) == group:
            total += int(np.prod(spec.shape)) if spec.shape else 1
    return total


def plain_f64(params: ModelParams) -> dict[str, np.ndarray]:
    """Parameters as a plain name -> float64 array dict for the oracle."""
    return {name: params[name].data.astype(np.float64) for name in params.names()}


@dataclass(frozen=True)
class Example:
    """A preprocessed clip with the game and label a manifest entry
    carries, so training and scoring need no video files."""

    clip: np.ndarray
    game: GameId
    label: EventLabel


def read_clip(example: Example) -> np.ndarray:
    """The ``read`` function for ``Example`` refs."""
    return example.clip


def overfit_clips(mag: float = 5.0) -> list[Example]:
    """Eight synthetic clips, two per class, with row/column signatures.

    Class k lights row k and darkens column k, so classes are linearly
    separable in patch space while sharing the same overall energy.
    """
    examples = []
    for i in range(8):
        k = i % 4
        frames = np.zeros((2, 4, 4, 3), dtype=np.float32)
        frames[:, k, :, :] = mag
        frames[:, :, k, :] -= mag
        examples.append(Example(clip=frames, game=GameId.OW2, label=OVERFIT_LABELS[k]))
    return examples


OVERFIT_TRAIN = TrainConfig(
    epochs=50, batch_size=4, lr_max=2e-2, lr_min=2e-5, seed=3,
)


def review_session():
    """Window decisions and annotations with known per-label accuracies.

    29 Kill windows of which 20 sit over a Kill annotation, 34 Death
    windows all over Death annotations, and 30 Background windows of which
    one clashes with an annotation: accuracies 20/29, 34/34 and 29/30 for a
    pooled 83/93.
    """
    from fragreel.annotations import AnnotatedEvent
    from fragreel.detection import WindowDecision

    decisions = []
    annotations = []
    for i in range(29):
        start = 10 * i
        decisions.append(
            WindowDecision(start_s=start, label=EventLabel.KILL, source_second=start, score=0.9)
        )
        if i < 20:
            annotations.append(
                AnnotatedEvent("review", start + 0.5, start + 1.5, EventLabel.KILL, GameId.CSGO)
            )
    for i in range(34):
        start = 1000 + 10 * i
        decisions.append(
            WindowDecision(start_s=start, label=EventLabel.DEATH, source_second=start, score=0.8)
        )
        annotations.append(
            AnnotatedEvent("review", start + 0.5, start + 1.5, EventLabel.DEATH, GameId.CSGO)
        )
    for i in range(30):
        start = 3000 + 10 * i
        decisions.append(
            WindowDecision(
                start_s=start, label=EventLabel.BACKGROUND, source_second=start, score=0.5
            )
        )
    annotations.append(
        AnnotatedEvent("review", 3290.5, 3291.5, EventLabel.KILL, GameId.CSGO)
    )
    return decisions, annotations


@pytest.fixture(scope="session")
def toy_config() -> ModelConfig:
    return toy_model_config()


@pytest.fixture()
def toy_params(toy_config) -> ModelParams:
    return ModelParams.init(toy_config, seed=7)


@pytest.fixture()
def toy_params_f64(toy_config) -> ModelParams:
    return ModelParams.init(toy_config, seed=7, dtype=np.float64)


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory):
    """One full training run on the synthetic clips, shared by the suite.

    Returns the examples, the untouched initial parameters, the parameters
    at the last epoch, the best-checkpoint parameters read back from the
    file, the epoch history, the paths of the written checkpoint and
    history files, and each epoch's final weights as taken after its last
    step.
    """
    out = tmp_path_factory.mktemp("overfit")
    examples = overfit_clips()
    initial = ModelParams.init(toy_model_config(), seed=7)
    params = ModelParams.init(toy_model_config(), seed=7)
    ckpt = out / "model.xckp"
    hist = out / "history.jsonl"
    epoch_end: dict[int, dict[str, bytes]] = {}

    def snapshot(epoch, step, loss):
        epoch_end[epoch] = {name: params[name].data.tobytes() for name in params.names()}

    history = train(
        examples, [], read_clip, params, OVERFIT_TRAIN,
        checkpoint_path=ckpt, history_path=hist, on_step=snapshot,
    )
    return {
        "examples": examples,
        "initial": initial,
        "final": params,
        "best": load_checkpoint(ckpt)[0],
        "history": history,
        "checkpoint": ckpt,
        "history_path": hist,
        "epoch_end": epoch_end,
    }


_ACCEPTANCE_REPORTS: dict[str, object] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        _ACCEPTANCE_REPORTS[report.nodeid] = report


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_REPORTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_REPORTS):
        report = _ACCEPTANCE_REPORTS[nodeid]
        verdict = "PASS" if report.passed else "FAIL"
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"ACCEPTANCE {verdict}: {name}")
