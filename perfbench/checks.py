"""Output checks. Each raises CheckFailed; the runner counts a raise as a
failed operation.

Predictions are checked for internal consistency on every second and against
the reference stored in ``reference/<workload>.json`` on the seconds the
reference covers. The tolerance leaves room for float reordering: a label
must match only where the reference's top-two margin exceeds it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from fragreel.catalogue import EventLabel, GameId, parse_label
from fragreel.checkpoint import load_checkpoint, load_quantized
from fragreel.detection import SecondPrediction, build_edl, slide_windows

PROB_TOLERANCE = 1e-3
SUM_TOLERANCE = 1e-5
HIGHLIGHT_TARGETS = frozenset({EventLabel.KILL, EventLabel.DEATH})


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_prediction_records(path: Path) -> list[dict]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return [json.loads(line) for line in lines if line.strip()]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: unreadable predictions ({exc})") from exc


def _argmax(probs: list[float]) -> int:
    """First index among the largest, as the program breaks ties."""
    return max(range(len(probs)), key=lambda i: (probs[i], -i))


def check_predictions(path: Path, seconds: int, labels: tuple[str, ...],
                      reference: dict | None = None) -> None:
    """``labels`` is the prompt-set order, which defines tie-breaking."""
    records = read_prediction_records(path)
    _require(len(records) == seconds, f"{path}: {len(records)} predictions for {seconds} s")
    for i, rec in enumerate(records):
        where = f"{path} second {i}"
        try:
            second, label, prob, table = rec["second"], rec["label"], rec["probability"], rec["probs"]
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"{where}: missing field {exc}") from exc
        _require(second == i, f"{where}: record says second {second}")
        _require(set(table) == set(labels), f"{where}: labels {sorted(table)} != {sorted(labels)}")
        probs = [table[name] for name in labels]
        _require(all(isinstance(p, float) and 0.0 <= p <= 1.0 for p in probs),
                 f"{where}: probability outside [0, 1]")
        _require(abs(math.fsum(probs) - 1.0) <= SUM_TOLERANCE, f"{where}: probabilities do not sum to 1")
        _require(label == labels[_argmax(probs)], f"{where}: label {label} is not the argmax")
        _require(prob == table[label], f"{where}: probability is not that of the label")
        expected = (reference or {}).get(str(i))
        if expected is not None:
            _check_against_reference(where, table, expected, labels)


def _check_against_reference(where: str, table: dict, expected: dict, labels) -> None:
    for name in labels:
        _require(abs(table[name] - expected[name]) <= PROB_TOLERANCE,
                 f"{where}: p({name}) {table[name]} vs reference {expected[name]}")
    ordered = sorted((expected[name] for name in labels), reverse=True)
    if ordered[0] - ordered[1] > PROB_TOLERANCE:
        want = labels[_argmax([expected[name] for name in labels])]
        got = labels[_argmax([table[name] for name in labels])]
        _require(got == want, f"{where}: label {got} vs reference {want}")


def reference_table(path: Path, seconds: int) -> dict:
    """The first ``seconds`` predictions of a file, in reference layout."""
    records = read_prediction_records(path)[:seconds]
    return {str(rec["second"]): rec["probs"] for rec in records}


def check_highlight(predictions: Path, highlight: Path, session_len: float, source: str) -> None:
    """The cut list equals build_edl(slide_windows(preds)) from the predictions."""
    preds = [
        SecondPrediction(
            second_index=rec["second"],
            label=parse_label(rec["label"], GameId.UNKNOWN),
            probability=rec["probability"],
            probabilities=tuple(
                (parse_label(name, GameId.UNKNOWN), p) for name, p in sorted(rec["probs"].items())
            ),
        )
        for rec in read_prediction_records(predictions)
    ]
    expected = build_edl(slide_windows(preds, HIGHLIGHT_TARGETS), session_len, source=source)
    try:
        written = Path(highlight).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"{highlight}: unreadable ({exc})") from exc
    _require(written == expected.to_json(), f"{highlight}: differs from the recomputed cut list")


def check_history(path: Path, epochs: int) -> None:
    try:
        records = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: unreadable history ({exc})") from exc
    _require(len(records) == epochs, f"{path}: {len(records)} epochs, expected {epochs}")
    for rec in records:
        for key in ("lr", "train_loss", "train_acc"):
            _require(math.isfinite(rec[key]), f"{path}: epoch {rec['epoch']} {key} not finite")


def check_checkpoint(path: Path) -> None:
    try:
        load_checkpoint(path)
    except Exception as exc:  # any failure to load is the finding
        raise CheckFailed(f"{path}: fp32 checkpoint does not load ({exc!r})") from exc


def check_quantized(path: Path) -> None:
    try:
        load_quantized(path)
    except Exception as exc:
        raise CheckFailed(f"{path}: quantized checkpoint does not load ({exc!r})") from exc


def check_manifest(path: Path, train: int, test: int) -> None:
    try:
        entries = json.loads(Path(path).read_text())["entries"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"{path}: unreadable manifest ({exc})") from exc
    splits = [e["split"] for e in entries]
    _require((splits.count("train"), splits.count("test")) == (train, test),
             f"{path}: {splits.count('train')} train / {splits.count('test')} test entries")


def check_report(path: Path, clips: int) -> None:
    try:
        overall = json.loads(Path(path).read_text())["overall"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"{path}: unreadable report ({exc})") from exc
    _require(overall["n"] == clips, f"{path}: {overall['n']} clips, expected {clips}")
    _require(0.0 <= overall["accuracy"] <= 1.0, f"{path}: accuracy out of range")
