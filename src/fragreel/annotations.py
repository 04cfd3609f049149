"""Annotated events, VIA project parsing, and reproducible dataset manifests.

The manifest is the unit of reproducibility: built from validated events plus
sampled backgrounds under a fixed seed, serialized with sorted keys and a
trailing newline so equality is a byte comparison.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace

from . import seeds
from .catalogue import EventLabel, GameId, parse_game, parse_label
from .errors import DataError, DurationTooShort, MalformedJson, NegativeInterval

logger = logging.getLogger(__name__)

MANIFEST_VERSION = "1"
TRAIN_FRACTION = 0.8


def _check_video(video) -> None:
    if not isinstance(video, str) or not video:
        raise DataError(f"video name must be a non-empty string, got {video!r}")


def _number(value, name: str) -> float:
    """A JSON number as a float; a bool is no number: ``true`` is not 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"{name} is beyond the float range") from None


@dataclass(frozen=True)
class AnnotatedEvent:
    """A labeled time interval in one video of one game."""

    video: str
    start_s: float
    end_s: float
    label: EventLabel
    game: GameId

    def __post_init__(self):
        _check_video(self.video)
        if not 0 <= self.start_s <= self.end_s < math.inf:  # also rejects NaN
            raise NegativeInterval(
                f"bad interval [{self.start_s}, {self.end_s}] in {self.video!r}"
            )

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start_s, self.end_s)


@dataclass(frozen=True)
class ClipRef:
    """One-second training clip derived from an event or sampled background."""

    video: str
    clip_start_s: float
    label: EventLabel
    game: GameId
    split: str  # "train" | "test"

    def __post_init__(self):
        _check_video(self.video)
        if not 0 <= self.clip_start_s < math.inf:  # also rejects NaN
            raise DataError(f"clip of {self.video!r} has bad start {self.clip_start_s}")
        if self.split not in ("train", "test"):
            raise DataError(f"clip of {self.video!r} has split {self.split!r}, not train or test")


@dataclass(frozen=True)
class DatasetManifest:
    seed: int
    entries: tuple[ClipRef, ...]
    version: str = MANIFEST_VERSION


def parse_via(json_bytes: bytes, game: GameId) -> list[AnnotatedEvent]:
    """Extract temporal-segment annotations from a VIA-3 project export.

    Only the temporal-segment subset is read: each metadata entry with a
    two-element ``z`` span becomes one event, labeled by the first value of
    its ``av`` attribute map. Unknown labels raise instead of being dropped.
    """
    try:
        project = json.loads(json_bytes)
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedJson(f"not a VIA project: {exc}") from exc
    if not isinstance(project, dict):
        raise MalformedJson("VIA project root must be an object")

    files = project.get("file", {})
    if not isinstance(files, dict):
        raise MalformedJson("VIA 'file' section must be an object")
    names = {}
    for fid, entry in files.items():
        if not isinstance(entry, dict) or "fname" not in entry:
            raise MalformedJson(f"VIA file entry {fid!r} lacks fname")
        names[str(fid)] = entry["fname"]

    metadata = project.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MalformedJson("VIA 'metadata' section must be an object")

    events = []
    for mid, record in sorted(metadata.items()):
        if not isinstance(record, dict):
            raise MalformedJson(f"metadata entry {mid!r} is not an object")
        span = record.get("z", [])
        if not isinstance(span, list):
            raise MalformedJson(f"metadata entry {mid!r} has span {span!r}, not a list")
        if len(span) != 2:
            continue  # not a temporal segment (point marks, spatial regions)
        vid = str(record.get("vid", ""))
        if vid not in names:
            raise MalformedJson(f"metadata entry {mid!r} references unknown file {vid!r}")
        values = record.get("av", {})
        if not isinstance(values, dict) or not values:
            raise MalformedJson(f"metadata entry {mid!r} has no label attribute")
        raw_label = values[sorted(values)[0]]
        if not isinstance(raw_label, str):
            raise MalformedJson(f"metadata entry {mid!r} has label {raw_label!r}, not a string")
        label = parse_label(raw_label, game)
        try:
            start, end = _number(span[0], "start"), _number(span[1], "end")
        except TypeError as exc:
            raise MalformedJson(f"metadata entry {mid!r} has non-numeric span {span!r}") from exc
        events.append(AnnotatedEvent(names[vid], start, end, label, game))
    return events


def event_to_clip(event: AnnotatedEvent, video_duration_s: float) -> ClipRef:
    """One-second clip centered at the event midpoint, clamped into the video;
    its split is train until ``build_manifest`` assigns one."""
    if video_duration_s < 1.0:
        raise DurationTooShort(
            f"{event.video!r} is {video_duration_s}s long; need at least 1s"
        )
    midpoint = 0.5 * (event.start_s + event.end_s)
    start = min(max(midpoint - 0.5, 0.0), video_duration_s - 1.0)
    return ClipRef(event.video, start, event.label, event.game, "train")


def build_manifest(
    events: list[AnnotatedEvent],
    backgrounds: list[AnnotatedEvent],
    seed: int,
    durations: dict[str, float],
) -> DatasetManifest:
    """Stratified 80/20 split over one clip per event, reproducible by seed.

    Strata are (game, label) pairs, each shuffled by its own seed-derived
    stream; a stratum of fewer than two clips goes wholly to train.
    ``durations`` holds the length in seconds of every video named.
    """
    clips = [event_to_clip(event, durations[event.video]) for event in [*events, *backgrounds]]

    strata: dict[tuple[str, str], list[ClipRef]] = {}
    for clip in clips:
        strata.setdefault((clip.game.value, clip.label.value), []).append(clip)

    entries = []
    for (game, label), members in sorted(strata.items()):
        members.sort(key=lambda c: (c.video, c.clip_start_s))
        n = len(members)
        if n < 2:
            logger.warning("stratum (%s, %s) has %d clip(s); all go to train", game, label, n)
            n_test = 0
        else:
            n_test = int(round(n * (1.0 - TRAIN_FRACTION)))
            n_test = min(n_test, n - 1)
        rng = seeds.stream(seed, "split", game, label)
        order = rng.permutation(n)
        test_idx = set(order[:n_test].tolist())
        for i, clip in enumerate(members):
            entries.append(replace(clip, split="test" if i in test_idx else "train"))

    entries.sort(key=lambda c: (c.game.value, c.label.value, c.video, c.clip_start_s))
    return DatasetManifest(seed=seed, entries=tuple(entries))


def manifest_to_json(manifest: DatasetManifest) -> str:
    payload = {
        "version": manifest.version,
        "seed": manifest.seed,
        "entries": [
            {
                "video": e.video,
                "clip_start_s": e.clip_start_s,
                "label": e.label.value,
                "game": e.game.value,
                "split": e.split,
            }
            for e in manifest.entries
        ],
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"


def _label_and_game(record: dict) -> dict:
    """The game of a record and its label, checked against that game."""
    game = parse_game(record["game"])
    return {"label": parse_label(str(record["label"]), game), "game": game}


def manifest_from_json(text: str | bytes) -> DatasetManifest:
    try:
        payload = json.loads(text)
        entries = tuple(
            ClipRef(
                video=e["video"],
                clip_start_s=_number(e["clip_start_s"], "clip_start_s"),
                split=e["split"],
                **_label_and_game(e),
            )
            for e in payload["entries"]
        )
        seed = payload["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        return DatasetManifest(seed=seed, entries=entries, version=payload["version"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MalformedJson(f"bad manifest: {exc}") from exc


def events_to_json(events: list[AnnotatedEvent]) -> str:
    payload = [
        {
            "video": e.video,
            "start_s": e.start_s,
            "end_s": e.end_s,
            "label": e.label.value,
            "game": e.game.value,
        }
        for e in events
    ]
    return json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"


def events_from_json(text: str | bytes) -> list[AnnotatedEvent]:
    try:
        payload = json.loads(text)
        return [
            AnnotatedEvent(
                video=e["video"],
                start_s=_number(e["start_s"], "start_s"),
                end_s=_number(e["end_s"], "end_s"),
                **_label_and_game(e),
            )
            for e in payload
        ]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MalformedJson(f"bad events file: {exc}") from exc
