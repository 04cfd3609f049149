"""Sampling of non-interesting one-second intervals between annotated events.

Within each file, gaps are the spans between consecutive annotated intervals
(after merging overlaps) shrunk by a buffer on both sides; sentinel events at
[0, 0] and [duration, duration] make the file edges ordinary gaps. Sampling
draws a file uniformly, then a gap uniformly, then a one-second sub-interval
uniformly inside the gap. Each success is appended to the file's event map so
later draws keep their distance from it; each failure (a file with no
eligible gap) bumps a cumulative retry counter that never resets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .annotations import AnnotatedEvent
from .catalogue import EventLabel, GameId
from .errors import NoBackgroundEvents

logger = logging.getLogger(__name__)

Interval = tuple[float, float]


@dataclass(frozen=True)
class SamplerConfig:
    rng_seed: int
    max_retries: int = 10
    buffer_secs: float = 3.0
    target_count: int | None = None

    def __post_init__(self):
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.buffer_secs < 0:
            raise ValueError("buffer_secs must be >= 0")
        if self.target_count is not None and self.target_count < 0:
            raise ValueError(f"target_count must be >= 0, got {self.target_count}")


def _merged(intervals: list[Interval]) -> list[Interval]:
    """Union of intervals, sorted. Guards gap pairing against overlapping
    annotations (simultaneous events), for which adjacent-pair iteration
    alone would leak gaps inside a longer interval."""
    out: list[Interval] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def eligible_gaps(intervals: list[Interval], buffer_secs: float) -> list[Interval]:
    """Gaps of at least one second between consecutive intervals, each end
    pushed ``buffer_secs`` away from the neighbouring interval."""
    events = _merged(intervals)
    gaps = []
    for (_, prev_end), (next_start, _) in zip(events, events[1:]):
        gap_start = prev_end + buffer_secs
        gap_end = next_start - buffer_secs
        if gap_end - gap_start >= 1.0:
            gaps.append((gap_start, gap_end))
    return gaps


def get_one_bkg_event(
    filename: str,
    file_event_map: dict[str, list[Interval]],
    rng: np.random.Generator,
    buffer_secs: float = 3.0,
) -> Interval:
    """Draw one one-second background interval from ``filename``.

    Picks a gap uniformly and a start offset uniformly within it, then
    records the chosen interval in the event map so subsequent draws treat
    it as occupied. Raises NoBackgroundEvents when no gap is eligible.
    """
    gaps = eligible_gaps(file_event_map[filename], buffer_secs)
    if not gaps:
        raise NoBackgroundEvents(f"no eligible gaps left in {filename!r}")
    gap_start, gap_end = gaps[rng.integers(len(gaps))]
    start = gap_start + rng.random() * (gap_end - gap_start - 1.0)
    chosen = (start, start + 1.0)
    file_event_map[filename].append(chosen)
    return chosen


def get_bkg_events(
    game: GameId,
    files: dict[str, tuple[float, list[AnnotatedEvent]]],
    cfg: SamplerConfig,
) -> dict[str, list[Interval]]:
    """Sample background intervals for every file of one game.

    ``files`` maps filename to (duration_s, annotated events). Sampling stops
    after ``cfg.max_retries`` cumulative failures or once ``cfg.target_count``
    intervals were collected; exhaustion is not an error.
    """
    del game  # identifies the batch for callers; sampling is per-file
    rng = np.random.default_rng(cfg.rng_seed)
    filenames = sorted(files)
    file_event_map: dict[str, list[Interval]] = {}
    for filename in filenames:
        duration, events = files[filename]
        spans: list[Interval] = [(e.start_s, e.end_s) for e in events]
        spans += [(0.0, 0.0), (duration, duration)]  # boundary sentinels
        file_event_map[filename] = spans

    bkg_events: dict[str, list[Interval]] = {name: [] for name in filenames}
    collected = 0
    retry_counter = 0
    while retry_counter < cfg.max_retries and filenames:
        if cfg.target_count is not None and collected >= cfg.target_count:
            break
        filename = filenames[rng.integers(len(filenames))]
        try:
            interval = get_one_bkg_event(filename, file_event_map, rng, cfg.buffer_secs)
        except NoBackgroundEvents:
            retry_counter += 1
            continue
        bkg_events[filename].append(interval)
        collected += 1
    if retry_counter >= cfg.max_retries:
        logger.debug("sampling stopped after %d failed retries", retry_counter)
    return bkg_events


def as_events(
    sampled: dict[str, list[Interval]], game: GameId
) -> list[AnnotatedEvent]:
    """Flatten sampled intervals into Background-labeled events."""
    events = []
    for filename in sorted(sampled):
        for start, end in sampled[filename]:
            events.append(AnnotatedEvent(filename, start, end, EventLabel.BACKGROUND, game))
    return events
