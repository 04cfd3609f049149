"""Full-session inference: per-second classification, windowing, highlights.

A session is cut into whole one-second clips, each classified on its own.
A three-second window then slides one second at a time: if any member
second predicts a target event, the window takes that event (when two
target labels compete, the highest member probability wins). Windows are
scored against annotations by overlap with a same-label annotation
(Background windows are correct when they overlap nothing), and
non-Background windows become padded, merged cuts in an edit decision
list.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

from .autodiff import no_grad
from .catalogue import EventLabel
from .errors import DataError, EmptyInput
from .parallel import map_ordered
from .textmodel import classify, first_highest, predict_label
from .videomodel import encode_video

WINDOW_S = 3
PAD_PRE_S = 2.0
PAD_POST_S = 1.0
PROGRESS_INTERVAL_S = 5.0


@dataclass(frozen=True)
class SecondPrediction:
    second_index: int
    label: EventLabel
    probability: float
    probabilities: tuple[tuple[EventLabel, float], ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise DataError(f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class WindowDecision:
    start_s: int
    label: EventLabel
    source_second: int
    score: float

    @property
    def end_s(self) -> int:
        return self.start_s + WINDOW_S


@dataclass(frozen=True)
class Cut:
    start_s: float
    end_s: float
    label: EventLabel
    score: float


@dataclass(frozen=True)
class HighlightEdl:
    source: str
    cuts: tuple[Cut, ...]

    def to_json(self) -> str:
        payload = {
            "source": self.source,
            "cuts": [
                {
                    "start_s": c.start_s,
                    "end_s": c.end_s,
                    "label": c.label.value,
                    "score": c.score,
                }
                for c in self.cuts
            ],
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"


def classify_second(clip, prompt_set, params, cache=None, qctx=None, second_index=0) -> SecondPrediction:
    with no_grad():
        v = encode_video(clip, params, qctx)
        probs = classify(v, prompt_set, params, cache, qctx)
    label, p = predict_label(probs)
    return SecondPrediction(
        second_index=second_index,
        label=label,
        probability=p,
        probabilities=tuple(probs),
    )


class SessionProgress:
    """Logs a session's progress at INFO: seconds done of the total, the
    wall seconds per second of video and an ETA. It logs at most once per
    ``PROGRESS_INTERVAL_S`` of wall time, plus once when the last second is
    done.
    Workers call it once per classified second, from any thread."""

    def __init__(self, total: int, log, clock=time.monotonic):
        self.total, self.log, self.clock = total, log, clock
        self.done = 0
        self.start = self.last = clock()
        self.lock = threading.Lock()

    def __call__(self) -> None:
        with self.lock:
            self.done += 1
            now = self.clock()
            if self.done < self.total and now - self.last < PROGRESS_INTERVAL_S:
                return
            self.last = now
            per_second = (now - self.start) / self.done
            self.log.info("detect: %d/%d seconds, %.3f s per second of video, ETA %.0f s",
                          self.done, self.total, per_second,
                          per_second * (self.total - self.done))


def classify_session(clips, prompt_set, params, cache=None, qctx=None, jobs=1,
                     progress=None) -> list[SecondPrediction]:
    """Classify a sequence of per-second clips, one prediction per second.

    ``clips`` is indexable by second; classification is read-only over the
    model, so seconds run on up to ``jobs`` workers (see ``parallel``).
    ``progress``, if given, is called after each second (a ``SessionProgress``).
    """
    seconds = len(clips)
    if seconds < 1:
        raise EmptyInput("session shorter than one second")

    def work(i: int) -> SecondPrediction:
        pred = classify_second(clips[i], prompt_set, params, cache, qctx, second_index=i)
        if progress is not None:
            progress()
        return pred

    return map_ordered(work, range(seconds), jobs)


def slide_windows(preds: list[SecondPrediction], targets) -> list[WindowDecision]:
    """Three-second windows at stride one; target events promote windows."""
    targets = {t for t in targets if t is not EventLabel.BACKGROUND}
    decisions = []
    for start in range(max(0, len(preds) - (WINDOW_S - 1))):
        members = preds[start : start + WINDOW_S]
        hits = [p for p in members if p.label in targets]
        if hits:
            best = first_highest(hits, key=lambda p: p.probability)
            decisions.append(
                WindowDecision(
                    start_s=start,
                    label=best.label,
                    source_second=best.second_index,
                    score=best.probability,
                )
            )
        else:
            decisions.append(
                WindowDecision(
                    start_s=start,
                    label=EventLabel.BACKGROUND,
                    source_second=start,
                    score=max(p.probability for p in members),
                )
            )
    return decisions


def _overlaps(start: float, end: float, interval) -> bool:
    return start < interval[1] and interval[0] < end


@dataclass(frozen=True)
class LabelScore:
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass(frozen=True)
class WindowScores:
    per_label: dict
    average: float


def score_windows(decisions: list[WindowDecision], annotations) -> WindowScores:
    """Overlap-based accuracy per window label plus the overall fraction.

    A window labeled with an event is correct when it overlaps an
    annotation of the same event; a Background window is correct when it
    overlaps no annotation at all. The average pools all windows.
    """
    counts: dict[EventLabel, list[int]] = {}
    for d in decisions:
        correct_total = counts.setdefault(d.label, [0, 0])
        correct_total[1] += 1
        if d.label is EventLabel.BACKGROUND:
            ok = not any(_overlaps(d.start_s, d.end_s, a.interval) for a in annotations)
        else:
            ok = any(
                a.label is d.label and _overlaps(d.start_s, d.end_s, a.interval)
                for a in annotations
            )
        if ok:
            correct_total[0] += 1
    per_label = {label: LabelScore(c, t) for label, (c, t) in counts.items()}
    total = sum(s.total for s in per_label.values())
    correct = sum(s.correct for s in per_label.values())
    return WindowScores(per_label=per_label, average=(correct / total if total else 0.0))


def build_edl(
    decisions: list[WindowDecision],
    session_len_s: float,
    source: str = "",
    pad_pre_s: float = PAD_PRE_S,
    pad_post_s: float = PAD_POST_S,
) -> HighlightEdl:
    """Pad event windows, clamp to the session, merge touching cuts."""
    raw = []
    for d in decisions:
        if d.label is EventLabel.BACKGROUND:
            continue
        start = max(0.0, d.start_s - pad_pre_s)
        end = min(float(session_len_s), d.end_s + pad_post_s)
        if start < end:
            raw.append(Cut(start_s=start, end_s=end, label=d.label, score=d.score))
    raw.sort(key=lambda c: (c.start_s, c.end_s))
    merged: list[Cut] = []
    for cut in raw:
        if merged and cut.start_s <= merged[-1].end_s:
            prev = merged[-1]
            keep = first_highest((prev, cut), key=lambda c: c.score)
            merged[-1] = Cut(
                start_s=prev.start_s,
                end_s=max(prev.end_s, cut.end_s),
                label=keep.label,
                score=keep.score,
            )
        else:
            merged.append(cut)
    return HighlightEdl(source=source, cuts=tuple(merged))
