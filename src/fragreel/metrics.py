"""Classification metrics: accuracy, per-class and macro F-score, OVO AUC.

AUC for each class pair restricts the records to those two true labels and
scores with the renormalized probability p_i/(p_i+p_j). Two independent
routes compute the binary AUC: a Mann-Whitney rank statistic (ties count
0.5) and a threshold-sweep trapezoid over the ROC curve; they must agree.
Pair values average both directions and the result is the unweighted mean
over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalogue import EventLabel, GameId
from .errors import DataError, EmptyInput, SingleClass
from .textmodel import predict_label


@dataclass(frozen=True)
class EvalRecord:
    true_label: EventLabel
    probabilities: tuple[tuple[EventLabel, float], ...]
    game: GameId = GameId.UNKNOWN

    def __post_init__(self):
        probs = tuple(self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        total = sum(p for _, p in probs)
        if abs(total - 1.0) > 1e-6:
            raise DataError(f"probabilities sum to {total}, not 1")
        if any(p < 0.0 or p > 1.0 for _, p in probs):
            raise DataError("probability outside [0, 1]")

    @property
    def predicted(self) -> EventLabel:
        return predict_label(self.probabilities)[0]

    def probability_of(self, label: EventLabel) -> float:
        for candidate, p in self.probabilities:
            if candidate is label:
                return p
        return 0.0


def accuracy(records: list[EvalRecord]) -> float:
    if not records:
        raise EmptyInput("no records")
    correct = sum(1 for r in records if r.predicted is r.true_label)
    return correct / len(records)


def macro_f1(records: list[EvalRecord]) -> tuple[dict[EventLabel, float], float]:
    """One-vs-rest F1 per class present in the true labels, plus their mean."""
    if not records:
        raise EmptyInput("no records")
    classes = sorted({r.true_label for r in records}, key=lambda c: c.value)
    per_class: dict[EventLabel, float] = {}
    for cls in classes:
        tp = sum(1 for r in records if r.true_label is cls and r.predicted is cls)
        fp = sum(1 for r in records if r.true_label is not cls and r.predicted is cls)
        fn = sum(1 for r in records if r.true_label is cls and r.predicted is not cls)
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        per_class[cls] = (
            2.0 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        )
    macro = sum(per_class.values()) / len(per_class)
    return per_class, macro


def binary_auc_ranksum(pos_scores, neg_scores) -> float:
    """Mann-Whitney AUC: P(pos > neg) + 0.5 P(pos = neg), via ranks."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise EmptyInput("both classes need at least one record")
    combined = np.concatenate([pos, neg])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty(combined.size, dtype=np.float64)
    sorted_vals = combined[order]
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum = float(ranks[: pos.size].sum())
    u = rank_sum - pos.size * (pos.size + 1) / 2.0
    return u / (pos.size * neg.size)


def binary_auc_trapezoid(pos_scores, neg_scores) -> float:
    """AUC as the trapezoid area of the threshold-swept ROC curve."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise EmptyInput("both classes need at least one record")
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    tpr = [0.0]
    fpr = [0.0]
    for th in thresholds:
        tpr.append(float(np.count_nonzero(pos >= th)) / pos.size)
        fpr.append(float(np.count_nonzero(neg >= th)) / neg.size)
    return float(np.trapezoid(tpr, fpr))


def ovo_auc(records: list[EvalRecord], route: str = "ranksum") -> float:
    """One-vs-one AUC, unweighted over unordered class pairs."""
    if not records:
        raise EmptyInput("no records")
    auc = {"ranksum": binary_auc_ranksum, "trapezoid": binary_auc_trapezoid}[route]
    classes = sorted({r.true_label for r in records}, key=lambda c: c.value)
    if len(classes) < 2:
        raise SingleClass("one-vs-one AUC needs at least two true classes")
    pair_values = []
    for a_idx in range(len(classes)):
        for b_idx in range(a_idx + 1, len(classes)):
            a, b = classes[a_idx], classes[b_idx]
            subset = [r for r in records if r.true_label in (a, b)]

            def score(r: EvalRecord, first: EventLabel, second: EventLabel) -> float:
                pi = r.probability_of(first)
                pj = r.probability_of(second)
                return pi / (pi + pj) if (pi + pj) > 0.0 else 0.5

            a_scores = [score(r, a, b) for r in subset]
            a_vs_b = auc(
                [s for r, s in zip(subset, a_scores) if r.true_label is a],
                [s for r, s in zip(subset, a_scores) if r.true_label is b],
            )
            b_scores = [score(r, b, a) for r in subset]
            b_vs_a = auc(
                [s for r, s in zip(subset, b_scores) if r.true_label is b],
                [s for r, s in zip(subset, b_scores) if r.true_label is a],
            )
            pair_values.append(0.5 * (a_vs_b + b_vs_a))
    return sum(pair_values) / len(pair_values)


def evaluation_report(records: list[EvalRecord]) -> dict:
    """Per-game rows {accuracy, avg_f, avg_auc}, per-event rows {accuracy}."""
    if not records:
        raise EmptyInput("no records")

    def game_row(subset: list[EvalRecord]) -> dict:
        _, macro = macro_f1(subset)
        try:
            auc = ovo_auc(subset)
        except SingleClass:
            auc = None
        return {
            "accuracy": accuracy(subset),
            "avg_f": macro,
            "avg_auc": auc,
            "n": len(subset),
        }

    games = sorted({r.game for r in records}, key=lambda g: g.value)
    labels = sorted({r.true_label for r in records}, key=lambda c: c.value)
    report = {
        "overall": game_row(records),
        "per_game": {},
        "per_event": {},
    }
    for game in games:
        subset = [r for r in records if r.game is game]
        report["per_game"][game.value] = game_row(subset)
    for label in labels:
        subset = [r for r in records if r.true_label is label]
        report["per_event"][label.value] = {
            "accuracy": accuracy(subset),
            "n": len(subset),
        }
    return report
