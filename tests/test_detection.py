"""Session inference: windowing, overlap scoring, and highlight cuts."""

import json
import threading

import numpy as np
import pytest
from conftest import review_session, toy_model_config

from fragreel.annotations import AnnotatedEvent
from fragreel.catalogue import EventLabel, GameId
from fragreel.detection import (
    Cut,
    HighlightEdl,
    SecondPrediction,
    WindowDecision,
    build_edl,
    classify_session,
    score_windows,
    slide_windows,
)
from fragreel.errors import DataError, EmptyInput, MalformedJson
from fragreel.params import ModelParams
from fragreel.textmodel import PromptCache, prompt_set_for


def bg(i: int, p: float = 0.5) -> SecondPrediction:
    return SecondPrediction(second_index=i, label=EventLabel.BACKGROUND, probability=p)


def ev(i: int, label: EventLabel, p: float) -> SecondPrediction:
    return SecondPrediction(second_index=i, label=label, probability=p)


TARGETS = (EventLabel.KILL, EventLabel.DEATH)


class TestSecondPrediction:
    def test_probability_outside_unit_interval_rejected(self):
        with pytest.raises(DataError):
            SecondPrediction(second_index=0, label=EventLabel.KILL, probability=1.5)
        with pytest.raises(DataError):
            SecondPrediction(second_index=0, label=EventLabel.KILL, probability=-0.1)

    def test_carries_full_distribution(self):
        dist = ((EventLabel.KILL, 0.7), (EventLabel.BACKGROUND, 0.3))
        pred = SecondPrediction(0, EventLabel.KILL, 0.7, probabilities=dist)
        assert pred.probabilities == dist


class TestSlideWindows:
    """Three-second windows at one-second stride with any-member promotion."""

    def test_window_count_is_seconds_minus_two(self):
        for seconds, expected in [(2, 0), (3, 1), (5, 3), (10, 8)]:
            preds = [bg(i) for i in range(seconds)]
            assert len(slide_windows(preds, TARGETS)) == expected

    def test_single_member_event_promotes_whole_window(self):
        preds = [bg(0), bg(1), ev(2, EventLabel.KILL, 0.7), bg(3), bg(4)]
        decisions = slide_windows(preds, TARGETS)
        first = decisions[0]
        assert first.label is EventLabel.KILL
        assert first.source_second == 2
        assert first.score == 0.7
        assert first.start_s == 0 and first.end_s == 3

    def test_highest_member_probability_wins(self):
        preds = [ev(0, EventLabel.KILL, 0.6), ev(1, EventLabel.DEATH, 0.8), bg(2)]
        (decision,) = slide_windows(preds, TARGETS)
        assert decision.label is EventLabel.DEATH
        assert decision.source_second == 1

    def test_probability_tie_takes_earliest_second(self):
        preds = [ev(0, EventLabel.KILL, 0.6), bg(1), ev(2, EventLabel.DEATH, 0.6)]
        (decision,) = slide_windows(preds, TARGETS)
        assert decision.label is EventLabel.KILL
        assert decision.source_second == 0

    def test_quiet_window_scores_strongest_member(self):
        preds = [bg(0, 0.4), bg(1, 0.9), bg(2, 0.5)]
        (decision,) = slide_windows(preds, TARGETS)
        assert decision.label is EventLabel.BACKGROUND
        assert decision.score == 0.9
        assert decision.source_second == 0

    def test_background_never_promotes_even_as_target(self):
        preds = [bg(0), bg(1), bg(2)]
        (decision,) = slide_windows(preds, (EventLabel.BACKGROUND, EventLabel.KILL))
        assert decision.label is EventLabel.BACKGROUND

    def test_non_target_events_do_not_promote(self):
        preds = [bg(0), ev(1, EventLabel.RELOAD, 0.99), bg(2)]
        (decision,) = slide_windows(preds, TARGETS)
        assert decision.label is EventLabel.BACKGROUND


class TestScoreWindows:
    """Windows are judged by overlap with same-label annotations."""

    def test_reference_session_per_label_accuracies(self):
        decisions, annotations = review_session()
        scores = score_windows(decisions, annotations)
        kill = scores.per_label[EventLabel.KILL]
        death = scores.per_label[EventLabel.DEATH]
        background = scores.per_label[EventLabel.BACKGROUND]
        assert (kill.correct, kill.total) == (20, 29)
        assert (death.correct, death.total) == (34, 34)
        assert (background.correct, background.total) == (29, 30)
        assert scores.average == 83 / 93

    def test_reference_session_rounds_to_expected_percentages(self):
        decisions, annotations = review_session()
        scores = score_windows(decisions, annotations)
        rounded = [
            round(100 * scores.per_label[label].accuracy, 1)
            for label in (EventLabel.KILL, EventLabel.DEATH, EventLabel.BACKGROUND)
        ]
        assert rounded == [69.0, 100.0, 96.7]
        assert round(100 * scores.average, 1) == 89.2

    def test_event_window_needs_matching_label(self):
        decisions = [WindowDecision(0, EventLabel.KILL, 0, 0.9)]
        annotations = [AnnotatedEvent("v", 0.5, 1.5, EventLabel.DEATH, GameId.CSGO)]
        scores = score_windows(decisions, annotations)
        assert scores.per_label[EventLabel.KILL].correct == 0

    def test_background_window_must_be_clear_of_all_annotations(self):
        decisions = [WindowDecision(0, EventLabel.BACKGROUND, 0, 0.5)]
        busy = [AnnotatedEvent("v", 1.0, 2.0, EventLabel.RELOAD, GameId.CSGO)]
        assert score_windows(decisions, busy).per_label[EventLabel.BACKGROUND].correct == 0
        assert score_windows(decisions, []).per_label[EventLabel.BACKGROUND].correct == 1

    def test_touching_intervals_do_not_overlap(self):
        decisions = [WindowDecision(0, EventLabel.KILL, 0, 0.9)]
        touching = [AnnotatedEvent("v", 3.0, 4.0, EventLabel.KILL, GameId.CSGO)]
        assert score_windows(decisions, touching).per_label[EventLabel.KILL].correct == 0
        grazing = [AnnotatedEvent("v", 2.9, 4.0, EventLabel.KILL, GameId.CSGO)]
        assert score_windows(decisions, grazing).per_label[EventLabel.KILL].correct == 1

    def test_no_windows_scores_zero(self):
        assert score_windows([], []).average == 0.0

    def test_report_dictionary_shape(self):
        decisions, annotations = review_session()
        payload = score_windows(decisions, annotations).to_dict()
        assert set(payload) == {"per_label", "average"}
        assert payload["per_label"]["Kill"]["total"] == 29
        assert payload["per_label"]["Kill"]["correct"] == 20


class TestBuildEdl:
    """Event windows become padded, clamped, merged highlight cuts."""

    def test_pads_two_before_and_one_after(self):
        decisions = [WindowDecision(5, EventLabel.KILL, 5, 0.9)]
        edl = build_edl(decisions, session_len_s=100.0)
        assert edl.cuts == (Cut(3.0, 9.0, EventLabel.KILL, 0.9),)

    def test_clamps_to_session_bounds(self):
        decisions = [
            WindowDecision(0, EventLabel.KILL, 0, 0.9),
            WindowDecision(7, EventLabel.DEATH, 7, 0.8),
        ]
        edl = build_edl(decisions, session_len_s=10.0)
        assert edl.cuts[0].start_s == 0.0
        assert edl.cuts[1].end_s == 10.0

    def test_background_windows_never_cut(self):
        decisions = [WindowDecision(5, EventLabel.BACKGROUND, 5, 0.9)]
        assert build_edl(decisions, 100.0).cuts == ()

    def test_overlapping_cuts_merge(self):
        decisions = [
            WindowDecision(5, EventLabel.KILL, 5, 0.9),
            WindowDecision(7, EventLabel.DEATH, 7, 0.6),
        ]
        edl = build_edl(decisions, 100.0)
        assert edl.cuts == (Cut(3.0, 11.0, EventLabel.KILL, 0.9),)

    def test_merge_keeps_higher_scoring_label(self):
        decisions = [
            WindowDecision(5, EventLabel.KILL, 5, 0.6),
            WindowDecision(7, EventLabel.DEATH, 7, 0.9),
        ]
        (cut,) = build_edl(decisions, 100.0).cuts
        assert cut.label is EventLabel.DEATH
        assert cut.score == 0.9
        assert (cut.start_s, cut.end_s) == (3.0, 11.0)

    def test_exactly_touching_cuts_merge(self):
        decisions = [
            WindowDecision(5, EventLabel.KILL, 5, 0.9),
            WindowDecision(11, EventLabel.KILL, 11, 0.8),
        ]
        (cut,) = build_edl(decisions, 100.0).cuts
        assert (cut.start_s, cut.end_s) == (3.0, 15.0)

    def test_separated_cuts_stay_apart(self):
        decisions = [
            WindowDecision(5, EventLabel.KILL, 5, 0.9),
            WindowDecision(20, EventLabel.KILL, 20, 0.8),
        ]
        cuts = build_edl(decisions, 100.0).cuts
        assert len(cuts) == 2
        assert cuts[0].end_s < cuts[1].start_s

    def test_cut_fully_outside_session_dropped(self):
        decisions = [WindowDecision(5, EventLabel.KILL, 5, 0.9)]
        assert build_edl(decisions, session_len_s=2.0).cuts == ()

    def test_custom_pads(self):
        decisions = [WindowDecision(5, EventLabel.KILL, 5, 0.9)]
        edl = build_edl(decisions, 100.0, pad_pre_s=0.0, pad_post_s=0.0)
        assert edl.cuts == (Cut(5.0, 8.0, EventLabel.KILL, 0.9),)


class TestHighlightEdl:
    def sample(self) -> HighlightEdl:
        return HighlightEdl(
            source="match.rgbc",
            cuts=(
                Cut(3.0, 9.0, EventLabel.KILL, 0.875),
                Cut(20.0, 26.5, EventLabel.DEATH, 0.5),
            ),
        )

    def test_json_round_trip(self):
        edl = self.sample()
        assert HighlightEdl.from_json(edl.to_json()) == edl

    def test_serialization_is_byte_stable(self):
        text = self.sample().to_json()
        assert text == self.sample().to_json()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(MalformedJson):
            HighlightEdl.from_json("{not json")
        with pytest.raises(MalformedJson):
            HighlightEdl.from_json(json.dumps({"source": "x"}))
        with pytest.raises(MalformedJson):
            HighlightEdl.from_json(json.dumps({"source": "x", "cuts": [{"start_s": 1}]}))

    def test_unknown_label_rejected(self):
        payload = {
            "source": "x",
            "cuts": [{"start_s": 0.0, "end_s": 1.0, "label": "Nonsense", "score": 0.5}],
        }
        with pytest.raises(DataError):
            HighlightEdl.from_json(json.dumps(payload))


class TestClassifySession:
    """Per-second classification over a toy model."""

    @pytest.fixture()
    def setup(self):
        params = ModelParams.init(toy_model_config(), seed=7)
        prompt_set = prompt_set_for(GameId.OW2)
        rng = np.random.default_rng(5)
        clips = [rng.normal(size=(2, 4, 4, 3)).astype(np.float32) for _ in range(5)]
        return params, prompt_set, clips

    def test_empty_session_rejected(self, setup):
        params, prompt_set, _ = setup
        with pytest.raises(EmptyInput):
            classify_session([], prompt_set, params)

    def test_one_prediction_per_second(self, setup):
        params, prompt_set, clips = setup
        preds = classify_session(clips, prompt_set, params)
        assert [p.second_index for p in preds] == list(range(5))
        for pred in preds:
            total = sum(p for _, p in pred.probabilities)
            np.testing.assert_allclose(total, 1.0, atol=1e-6)
            best = max(pred.probabilities, key=lambda item: item[1])
            assert pred.label is best[0]
            assert pred.probability == best[1]

    def test_thread_pool_matches_serial(self, setup):
        params, prompt_set, clips = setup
        serial = classify_session(clips, prompt_set, params, jobs=1)
        parallel = classify_session(clips, prompt_set, params, jobs=3)
        for a, b in zip(serial, parallel):
            assert a.label is b.label
            assert a.probability == b.probability
            assert a.probabilities == b.probabilities

    def test_workers_meeting_an_empty_cache_encode_prompts_once(self, setup):
        params, prompt_set, clips = setup
        barrier = threading.Barrier(2, timeout=30)

        class SimultaneousClips:
            """Two seconds whose fetches release both workers together."""

            def __len__(self):
                return 2

            def __getitem__(self, i):
                barrier.wait()
                return clips[i]

        cache = PromptCache()
        classify_session(SimultaneousClips(), prompt_set, params, cache=cache, jobs=2)
        assert cache.encode_calls == len(prompt_set.prompts)
