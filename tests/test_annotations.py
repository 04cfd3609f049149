"""Annotation parsing, clip derivation, and manifest construction."""

from __future__ import annotations

import json

import numpy as np
import pytest

from fragreel.annotations import (
    AnnotatedEvent,
    ClipRef,
    DatasetManifest,
    build_manifest,
    event_to_clip,
    events_from_json,
    events_to_json,
    manifest_from_json,
    manifest_to_json,
    parse_via,
)
from fragreel.catalogue import EventLabel, GameId
from fragreel.errors import (
    DataError,
    DurationTooShort,
    MalformedJson,
    NegativeInterval,
    UnknownLabel,
)


def via_project(metadata: dict, files: dict | None = None) -> bytes:
    project = {
        "file": files if files is not None else {"1": {"fname": "match.rgbc"}},
        "metadata": metadata,
    }
    return json.dumps(project).encode("utf-8")


class TestParseVia:
    def test_extracts_temporal_segments(self):
        blob = via_project({
            "1_a": {"vid": "1", "z": [4.0, 6.5], "av": {"1": "Kill"}},
            "1_b": {"vid": "1", "z": [10.0, 11.0], "av": {"1": "death"}},
        })
        events = parse_via(blob, GameId.CSGO)
        assert [(e.start_s, e.end_s, e.label) for e in events] == [
            (4.0, 6.5, EventLabel.KILL),
            (10.0, 11.0, EventLabel.DEATH),
        ]
        assert all(e.video == "match.rgbc" for e in events)

    def test_skips_non_temporal_marks(self):
        blob = via_project({
            "1_a": {"vid": "1", "z": [3.0], "av": {"1": "Kill"}},
            "1_b": {"vid": "1", "z": [], "av": {"1": "Kill"}},
            "1_c": {"vid": "1", "z": [1.0, 2.0], "av": {"1": "Kill"}},
        })
        events = parse_via(blob, GameId.CSGO)
        assert len(events) == 1

    def test_orders_by_metadata_key(self):
        blob = via_project({
            "1_b": {"vid": "1", "z": [9.0, 10.0], "av": {"1": "Kill"}},
            "1_a": {"vid": "1", "z": [1.0, 2.0], "av": {"1": "Kill"}},
        })
        events = parse_via(blob, GameId.CSGO)
        assert [e.start_s for e in events] == [1.0, 9.0]

    def test_label_normalization(self):
        blob = via_project({
            "m": {"vid": "1", "z": [0.0, 1.0], "av": {"1": "Knocked_Down"}},
        })
        events = parse_via(blob, GameId.PUBG)
        assert events[0].label is EventLabel.KNOCKED_DOWN

    def test_unknown_label_raises(self):
        blob = via_project({"m": {"vid": "1", "z": [0.0, 1.0], "av": {"1": "teabag"}}})
        with pytest.raises(UnknownLabel):
            parse_via(blob, GameId.CSGO)

    def test_label_not_in_game_catalogue_raises(self):
        blob = via_project({"m": {"vid": "1", "z": [0.0, 1.0], "av": {"1": "PowerUse"}}})
        with pytest.raises(UnknownLabel):
            parse_via(blob, GameId.CSGO)  # PowerUse is not a CSGO event

    def test_unknown_file_reference_raises(self):
        blob = via_project({"m": {"vid": "9", "z": [0.0, 1.0], "av": {"1": "Kill"}}})
        with pytest.raises(MalformedJson):
            parse_via(blob, GameId.CSGO)

    def test_missing_label_attribute_raises(self):
        blob = via_project({"m": {"vid": "1", "z": [0.0, 1.0], "av": {}}})
        with pytest.raises(MalformedJson):
            parse_via(blob, GameId.CSGO)

    @pytest.mark.parametrize("span", [["x", 2.0], [1.0, None], 5, "ab", {"a": 1, "b": 2},
                                      [True, 2], ["1", 2.0]],
                             ids=["string", "null", "number", "two_char_string", "object",
                                  "bool", "numeric_string"])
    def test_bad_span_raises_naming_the_entry(self, span):
        blob = via_project({
            "1_a": {"vid": "1", "z": [1.0, 2.0], "av": {"1": "Kill"}},
            "1_bad": {"vid": "1", "z": span, "av": {"1": "Kill"}},
        })
        with pytest.raises(MalformedJson, match="'1_bad'"):
            parse_via(blob, GameId.CSGO)

    @pytest.mark.parametrize("label", [["Kill"], 1, None, {"1": "Kill"}],
                             ids=["list", "number", "null", "object"])
    def test_label_not_a_string_raises_naming_the_entry(self, label):
        blob = via_project({
            "1_a": {"vid": "1", "z": [1.0, 2.0], "av": {"1": "Kill"}},
            "1_bad": {"vid": "1", "z": [3.0, 4.0], "av": {"1": label}},
        })
        with pytest.raises(MalformedJson, match="'1_bad'"):
            parse_via(blob, GameId.CSGO)

    def test_garbage_bytes_raise(self):
        with pytest.raises(MalformedJson):
            parse_via(b"{not json", GameId.CSGO)
        with pytest.raises(MalformedJson):
            parse_via(b"[1, 2]", GameId.CSGO)


class TestAnnotatedEvent:
    def test_negative_start_rejected(self):
        with pytest.raises(NegativeInterval):
            AnnotatedEvent("v", -0.1, 1.0, EventLabel.KILL, GameId.CSGO)

    def test_inverted_interval_rejected(self):
        with pytest.raises(NegativeInterval):
            AnnotatedEvent("v", 5.0, 4.0, EventLabel.KILL, GameId.CSGO)

    @pytest.mark.parametrize("start, end", [
        (float("nan"), 2.0), (1.0, float("nan")), (1.0, float("inf")), (float("inf"), float("inf")),
    ])
    def test_non_finite_interval_rejected(self, start, end):
        with pytest.raises(NegativeInterval):
            AnnotatedEvent("v", start, end, EventLabel.KILL, GameId.CSGO)

    @pytest.mark.parametrize("video", [5, None, ""], ids=["number", "null", "empty"])
    def test_video_must_be_a_non_empty_string(self, video):
        with pytest.raises(DataError, match="video name must be a non-empty string"):
            AnnotatedEvent(video, 1.0, 2.0, EventLabel.KILL, GameId.CSGO)


class TestClipRef:
    @pytest.mark.parametrize("video", [5, None, ""], ids=["number", "null", "empty"])
    def test_video_must_be_a_non_empty_string(self, video):
        with pytest.raises(DataError, match="video name must be a non-empty string"):
            ClipRef(video, 1.0, EventLabel.KILL, GameId.CSGO, "train")

    @pytest.mark.parametrize("start, split", [
        (float("nan"), "train"), (float("inf"), "train"), (-0.5, "test"), (1.0, "val"),
    ], ids=["nan_start", "infinite_start", "negative_start", "unknown_split"])
    def test_bad_start_or_split_rejected(self, start, split):
        with pytest.raises(DataError, match="clip of 'v'"):
            ClipRef("v", start, EventLabel.KILL, GameId.CSGO, split)


class TestEventToClip:
    def event(self, start, end):
        return AnnotatedEvent("v", start, end, EventLabel.KILL, GameId.CSGO)

    def test_centered_on_midpoint(self):
        clip = event_to_clip(self.event(10.0, 12.0), 30.0)
        assert clip.clip_start_s == 10.5  # midpoint 11.0, minus half a second

    def test_clamped_at_video_start(self):
        clip = event_to_clip(self.event(0.0, 0.2), 30.0)
        assert clip.clip_start_s == 0.0

    def test_clamped_at_video_end(self):
        clip = event_to_clip(self.event(29.5, 30.0), 30.0)
        assert clip.clip_start_s == 29.0

    def test_too_short_video_raises(self):
        with pytest.raises(DurationTooShort):
            event_to_clip(self.event(0.0, 0.5), 0.9)


def synthetic_events(n_per: dict[EventLabel, int], game=GameId.CSGO) -> list[AnnotatedEvent]:
    events = []
    t = 0.0
    for label, count in n_per.items():
        for _ in range(count):
            events.append(AnnotatedEvent("v", t, t + 2.0, label, game))
            t += 10.0
    return events


class TestBuildManifest:
    def test_split_sizes_round_to_nearest(self):
        events = synthetic_events({EventLabel.KILL: 10})
        manifest = build_manifest(events, [], seed=0, durations={"v": 1000.0})
        splits = [e.split for e in manifest.entries]
        assert splits.count("test") == 2  # round(10 * 0.2)
        assert splits.count("train") == 8

    def test_small_stratum_goes_to_train(self):
        events = synthetic_events({EventLabel.KILL: 1})
        manifest = build_manifest(events, [], seed=0, durations={"v": 1000.0})
        assert [e.split for e in manifest.entries] == ["train"]

    def test_pair_stratum_rounds_to_no_test_rows(self):
        events = synthetic_events({EventLabel.KILL: 2})
        manifest = build_manifest(events, [], seed=0, durations={"v": 1000.0})
        assert [e.split for e in manifest.entries] == ["train", "train"]

    def test_three_clip_stratum_keeps_one_for_test(self):
        events = synthetic_events({EventLabel.KILL: 3})
        manifest = build_manifest(events, [], seed=0, durations={"v": 1000.0})
        assert sorted(e.split for e in manifest.entries) == ["test", "train", "train"]

    def test_stratified_per_game_and_label(self):
        events = synthetic_events({EventLabel.KILL: 5, EventLabel.DEATH: 5})
        manifest = build_manifest(events, [], seed=1, durations={"v": 1000.0})
        for label in (EventLabel.KILL, EventLabel.DEATH):
            rows = [e for e in manifest.entries if e.label is label]
            assert sum(1 for e in rows if e.split == "test") == 1

    def test_deterministic_under_seed(self):
        events = synthetic_events({EventLabel.KILL: 9, EventLabel.DEATH: 4})
        a = build_manifest(events, [], seed=7, durations={"v": 1000.0})
        b = build_manifest(events, [], seed=7, durations={"v": 1000.0})
        assert a == b

    def test_seed_changes_assignment(self):
        events = synthetic_events({EventLabel.KILL: 10})
        a = build_manifest(events, [], seed=0, durations={"v": 1000.0})
        b = build_manifest(events, [], seed=1, durations={"v": 1000.0})
        test_a = {e.clip_start_s for e in a.entries if e.split == "test"}
        test_b = {e.clip_start_s for e in b.entries if e.split == "test"}
        assert test_a != test_b

    def test_entries_sorted(self):
        events = synthetic_events({EventLabel.DEATH: 3, EventLabel.KILL: 3})
        manifest = build_manifest(events, [], seed=0, durations={"v": 1000.0})
        keys = [(e.game.value, e.label.value, e.video, e.clip_start_s) for e in manifest.entries]
        assert keys == sorted(keys)

    def test_backgrounds_included(self):
        events = synthetic_events({EventLabel.KILL: 2})
        bkg = [AnnotatedEvent("v", 100.0, 101.0, EventLabel.BACKGROUND, GameId.CSGO)]
        manifest = build_manifest(events, bkg, seed=0, durations={"v": 1000.0})
        assert sum(1 for e in manifest.entries if e.label is EventLabel.BACKGROUND) == 1


class TestSerialization:
    def test_manifest_round_trip(self):
        events = synthetic_events({EventLabel.KILL: 4, EventLabel.RELOAD: 3})
        manifest = build_manifest(events, [], seed=5, durations={"v": 1000.0})
        assert manifest_from_json(manifest_to_json(manifest)) == manifest

    def test_manifest_json_bytes_stable(self):
        events = synthetic_events({EventLabel.KILL: 4})
        manifest = build_manifest(events, [], seed=5, durations={"v": 1000.0})
        assert manifest_to_json(manifest) == manifest_to_json(manifest)
        assert manifest_to_json(manifest).endswith("\n")

    def test_events_round_trip(self):
        events = synthetic_events({EventLabel.KILL: 2, EventLabel.DEATH: 1})
        assert events_from_json(events_to_json(events)) == events

    def test_bad_manifest_raises(self):
        with pytest.raises(MalformedJson):
            manifest_from_json("{}")
        with pytest.raises(MalformedJson):
            manifest_from_json("not json")

    @pytest.mark.parametrize("key, value", [
        ("clip_start_s", "5"), ("clip_start_s", True), ("clip_start_s", 10**400),
        ("seed", 1.7), ("seed", True), ("seed", "3"),
    ], ids=["start_string", "start_bool", "start_past_float_range", "seed_fraction",
            "seed_bool", "seed_string"])
    def test_manifest_numbers_must_be_json_numbers(self, key, value):
        manifest = build_manifest(synthetic_events({EventLabel.KILL: 2}), [], seed=5,
                                  durations={"v": 1000.0})
        payload = json.loads(manifest_to_json(manifest))
        (payload if key == "seed" else payload["entries"][0])[key] = value
        with pytest.raises(MalformedJson, match=key):
            manifest_from_json(json.dumps(payload))

    @pytest.mark.parametrize("key, value", [
        ("start_s", "5"), ("start_s", False), ("end_s", True), ("end_s", "7.5"),
    ], ids=["start_string", "start_bool", "end_bool", "end_string"])
    def test_event_bounds_must_be_json_numbers(self, key, value):
        payload = json.loads(events_to_json(synthetic_events({EventLabel.KILL: 1})))
        payload[0][key] = value
        with pytest.raises(MalformedJson, match=key):
            events_from_json(json.dumps(payload))

    def test_bad_events_raise(self):
        with pytest.raises(MalformedJson):
            events_from_json('[{"video": "v"}]')
