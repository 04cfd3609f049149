"""End-to-end command-line pipeline over a synthetic two-video dataset."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fragreel.annotations import events_from_json, manifest_from_json, parse_via
from fragreel.catalogue import EventLabel, GameId
from fragreel.checkpoint import load_checkpoint
from fragreel.cli import main
from fragreel.detection import HighlightEdl
from fragreel.frames import RawClip, write_rgbc

GAME = GameId.CSGO.value

TOY_CONFIG = {
    "seed": 7,
    "jobs": 1,
    "preprocess": {"t_frames": 2, "side": 4},
    "encoder": {
        "t_frames": 2,
        "side": 4,
        "patch": 2,
        "d_model": 8,
        "n_heads": 2,
        "n_cct_layers": 1,
        "n_mit_layers": 1,
        "d_ffn": 16,
    },
    "text": {"d_text": 8, "n_heads": 2, "n_layers": 1, "d_ffn": 16, "prompt_heads": 2},
    "train": {"epochs": 2, "batch_size": 4, "lr_max": 2e-2, "lr_min": 2e-3},
    "sampler": {"target_count": 4},
    "quantizer": {"calib_count": 2},
}


def via_blob(fname: str, segments) -> bytes:
    metadata = {
        f"1_{i}": {"vid": "1", "z": [float(a), float(b)], "av": {"1": label}}
        for i, (a, b, label) in enumerate(segments)
    }
    return json.dumps({"file": {"1": {"fname": fname}}, "metadata": metadata}).encode()


def run_cli(argv) -> int:
    return main([str(a) for a in argv])


def run_pipeline(cfg_path: Path, events_path: Path, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    art = {
        "backgrounds": out / "backgrounds.json",
        "manifest": out / "manifest.json",
        "checkpoint": out / "model.xckp",
        "history": out / "history.jsonl",
        "report": out / "report.json",
        "quantized": out / "model.xckq",
        "predictions": out / "preds.jsonl",
        "highlights": out / "highlights.json",
    }
    steps = [
        ["sample-background", "--config", cfg_path, "--game", GAME,
         "--out", art["backgrounds"]],
        ["build-manifest", "--config", cfg_path, "--annotations", events_path,
         "--backgrounds", art["backgrounds"], "--out", art["manifest"]],
        ["train", "--config", cfg_path, "--manifest", art["manifest"],
         "--checkpoint", art["checkpoint"], "--history", art["history"]],
        ["eval", "--config", cfg_path, "--manifest", art["manifest"],
         "--checkpoint", art["checkpoint"], "--split", "all", "--out", art["report"]],
        ["quantize", "--config", cfg_path, "--checkpoint", art["checkpoint"],
         "--manifest", art["manifest"], "--out", art["quantized"]],
        ["detect", "--config", cfg_path, "--checkpoint", art["checkpoint"],
         "--game", GAME, "--video", "alpha.rgbc", "--seconds", 8,
         "--out", art["predictions"]],
        ["highlight", "--config", cfg_path, "--predictions", art["predictions"],
         "--game", GAME, "--video", "alpha.rgbc", "--targets", "Kill,Death",
         "--session-len", 8, "--out", art["highlights"]],
    ]
    for argv in steps:
        rc = run_cli(argv)
        assert rc == 0, f"{argv[0]} exited {rc}"
    return art


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Dataset, config file, and one full pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    game_dir = data / GAME
    game_dir.mkdir(parents=True)
    rng = np.random.default_rng(0)

    def write_video(name: str, seconds: int, fps: int = 2):
        frames = rng.integers(0, 256, size=(seconds * fps, 6, 6, 3), dtype=np.uint8)
        (game_dir / name).write_bytes(write_rgbc(RawClip(frames=frames, fps=Fraction(fps))))

    write_video("alpha.rgbc", 30)
    write_video("bravo.rgbc", 16)
    alpha_via = via_blob("alpha.rgbc", [(10, 12, "Kill"), (20, 22, "Death")])
    bravo_via = via_blob("bravo.rgbc", [(5, 6, "Kill")])
    (game_dir / "alpha.via.json").write_bytes(alpha_via)
    (game_dir / "bravo.via.json").write_bytes(bravo_via)

    config = dict(TOY_CONFIG, data_root=str(data))
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    from fragreel.annotations import events_to_json

    events = parse_via(alpha_via, GameId.CSGO) + parse_via(bravo_via, GameId.CSGO)
    events_path = root / "events.json"
    events_path.write_text(events_to_json(events), encoding="utf-8")

    artifacts = run_pipeline(cfg_path, events_path, root / "run1")
    return {
        "root": root,
        "data": data,
        "config": cfg_path,
        "events": events_path,
        "artifacts": artifacts,
    }


class TestPipelineArtifacts:
    def test_all_artifacts_written(self, env):
        for path in env["artifacts"].values():
            assert path.is_file(), path

    def test_background_events_sampled_to_target(self, env):
        events = events_from_json(env["artifacts"]["backgrounds"].read_bytes())
        assert len(events) == 4
        assert all(e.label is EventLabel.BACKGROUND for e in events)
        assert all(e.end_s - e.start_s == 1.0 for e in events)

    def test_manifest_entries_cover_events_and_backgrounds(self, env):
        manifest = manifest_from_json(env["artifacts"]["manifest"].read_bytes())
        labels = {e.label for e in manifest.entries}
        assert EventLabel.BACKGROUND in labels
        assert EventLabel.KILL in labels
        assert len(manifest.entries) == 7  # 3 annotated events + 4 backgrounds
        assert all(e.split in ("train", "test") for e in manifest.entries)

    def test_history_has_one_line_per_epoch(self, env):
        lines = env["artifacts"]["history"].read_text().splitlines()
        assert len(lines) == TOY_CONFIG["train"]["epochs"]
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["epoch"] == i

    def test_checkpoint_loads_with_run_seed_config(self, env):
        params, header = load_checkpoint(env["artifacts"]["checkpoint"])
        assert header["config"]["encoder"]["d_model"] == 8
        assert params.config.encoder.t_frames == 2

    def test_eval_report_shape(self, env):
        report = json.loads(env["artifacts"]["report"].read_text())
        assert set(report) == {"overall", "per_game", "per_event"}
        assert 0.0 <= report["overall"]["accuracy"] <= 1.0
        assert report["overall"]["n"] == 7
        assert GAME in report["per_game"]

    def test_quantized_artifact_is_smaller(self, env):
        fp32 = env["artifacts"]["checkpoint"].stat().st_size
        quant = env["artifacts"]["quantized"].stat().st_size
        assert quant < fp32

    def test_predictions_are_one_json_line_per_second(self, env):
        lines = env["artifacts"]["predictions"].read_text().splitlines()
        assert len(lines) == 8
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["second"] == i
            assert record["label"] in record["probs"]
            total = sum(record["probs"].values())
            assert abs(total - 1.0) <= 1e-5

    def test_highlights_parse_and_stay_in_session(self, env):
        edl = HighlightEdl.from_json(env["artifacts"]["highlights"].read_text())
        assert edl.source == "alpha.rgbc"
        for cut in edl.cuts:
            assert 0.0 <= cut.start_s < cut.end_s <= 8.0
            assert cut.label in (EventLabel.KILL, EventLabel.DEATH)


class TestReruns:
    def test_rerun_artifacts_byte_identical(self, env):
        again = run_pipeline(env["config"], env["events"], env["root"] / "run2")
        for name, path in env["artifacts"].items():
            assert again[name].read_bytes() == path.read_bytes(), name

    def test_seed_override_changes_sampling(self, env, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["sample-background", "--config", env["config"], "--game", GAME]
        assert run_cli(base + ["--out", out_a]) == 0
        assert run_cli(base + ["--seed", 99, "--out", out_b]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()


class TestFlags:
    def test_target_count_flag_caps_samples(self, env, tmp_path):
        out = tmp_path / "bg.json"
        rc = run_cli([
            "sample-background", "--config", env["config"], "--game", GAME,
            "--target-count", 2, "--out", out,
        ])
        assert rc == 0
        assert len(events_from_json(out.read_bytes())) == 2

    def test_detect_seconds_capped_by_duration(self, env, tmp_path):
        out = tmp_path / "preds.jsonl"
        rc = run_cli([
            "detect", "--config", env["config"],
            "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "bravo.rgbc", "--seconds", 999, "--out", out,
        ])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 16

    def test_detect_accepts_quantized_checkpoint(self, env, tmp_path):
        out = tmp_path / "preds.jsonl"
        rc = run_cli([
            "detect", "--config", env["config"],
            "--checkpoint", env["artifacts"]["quantized"],
            "--game", GAME, "--video", "bravo.rgbc", "--seconds", 2, "--out", out,
        ])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2

    def test_print_prompts_restricted_to_game(self, env, capsys):
        rc = run_cli(["print-prompts", "--config", env["config"], "--game", GAME])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        games = {line.split("\t")[0] for line in lines}
        assert games == {GAME}
        labels = {line.split("\t")[1] for line in lines}
        assert "PowerUse" not in labels

    def test_bench_checks_prompt_cache(self, env, tmp_path):
        out = tmp_path / "bench.json"
        rc = run_cli([
            "bench", "--config", env["config"],
            "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "bravo.rgbc",
            "--seconds", 6, "--subset", 3, "--out", out,
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["encode_calls_subset"] == report["encode_calls_full"]
        assert report["encode_calls_full"] == report["prompt_count"]
        assert len(report["latencies_s"]) == 6
        assert report["latency_mean_s"] > 0.0


class TestCutter:
    def test_highlight_invokes_cutter_per_cut(self, env, tmp_path):
        helper = tmp_path / "cutter.py"
        helper.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            "Path(sys.argv[4]).write_bytes(b'cut:' + ' '.join(sys.argv[1:4]).encode())\n"
        )
        config = json.loads(env["config"].read_text())
        config["cutter"] = f"{sys.executable} {helper} {{input}} {{start}} {{dur}} {{output}}"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        cut_dir = tmp_path / "cuts"
        rc = run_cli([
            "highlight", "--config", cfg_path,
            "--predictions", env["artifacts"]["predictions"],
            "--game", GAME, "--video", "alpha.rgbc", "--session-len", 8,
            "--out", tmp_path / "edl.json", "--cut-dir", cut_dir,
        ])
        assert rc == 0
        edl = HighlightEdl.from_json((tmp_path / "edl.json").read_text())
        produced = sorted(cut_dir.glob("cut_*.rgbc"))
        assert len(produced) == len(edl.cuts)
        if produced:
            assert produced[0].read_bytes().startswith(b"cut:")

    def test_incomplete_cutter_template_rejected(self, env, tmp_path):
        config = json.loads(env["config"].read_text())
        config["cutter"] = "tool {input}"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = run_cli([
            "highlight", "--config", cfg_path,
            "--predictions", env["artifacts"]["predictions"],
            "--game", GAME, "--session-len", 8,
            "--out", tmp_path / "edl.json", "--cut-dir", tmp_path / "cuts",
        ])
        assert rc == 2


class TestExitCodes:
    def test_missing_config_file_is_config_error(self, env, tmp_path):
        rc = run_cli([
            "sample-background", "--config", tmp_path / "absent.json",
            "--game", GAME, "--out", tmp_path / "x.json",
        ])
        assert rc == 2

    def test_unknown_config_key_is_config_error(self, env, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"walrus": 1}))
        rc = run_cli([
            "sample-background", "--config", bad, "--game", GAME,
            "--out", tmp_path / "x.json",
        ])
        assert rc == 2

    def test_unknown_game_is_data_error(self, env, tmp_path):
        rc = run_cli([
            "sample-background", "--config", env["config"], "--game", "Tetris",
            "--out", tmp_path / "x.json",
        ])
        assert rc == 3

    def test_missing_video_is_data_error(self, env, tmp_path):
        rc = run_cli([
            "detect", "--config", env["config"],
            "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "missing.rgbc", "--out", tmp_path / "x",
        ])
        assert rc == 3

    def test_missing_annotations_file_is_data_error(self, env, tmp_path):
        rc = run_cli([
            "build-manifest", "--config", env["config"],
            "--annotations", tmp_path / "absent.json", "--out", tmp_path / "m.json",
        ])
        assert rc == 3

    def test_lying_rgbc_header_is_data_error(self, env, tmp_path):
        game_dir = tmp_path / "data" / GAME
        game_dir.mkdir(parents=True)
        frames = np.zeros((8, 6, 6, 3), dtype=np.uint8)
        blob = write_rgbc(RawClip(frames=frames, fps=Fraction(2)))
        # the header claims 9 frames, the payload holds 8
        (game_dir / "liar.rgbc").write_bytes(blob[:12] + (9).to_bytes(4, "little") + blob[16:])
        rc = run_cli([
            "detect", "--config", env["config"], "--data-root", tmp_path / "data",
            "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "liar.rgbc", "--out", tmp_path / "x",
        ])
        assert rc == 3
        assert not (tmp_path / "x").exists()

    def test_zero_second_session_is_data_error(self, env, tmp_path):
        rc = run_cli([
            "detect", "--config", env["config"],
            "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "bravo.rgbc", "--seconds", 0,
            "--out", tmp_path / "x",
        ])
        assert rc == 3
