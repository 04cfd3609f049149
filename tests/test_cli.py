"""End-to-end command-line pipeline over a synthetic two-video dataset."""

import gc
import json
import logging
import math
import mmap
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import cli_peak_rss_mb, param_count, rewrite_header

import fragreel
from fragreel.annotations import (
    ClipRef,
    DatasetManifest,
    events_from_json,
    manifest_from_json,
    manifest_to_json,
    parse_via,
)
from fragreel.catalogue import EventLabel, GameId
from fragreel.checkpoint import load_checkpoint, save_checkpoint
from fragreel.config import load_run_config
from fragreel import cli, detection, frames
from fragreel.cli import build_parser, main
from fragreel.frames import RawClip, write_rgbc
from fragreel.params import ModelParams
from fragreel.quantize import load_model, quantize_params
from fragreel.textmodel import PromptCache, load_catalogue, prompt_set_for

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
        edl = json.loads(env["artifacts"]["highlights"].read_text())
        assert edl["source"] == "alpha.rgbc"
        for cut in edl["cuts"]:
            assert 0.0 <= cut["start_s"] < cut["end_s"] <= 8.0
            assert cut["label"] in ("Kill", "Death")


class TestReruns:
    def test_rerun_artifacts_byte_identical(self, env):
        again = run_pipeline(env["config"], env["events"], env["root"] / "run2")
        for name, path in env["artifacts"].items():
            assert again[name].read_bytes() == path.read_bytes(), name

    def test_artifacts_do_not_depend_on_jobs(self, env, tmp_path):
        config = json.loads(env["config"].read_text())
        assert config["jobs"] == 1
        config["jobs"] = 2
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        again = run_pipeline(cfg_path, env["events"], tmp_path / "jobs2")
        assert len(again) == 8
        for name, path in env["artifacts"].items():
            assert again[name].read_bytes() == path.read_bytes(), name

    def test_verbose_train_logs_each_step_and_writes_the_same_bytes(self, env, tmp_path,
                                                                     caplog):
        caplog.set_level(logging.INFO, logger="fragreel")
        art = env["artifacts"]
        out = {"checkpoint": tmp_path / "model.xckp", "history": tmp_path / "history.jsonl"}
        assert run_cli(["-v", "train", "--config", env["config"], "--manifest", art["manifest"],
                        "--checkpoint", out["checkpoint"], "--history", out["history"]]) == 0
        step = re.compile(r"train: epoch (\d+) step (\d+) loss (\S+), (\S+) s, max RSS (\d+) MB$")
        lines = [step.match(r.getMessage()) for r in caplog.records if r.name == "fragreel"]
        steps = [m.groups() for m in lines if m]
        manifest = manifest_from_json(art["manifest"].read_text())
        n_train = sum(e.split == "train" for e in manifest.entries)
        per_epoch = -(-n_train // TOY_CONFIG["train"]["batch_size"])
        assert [(int(e), int(s)) for e, s, *_ in steps] == [
            (e, s) for e in range(TOY_CONFIG["train"]["epochs"]) for s in range(per_epoch)
        ]
        for _, _, loss, seconds, rss in steps:
            assert float(loss) > 0 and float(seconds) >= 0 and int(rss) > 0
        for name, path in out.items():
            assert path.read_bytes() == art[name].read_bytes(), name

    def test_seed_override_changes_sampling(self, env, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["sample-background", "--config", env["config"], "--game", GAME]
        assert run_cli(base + ["--out", out_a]) == 0
        assert run_cli(base + ["--seed", 99, "--out", out_b]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()


class TestProgress:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verbose_detect_logs_progress_on_stderr_and_writes_the_same_bytes(
            self, env, tmp_path, jobs):
        src = str(Path(fragreel.__file__).parents[1])
        line = re.compile(
            r"INFO fragreel: detect: (\d+)/8 seconds, \S+ s per second of video, ETA \d+ s$")
        for verbose in ([], ["-v"]):
            preds = tmp_path / f"preds{len(verbose)}.jsonl"
            argv = [*verbose, "detect", "--config", env["config"], "--jobs", jobs,
                    "--checkpoint", env["artifacts"]["checkpoint"], "--game", GAME,
                    "--video", "alpha.rgbc", "--seconds", 8, "--out", preds]
            done = subprocess.run(
                [sys.executable, "-m", "fragreel.cli", *map(str, argv)], capture_output=True,
                text=True, env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120,
            )
            assert done.stdout == ""
            seen = [int(m.group(1)) for m in map(line.match, done.stderr.splitlines()) if m]
            if verbose:
                # A slow machine may add lines before the final one, in order.
                assert seen[-1] == 8 and seen == sorted(set(seen)), done.stderr
            else:
                assert seen == [], done.stderr
            assert preds.read_bytes() == env["artifacts"]["predictions"].read_bytes()


class TestNoScipy:
    def test_no_command_imports_scipy(self, env, tmp_path):
        """Every command runs the toy pipeline in a process where importing
        scipy raises, and writes the bytes it writes with scipy importable."""
        cfg, art = env["config"], env["artifacts"]
        o = {name: tmp_path / path.name for name, path in art.items()}
        commands = [
            ["sample-background", "--config", cfg, "--game", GAME, "--out", o["backgrounds"]],
            ["build-manifest", "--config", cfg, "--annotations", env["events"],
             "--backgrounds", o["backgrounds"], "--out", o["manifest"]],
            ["train", "--config", cfg, "--manifest", o["manifest"],
             "--checkpoint", o["checkpoint"], "--history", o["history"]],
            ["eval", "--config", cfg, "--manifest", o["manifest"],
             "--checkpoint", o["checkpoint"], "--split", "all", "--out", o["report"]],
            ["quantize", "--config", cfg, "--checkpoint", o["checkpoint"],
             "--manifest", o["manifest"], "--out", o["quantized"]],
            ["detect", "--config", cfg, "--checkpoint", o["checkpoint"], "--game", GAME,
             "--video", "alpha.rgbc", "--seconds", 8, "--out", o["predictions"]],
            ["bench", "--config", cfg, "--checkpoint", o["quantized"], "--game", GAME,
             "--video", "bravo.rgbc", "--seconds", 2, "--out", tmp_path / "bench.json"],
            ["highlight", "--config", cfg, "--predictions", o["predictions"],
             "--game", GAME, "--video", "alpha.rgbc", "--targets", "Kill,Death",
             "--session-len", 8, "--out", o["highlights"]],
            ["print-prompts", "--config", cfg, "--game", GAME],
        ]
        script = (
            "import json, sys\n"
            "tried = []\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            tried.append(name)\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from fragreel.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv[0]\n"
            "    assert not tried, (argv[0], tried)\n"
        )
        src = str(Path(fragreel.__file__).parents[1])
        subprocess.run(
            [sys.executable, "-c", script, json.dumps([[str(a) for a in c] for c in commands])],
            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=300,
            stdout=subprocess.DEVNULL,
        )
        for name, path in art.items():
            assert o[name].read_bytes() == path.read_bytes(), name


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
            "--seconds", 6, "--out", out,
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["encode_calls"] == report["prompt_count"]
        assert len(report["latencies_s"]) == 6
        assert report["latency_mean_s"] > 0.0
        assert report["peak_rss_mb"] > 0.0

    def test_bench_encodes_each_second_once(self, env, tmp_path, monkeypatch):
        calls = []
        encode = detection.encode_video
        monkeypatch.setattr(detection, "encode_video", lambda *a: calls.append(1) or encode(*a))
        rc = run_cli([
            "bench", "--config", env["config"],
            "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "bravo.rgbc",
            "--seconds", 6, "--out", tmp_path / "bench.json",
        ])
        assert rc == 0
        assert len(calls) == 6


class TestClipShape:
    """Clips are read at the shape of the model that reads them: the run
    config's encoder for ``train``, the checkpoint's for every command that
    loads one."""

    @staticmethod
    def shapes_read(monkeypatch) -> set:
        """The (t_frames, side) of every clip preprocessed from now on."""
        shapes = set()
        preprocess_clip = frames.preprocess_clip

        def spy(source, cfg):
            shapes.add((cfg.t_frames, cfg.side))
            return preprocess_clip(source, cfg)

        monkeypatch.setattr(frames, "preprocess_clip", spy)
        return shapes

    @staticmethod
    def config_with_encoder(env, tmp_path, **shape) -> Path:
        """The pipeline's run config with no preprocess section, for an encoder of ``shape``."""
        config = json.loads(env["config"].read_text())
        del config["preprocess"]
        config["encoder"] = dict(config["encoder"], **shape)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    @pytest.mark.parametrize("shape", [{"side": 8}, {"t_frames": 3}], ids=["side", "t_frames"])
    @pytest.mark.parametrize("command", ["detect", "bench", "eval", "quantize"])
    def test_a_checkpoint_is_read_at_its_own_shape(self, env, tmp_path, monkeypatch,
                                                   command, shape):
        """A run config for another clip shape than the checkpoint's changes
        nothing: the command exits 0 and writes what it writes under a run
        config that matches the checkpoint."""
        unlike = self.config_with_encoder(env, tmp_path, **shape)
        shapes = self.shapes_read(monkeypatch)
        if command == "eval":
            argv = ["eval", "--manifest", env["artifacts"]["manifest"], "--split", "all"]
        elif command == "quantize":
            argv = ["quantize", "--manifest", env["artifacts"]["manifest"]]
        else:
            argv = [command, "--game", GAME, "--video", "bravo.rgbc", "--seconds", 2]
        written = {}
        for name, cfg_path in (("like", env["config"]), ("unlike", unlike)):
            shapes.clear()
            out = tmp_path / f"{name}.out"
            rc = run_cli([*argv, "--config", cfg_path,
                          "--checkpoint", env["artifacts"]["checkpoint"], "--out", out])
            assert rc == 0
            assert shapes == {(2, 4)}
            written[name] = out.read_bytes()
        if command == "bench":  # its timings differ from run to run
            keys = ("seconds", "prompt_count", "encode_calls")
            like, unlike = (json.loads(written[name]) for name in ("like", "unlike"))
            assert [like[k] for k in keys] == [unlike[k] for k in keys]
        else:
            assert written["like"] == written["unlike"]

    def test_train_and_detect_read_clips_at_the_run_configs_encoder(self, env, tmp_path,
                                                                    monkeypatch):
        cfg_path = self.config_with_encoder(env, tmp_path, t_frames=3, side=8)
        shapes = self.shapes_read(monkeypatch)
        checkpoint = tmp_path / "model.xckp"
        rc = run_cli(["train", "--config", cfg_path, "--manifest", env["artifacts"]["manifest"],
                      "--checkpoint", checkpoint])
        assert rc == 0
        assert shapes == {(3, 8)}
        encoder = load_checkpoint(checkpoint)[0].config.encoder
        assert (encoder.t_frames, encoder.side) == (3, 8)
        shapes.clear()
        rc = run_cli(["detect", "--config", cfg_path, "--checkpoint", checkpoint,
                      "--game", GAME, "--video", "bravo.rgbc", "--seconds", 2,
                      "--out", tmp_path / "preds.jsonl"])
        assert rc == 0
        assert shapes == {(3, 8)}


class TestTextRelease:
    """`detect` and `bench` drop the text encoder once the prompt cache is filled."""

    def session(self, env, tmp_path, checkpoint, config=None):
        """``cli._session`` of a 2-second `detect` of bravo.rgbc and its
        predictions at ``jobs=2``."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config or json.loads(env["config"].read_text())))
        args = build_parser().parse_args([str(a) for a in [
            "detect", "--config", cfg_path, "--checkpoint", checkpoint, "--game", GAME,
            "--video", "bravo.rgbc", "--seconds", 2, "--out", tmp_path / "p.jsonl"]])
        params, qctx, prompt_set, cache, clips = cli._session(args, load_run_config(str(cfg_path)))
        preds = detection.classify_session(clips, prompt_set, params, cache, qctx, jobs=2)
        return params, qctx, prompt_set, cache, clips, preds

    def wide_text_model(self, env, tmp_path):
        """A toy model whose text encoder holds most of its bytes, and its
        run config; the checkpoint is saved as fp32."""
        config = dict(json.loads(env["config"].read_text()),
                      text={"d_text": 128, "n_heads": 2, "n_layers": 4, "d_ffn": 512,
                            "prompt_heads": 2})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        model = ModelParams.init(load_run_config(str(cfg_path)).model_config, seed=0)
        save_checkpoint(tmp_path / "m.xckp", model, epoch=0, val_accuracy=None)
        return model, config

    def test_the_fill_drops_the_text_tensors_and_predictions_stay(self, env, tmp_path):
        checkpoint = env["artifacts"]["checkpoint"]
        params, qctx, prompt_set, cache, clips, preds = self.session(env, tmp_path, checkpoint)
        assert params.names()
        assert not [name for name in params.names() if name.startswith("text.")]
        with pytest.raises(KeyError):
            params["text.proj"]
        assert cache.encode_calls == len(prompt_set.prompts)
        assert detection.classify_session(clips, prompt_set, params, cache, qctx) == preds
        assert cache.encode_calls == len(prompt_set.prompts)
        full, _ = load_model(checkpoint)
        assert preds == detection.classify_session(clips, prompt_set, full, PromptCache())

    def test_fp32_text_group_is_unmapped(self, env, tmp_path):
        """The bytes this process maps from the checkpoint cover every group
        after the load and all but the text group after the fill, give or
        take a page per group."""
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps")
        model, config = self.wide_text_model(env, tmp_path)
        path = tmp_path / "m.xckp"
        spans = {}
        for name, entry in load_checkpoint(path)[1]["tensors"].items():
            group = name.split(".")[0]
            end = entry["offset"] + 4 * math.prod(entry["shape"])
            first, last = spans.get(group, (entry["offset"], end))
            spans[group] = (min(first, entry["offset"]), max(last, end))
        size = {group: last - first for group, (first, last) in spans.items()}
        slack = 2 * mmap.PAGESIZE * len(size)
        assert size["text"] > 10 * slack  # the text group is most of the file
        loaded = load_model(path)
        assert abs(mapped_bytes(path) - sum(size.values())) <= slack
        del loaded
        session = self.session(env, tmp_path, path, config)
        gc.collect()
        assert abs(mapped_bytes(path) - (sum(size.values()) - size["text"])) <= slack
        assert session[0].names() == [n for n in model.names() if not n.startswith("text.")]

    def test_int8_dequantized_text_tensors_are_freed(self, env, tmp_path):
        model, config = self.wide_text_model(env, tmp_path)
        path = tmp_path / "m.xckq"
        prompt_set = prompt_set_for(GameId.CSGO, load_catalogue())
        quantize_params(model, {}, path, [np.zeros((2, 4, 4, 3), np.float32)], [prompt_set])
        text_bytes = 4 * param_count(model.config, "text_encoder")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_model(path)
            whole = tracemalloc.get_traced_memory()[0] - before
            del loaded
            session = self.session(env, tmp_path, path, config)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert session[0].names()
        # the rest of the session (file buffer, cache, clips) is a few percent
        assert whole - kept == pytest.approx(text_bytes, rel=0.05)


def mapped_bytes(path) -> int:
    """Bytes of the file at ``path`` that this process maps."""
    target = str(Path(path).resolve())
    total = 0
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split(None, 5)
            if len(fields) == 6 and fields[5].rstrip("\n") == target:
                low, high = (int(x, 16) for x in fields[0].split("-"))
                total += high - low
    return total


class TestPlatforms:
    def test_bench_reports_its_own_peak_rss_not_its_parents(self, env, tmp_path):
        """On Linux, ``ru_maxrss`` keeps the parent's high-water mark across
        ``exec``; `bench` reports its own, from VmHWM."""
        ballast_mb = 300
        ballast = np.ones(ballast_mb << 20, dtype=np.uint8)  # resident in this process
        out = tmp_path / "bench.json"
        try:
            own = cli_peak_rss_mb([
                "bench", "--config", env["config"], "--checkpoint", env["artifacts"]["checkpoint"],
                "--game", GAME, "--video", "bravo.rgbc", "--seconds", 2, "--out", out,
            ], tmp_path)
        finally:
            del ballast
        reported = json.loads(out.read_text())["peak_rss_mb"]
        # VmHWM is read before and after the report's last allocations
        assert reported == pytest.approx(own, rel=0.2)
        assert 0 < reported < ballast_mb / 2

    def test_peak_rss_falls_back_to_rusage_then_to_none(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "no-status")
        assert cli._peak_rss_mb(missing) > 0
        monkeypatch.setattr(cli, "resource", None)
        assert cli._peak_rss_mb(missing) is None

    def test_detect_and_bench_run_without_resource_or_affinity(self, env, tmp_path):
        """Windows has neither the resource module nor os.sched_getaffinity."""
        art = env["artifacts"]
        preds = tmp_path / "preds.jsonl"
        bench = tmp_path / "bench.json"
        commands = [
            ["detect", "--config", env["config"], "--jobs", 2, "--checkpoint", art["checkpoint"],
             "--game", GAME, "--video", "alpha.rgbc", "--seconds", 8, "--out", preds],
            ["bench", "--config", env["config"], "--checkpoint", art["checkpoint"],
             "--game", GAME, "--video", "bravo.rgbc", "--seconds", 2, "--out", bench],
        ]
        script = (
            "import importlib.abc, json, os, sys\n"
            "class NoResource(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name == 'resource':\n"
            "            raise ModuleNotFoundError(name)\n"
            "sys.meta_path.insert(0, NoResource())\n"
            "del os.sched_getaffinity\n"
            "from fragreel.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv[0]\n"
            "assert 'resource' not in sys.modules\n"
        )
        src = str(Path(fragreel.__file__).parents[1])
        subprocess.run(
            [sys.executable, "-c", script, json.dumps([[str(a) for a in c] for c in commands])],
            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120,
        )
        assert preds.read_bytes() == art["predictions"].read_bytes()
        report = json.loads(bench.read_text())
        assert report["encode_calls"] == report["prompt_count"]


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
        edl = json.loads((tmp_path / "edl.json").read_text())
        produced = sorted(cut_dir.glob("cut_*.rgbc"))
        assert len(produced) == len(edl["cuts"])
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


def kill_predictions(path: Path, seconds: int = 3) -> Path:
    """Predictions that call every second a confident Kill, so highlight cuts."""
    probs = {"Background": 0.1, "Kill": 0.9}
    lines = [json.dumps({"second": i, "label": "Kill", "probability": 0.9, "probs": probs})
             for i in range(seconds)]
    path.write_text("\n".join(lines) + "\n")
    return path


# Each is malformed once filled in as a decoder or a cutter template.
BAD_TEMPLATES = pytest.mark.parametrize("key, template", [
    ("decoder", "ffmpeg -i {input}"),
    ("decoder", "dec {input} {start} {dur} {x}"),
    ("decoder", "dec {input} {start} {dur} {"),
    ("decoder", 'dec {input} {start} {dur} "'),
    ("cutter", "tool {input}"),
    ("cutter", "tool {input} {start} {dur} {output} {extra}"),
    ("cutter", "tool {input} {start} {dur} {output} {"),
    ("cutter", 'tool {input} {start} {dur} {output} "'),
], ids=["decoder_missing", "decoder_unknown", "decoder_lone_brace", "decoder_open_quote",
        "cutter_missing", "cutter_unknown", "cutter_lone_brace", "cutter_open_quote"])


class TestCommandTemplates:
    @BAD_TEMPLATES
    def test_bad_template_is_config_error_before_any_write(self, env, tmp_path, capsys,
                                                           key, template):
        config = json.loads(env["config"].read_text())
        config[key] = template
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        if key == "decoder":
            argv = ["sample-background", "--config", cfg_path, "--game", GAME, "--out", out]
        else:
            argv = ["highlight", "--config", cfg_path,
                    "--predictions", kill_predictions(tmp_path / "preds.jsonl"),
                    "--game", GAME, "--out", out, "--cut-dir", tmp_path / "cuts"]
        rc = run_cli(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and key in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "cuts").exists()

    def test_failing_cutter_is_data_error_naming_its_command_line(self, env, tmp_path, capsys):
        helper = tmp_path / "cutter.py"
        helper.write_text("import sys\nsys.exit(4)\n")
        config = json.loads(env["config"].read_text())
        config["cutter"] = f"{sys.executable} {helper} {{input}} {{start}} {{dur}} {{output}}"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = run_cli([
            "highlight", "--config", cfg_path,
            "--predictions", kill_predictions(tmp_path / "preds.jsonl"),
            "--game", GAME, "--video", "alpha.rgbc", "--session-len", 3,
            "--out", tmp_path / "edl.json", "--cut-dir", tmp_path / "cuts",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        first_cut = tmp_path / "cuts" / "cut_0000.rgbc"
        argv = [sys.executable, str(helper), "alpha.rgbc", "0.0", "3.0", str(first_cut)]
        assert f"cutter exited 4: {shlex.join(argv)}" in err


    def test_cutter_failing_part_way_leaves_no_list(self, env, tmp_path, capsys):
        helper = tmp_path / "cutter.py"
        helper.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            "if sys.argv[4].endswith('cut_0001.rgbc'):\n"
            "    sys.exit(4)\n"
            "Path(sys.argv[4]).write_bytes(b'cut')\n"
        )
        config = json.loads(env["config"].read_text())
        config["cutter"] = f"{sys.executable} {helper} {{input}} {{start}} {{dur}} {{output}}"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        # Kill at seconds 0 and 10 only: two cuts, [0, 4] and [6, 14]
        preds = tmp_path / "preds.jsonl"
        lines = []
        for i in range(14):
            label, p = ("Kill", 0.9) if i in (0, 10) else ("Background", 0.6)
            lines.append(json.dumps({"second": i, "label": label, "probability": p,
                                     "probs": {"Background": 1 - p, "Kill": p}}))
        preds.write_text("\n".join(lines) + "\n")
        rc = run_cli([
            "highlight", "--config", cfg_path, "--predictions", preds,
            "--game", GAME, "--video", "alpha.rgbc", "--session-len", 14,
            "--out", tmp_path / "edl.json", "--cut-dir", tmp_path / "cuts",
        ])
        assert rc == 3
        assert "cutter exited 4" in capsys.readouterr().err
        assert (tmp_path / "cuts" / "cut_0000.rgbc").exists()  # the first cut was made
        assert not (tmp_path / "edl.json").exists()


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

    @pytest.mark.parametrize("command", ["sample-background", "detect", "highlight",
                                         "print-prompts"])
    def test_unknown_game_is_config_error(self, env, tmp_path, capsys, command):
        args = {
            "sample-background": ["--out", tmp_path / "x.json"],
            "detect": ["--checkpoint", tmp_path / "absent.xckp", "--video", "alpha.rgbc",
                       "--out", tmp_path / "x.jsonl"],
            "highlight": ["--predictions", env["artifacts"]["predictions"],
                          "--video", "alpha.rgbc", "--out", tmp_path / "x.json"],
            "print-prompts": [],
        }[command]
        rc = run_cli([command, "--config", env["config"], "--game", "Tetris", *args])
        assert rc == 2
        assert "--game 'Tetris'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("side", [65535, 2**31], ids=["64k", "2^31"])
    def test_decoder_header_over_the_side_limit_is_data_error_naming_the_command(
            self, env, tmp_path, capsys, side):
        """The frame buffer is allocated from the header, so a side over the
        limit is refused before that allocation, with no traceback."""
        data = tmp_path / "data"
        (data / GAME).mkdir(parents=True)
        (data / GAME / "v.mp4").write_bytes(b"")
        helper = tmp_path / "decode.py"
        helper.write_text("import struct, sys\n"
                          f"sys.stdout.buffer.write(b'RGBC' + struct.pack('<5I', {side}, {side}, 30, 30, 1))\n")
        config = dict(json.loads(env["config"].read_text()), data_root=str(data),
                      decoder=f"{sys.executable} {helper} {{input}} {{start}} {{dur}}")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        manifest = tmp_path / "manifest.json"
        entry = ClipRef(video="v.mp4", clip_start_s=0.0, label=EventLabel.KILL, game=GameId.CSGO,
                        split="test")
        manifest.write_text(manifest_to_json(DatasetManifest(seed=0, entries=(entry,))))
        rc = run_cli(["eval", "--config", cfg_path, "--manifest", manifest,
                      "--checkpoint", env["artifacts"]["checkpoint"], "--out", tmp_path / "r.json"])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"decoder {shlex.join([sys.executable, str(helper)])} " in err
        assert f"RGBC header declares {side} x {side} pixels" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_checkpoint_magic_is_data_error_naming_the_file(self, env, tmp_path, capsys):
        ckpt = tmp_path / "model.bin"
        ckpt.write_bytes(b"NOTCK" + bytes(16))
        rc = run_cli([
            "detect", "--config", env["config"], "--checkpoint", ckpt,
            "--game", GAME, "--video", "bravo.rgbc", "--out", tmp_path / "x",
        ])
        assert rc == 3
        assert f"{ckpt}: unrecognized checkpoint magic" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["detect", "quantize"])
    @pytest.mark.parametrize("damage, message", [
        ("empty", "(unrecognized checkpoint magic|not a XCKP1 checkpoint)"),
        ("cut_in_header", "file ends inside its header"),
        ("misaligned_offset", "tensor 'video.pos' has offset .*, not a multiple of its itemsize 4"),
        ("version_2", "unsupported format version 2"),
        ("version_3", "unsupported format version 3"),
    ], ids=["empty", "cut_in_header", "misaligned_offset", "version_2", "version_3"])
    def test_malformed_checkpoint_is_data_error_naming_the_file(self, env, tmp_path, capsys,
                                                                 command, damage, message):
        ckpt = tmp_path / "model.xckp"
        blob = env["artifacts"]["checkpoint"].read_bytes()
        if damage == "empty":
            ckpt.write_bytes(b"")
        elif damage == "cut_in_header":
            ckpt.write_bytes(blob[:40])
        elif damage.startswith("version_"):
            ckpt.write_bytes(blob[:5] + struct.pack("<I", int(damage[-1])) + blob[9:])
        else:
            ckpt.write_bytes(blob)
            rewrite_header(ckpt, lambda h: h["tensors"]["video.pos"].update(
                offset=h["tensors"]["video.pos"]["offset"] + 2))
        common = ["--config", env["config"], "--checkpoint", ckpt, "--out", tmp_path / "x"]
        if command == "detect":
            rc = run_cli(["detect", *common, "--game", GAME, "--video", "bravo.rgbc"])
        else:
            rc = run_cli(["quantize", *common, "--manifest", env["artifacts"]["manifest"]])
        assert rc == 3
        assert re.search(f"{re.escape(str(ckpt))}: {message}", capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_zero_second_session_is_data_error(self, env, tmp_path, capsys):
        # one frame at 2 fps: half a second, so no whole second to classify
        game_dir = tmp_path / "data" / GAME
        game_dir.mkdir(parents=True)
        frames = np.zeros((1, 6, 6, 3), dtype=np.uint8)
        (game_dir / "half.rgbc").write_bytes(write_rgbc(RawClip(frames=frames, fps=Fraction(2))))
        rc = run_cli([
            "detect", "--config", env["config"], "--data-root", tmp_path / "data",
            "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "half.rgbc", "--out", tmp_path / "x",
        ])
        assert rc == 3
        assert "half.rgbc: no whole second to classify" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seconds", [0, -1])
    @pytest.mark.parametrize("command", ["detect", "bench"])
    def test_seconds_below_one_is_config_error_before_the_checkpoint_loads(
            self, env, tmp_path, capsys, monkeypatch, command, seconds):
        def no_load(path):
            raise AssertionError("the checkpoint was loaded")

        monkeypatch.setattr(cli, "load_model", no_load)
        rc = run_cli([
            command, "--config", env["config"], "--checkpoint", env["artifacts"]["checkpoint"],
            "--game", GAME, "--video", "bravo.rgbc", "--seconds", seconds,
            "--out", tmp_path / "x",
        ])
        assert rc == 2
        assert f"--seconds must be at least 1, got {seconds}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("targets, label", [("Kill,Nope", "Nope"), ("PowerUse", "PowerUse")],
                             ids=["unknown", "other_game"])
    def test_target_not_valid_for_the_game_is_config_error_before_any_write(
            self, env, tmp_path, capsys, targets, label):
        cut_dir = tmp_path / "cuts"
        config = dict(json.loads(env["config"].read_text()),
                      cutter=f"{sys.executable} -c pass {{input}} {{start}} {{dur}} {{output}}")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = run_cli([
            "highlight", "--config", cfg_path, "--predictions", env["artifacts"]["predictions"],
            "--game", GAME, "--targets", targets, "--cut-dir", cut_dir,
            "--out", tmp_path / "h.json",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--targets: label {label!r} is not valid for game 'CSGO'" in err
        assert not (tmp_path / "h.json").exists()
        assert not cut_dir.exists()

    @pytest.mark.parametrize("targets", ["", " , ", "Background", "background,Background"],
                             ids=["empty", "blank", "background", "background_twice"])
    def test_targets_without_a_target_event_are_config_error(self, env, tmp_path, capsys,
                                                             targets):
        rc = run_cli([
            "highlight", "--config", env["config"],
            "--predictions", env["artifacts"]["predictions"],
            "--game", GAME, "--targets", targets, "--out", tmp_path / "h.json",
        ])
        assert rc == 2
        assert f"--targets {targets!r} names no target event" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()

    @pytest.mark.parametrize("bad_line", [
        "{not json",
        json.dumps({"second": 1, "label": "Kill", "probability": 0.9}),
        json.dumps({"second": 1, "label": "Teabag", "probability": 0.9, "probs": {"Kill": 0.9}}),
    ], ids=["invalid_json", "no_probs", "unknown_label"])
    def test_malformed_predictions_are_data_error(self, env, tmp_path, capsys, bad_line):
        good = env["artifacts"]["predictions"].read_text().splitlines()[0]
        preds = tmp_path / "preds.jsonl"
        preds.write_text(f"{good}\n{bad_line}\n")
        rc = run_cli([
            "highlight", "--config", env["config"], "--predictions", preds,
            "--game", GAME, "--targets", "Kill", "--out", tmp_path / "h.json",
        ])
        assert rc == 3
        assert f"{preds}, line 2" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()

    def test_probability_outside_unit_interval_names_file_and_line(self, env, tmp_path, capsys):
        good = env["artifacts"]["predictions"].read_text().splitlines()[0]
        bad = json.dumps({"second": 1, "label": "Kill", "probability": 1.5, "probs": {"Kill": 1.5}})
        preds = tmp_path / "preds.jsonl"
        preds.write_text(f"{good}\n{bad}\n")
        rc = run_cli([
            "highlight", "--config", env["config"], "--predictions", preds,
            "--game", GAME, "--targets", "Kill", "--out", tmp_path / "h.json",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"{preds}, line 2" in err
        assert "probability 1.5 outside [0, 1]" in err
        assert not (tmp_path / "h.json").exists()

    @pytest.mark.parametrize("seconds, named", [
        ([0, 1, 2, 103, 104, 105, 106, 107], "second 3 is missing"),
        ([0, 0, 1, 2], "second 0 is repeated"),
        ([-1, 0, 1, 2], "second -1 is negative"),
    ], ids=["gap", "repeat", "negative"])
    def test_predictions_must_number_seconds_from_zero(self, env, tmp_path, capsys,
                                                       seconds, named):
        preds = tmp_path / "preds.jsonl"
        lines = []
        for s in seconds:
            label, p = ("Kill", 0.9) if s == 105 else ("Background", 0.6)
            lines.append(json.dumps({"second": s, "label": label, "probability": p,
                                     "probs": {"Background": 1 - p, "Kill": p}}))
        preds.write_text("\n".join(lines) + "\n")
        rc = run_cli([
            "highlight", "--config", env["config"], "--predictions", preds,
            "--game", GAME, "--targets", "Kill", "--out", tmp_path / "h.json",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"{preds}: seconds must run 0..{len(seconds) - 1}, but {named}" in err
        assert not (tmp_path / "h.json").exists()

    @pytest.mark.parametrize("sampler",
                             [{"max_retries": 0}, {"buffer_secs": -1}, {"target_count": -3}],
                             ids=["max_retries", "buffer_secs", "target_count"])
    def test_bad_sampler_setting_is_config_error(self, env, tmp_path, sampler):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(TOY_CONFIG, data_root=str(env["data"]), sampler=sampler)))
        rc = run_cli([
            "sample-background", "--config", bad, "--game", GAME,
            "--out", tmp_path / "x.json",
        ])
        assert rc == 2

    def test_negative_target_count_flag_is_config_error(self, env, tmp_path, capsys):
        rc = run_cli([
            "sample-background", "--config", env["config"], "--game", GAME,
            "--target-count", -3, "--out", tmp_path / "x.json",
        ])
        assert rc == 2
        assert "target_count" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_cut_dir_without_cutter_is_config_error(self, env, tmp_path, capsys):
        rc = run_cli([
            "highlight", "--config", env["config"],
            "--predictions", env["artifacts"]["predictions"],
            "--game", GAME, "--session-len", 8,
            "--out", tmp_path / "edl.json", "--cut-dir", tmp_path / "cuts",
        ])
        assert rc == 2
        assert "`cutter`" in capsys.readouterr().err
        assert not (tmp_path / "edl.json").exists()
        assert not (tmp_path / "cuts").exists()

    @pytest.mark.parametrize("length", [-5, 0, "nan", "inf"])
    def test_bad_session_len_is_config_error_before_any_write(self, env, tmp_path, capsys,
                                                                length):
        config = json.loads(env["config"].read_text())
        config["cutter"] = f"{sys.executable} -c pass {{input}} {{start}} {{dur}} {{output}}"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = run_cli([
            "highlight", "--config", cfg_path,
            "--predictions", env["artifacts"]["predictions"],
            "--game", GAME, "--session-len", length,
            "--out", tmp_path / "edl.json", "--cut-dir", tmp_path / "cuts",
        ])
        assert rc == 2
        assert "--session-len" in capsys.readouterr().err
        assert not (tmp_path / "edl.json").exists()
        assert not (tmp_path / "cuts").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train", "label", "PowerUse"),
        ("eval", "clip_start_s", float("nan")),
        ("eval", "clip_start_s", -1.0),
        ("train", "split", "val"),
        ("train", "video", 5),
        ("eval", "video", ""),
        ("train", "clip_start_s", "5"),
        ("eval", "clip_start_s", True),
    ], ids=["label_not_in_game", "nan_start", "negative_start", "unknown_split",
            "numeric_video", "empty_video", "string_start", "bool_start"])
    def test_bad_manifest_entry_is_data_error_naming_the_file(self, env, tmp_path, capsys,
                                                              command, key, value):
        payload = json.loads(env["artifacts"]["manifest"].read_text())
        payload["entries"][0][key] = value
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = [command, "--config", env["config"], "--manifest", manifest]
        if command == "train":
            argv += ["--checkpoint", out]
        else:
            argv += ["--checkpoint", env["artifacts"]["checkpoint"], "--split", "all",
                     "--out", out]
        rc = run_cli(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert f"fragreel: {manifest}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("start", [30.0, 1e6])
    def test_manifest_start_past_video_end_is_data_error_naming_the_video(self, env, tmp_path,
                                                                          capsys, start):
        payload = json.loads(env["artifacts"]["manifest"].read_text())
        payload["entries"] = [dict(payload["entries"][0], video="alpha.rgbc", clip_start_s=start)]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        rc = run_cli([
            "eval", "--config", env["config"], "--manifest", manifest,
            "--checkpoint", env["artifacts"]["checkpoint"], "--split", "all", "--out", out,
        ])
        assert rc == 3
        video = env["data"] / GAME / "alpha.rgbc"
        assert f"fragreel: {video}: clip starts at {start}s" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [{"video": "missing.rgbc"},
                                     {"video": "alpha.rgbc", "clip_start_s": 30.0}],
                             ids=["missing_video", "start_past_end"])
    def test_bad_last_train_entry_stops_train_before_any_step_or_write(self, env, tmp_path,
                                                                        capsys, caplog, bad):
        caplog.set_level(logging.INFO, logger="fragreel")
        payload = json.loads(env["artifacts"]["manifest"].read_text())
        last = max(i for i, e in enumerate(payload["entries"]) if e["split"] == "train")
        payload["entries"][last].update(bad)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        out = {"checkpoint": tmp_path / "model.xckp", "history": tmp_path / "history.jsonl"}
        rc = run_cli(["-v", "train", "--config", env["config"], "--manifest", manifest,
                      "--checkpoint", out["checkpoint"], "--history", out["history"]])
        assert rc == 3
        assert bad["video"] in capsys.readouterr().err
        assert not [r for r in caplog.records if r.getMessage().startswith("train: epoch")]
        assert not out["checkpoint"].exists() and not out["history"].exists()

    def test_events_video_not_a_string_is_data_error_naming_the_file(self, env, tmp_path, capsys):
        events = json.loads(env["events"].read_text())
        events[0]["video"] = 5
        path = tmp_path / "events.json"
        path.write_text(json.dumps(events))
        rc = run_cli([
            "build-manifest", "--config", env["config"], "--annotations", path,
            "--out", tmp_path / "m.json",
        ])
        assert rc == 3
        assert f"fragreel: {path}: video name must be a non-empty string" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_events_label_not_in_game_is_data_error_naming_the_file(self, env, tmp_path, capsys):
        events = json.loads(env["events"].read_text())
        events[0]["label"] = "PowerUse"  # not a CSGO event
        path = tmp_path / "events.json"
        path.write_text(json.dumps(events))
        rc = run_cli([
            "build-manifest", "--config", env["config"], "--annotations", path,
            "--out", tmp_path / "m.json",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"fragreel: {path}: label 'PowerUse' is not valid for game 'CSGO'" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("span", [["x", 2.0], 5], ids=["non_numeric", "not_a_list"])
    def test_bad_via_span_is_data_error(self, env, tmp_path, span):
        game_dir = tmp_path / "data" / GAME
        game_dir.mkdir(parents=True)
        frames = np.zeros((8, 6, 6, 3), dtype=np.uint8)
        (game_dir / "clip.rgbc").write_bytes(write_rgbc(RawClip(frames=frames, fps=Fraction(2))))
        metadata = {"m": {"vid": "1", "z": span, "av": {"1": "Kill"}}}
        (game_dir / "clip.via.json").write_text(
            json.dumps({"file": {"1": {"fname": "clip.rgbc"}}, "metadata": metadata})
        )
        rc = run_cli([
            "sample-background", "--config", env["config"], "--data-root", tmp_path / "data",
            "--game", GAME, "--out", tmp_path / "x.json",
        ])
        assert rc == 3


class TestLongInput:
    def test_detect_peak_rss_does_not_grow_with_the_session(self, tmp_path):
        """A 16-second 1080p session peaks at the RSS of a 2-second one: a
        second holds one source frame, and no page of the file stays."""
        height, width, fps = 1080, 1920, 30
        frame_mb = height * width * 3 / 2**20
        game_dir = tmp_path / "data" / GAME
        game_dir.mkdir(parents=True)
        with open(game_dir / "long.rgbc", "wb") as fh:  # all holes on disk
            fh.write(b"RGBC" + struct.pack("<5I", width, height, 16 * fps, fps, 1))
            fh.truncate(24 + 16 * fps * height * width * 3)
        tiny = {"t_frames": 2, "side": 16}
        config = dict(TOY_CONFIG, data_root=str(tmp_path / "data"), preprocess=tiny,
                      encoder=dict(TOY_CONFIG["encoder"], patch=8, **tiny))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        model = ModelParams.init(load_run_config(str(cfg_path)).model_config, seed=0)
        save_checkpoint(tmp_path / "m.xckp", model, epoch=0, val_accuracy=None)
        peaks = {
            seconds: cli_peak_rss_mb([
                "detect", "--config", cfg_path, "--checkpoint", tmp_path / "m.xckp",
                "--jobs", 1, "--game", GAME, "--video", "long.rgbc", "--seconds", seconds,
                "--out", tmp_path / f"preds-{seconds}.jsonl",
            ], tmp_path)
            for seconds in (2, 16)
        }
        assert len((tmp_path / "preds-16.jsonl").read_text().splitlines()) == 16
        # one second's selected frames, 11.9 MB; a session read through a map
        # of the file grows by about 33 MB from 2 to 16 seconds
        assert peaks[16] - peaks[2] < tiny["t_frames"] * frame_mb, peaks


class TestLongManifest:
    """``eval`` and ``train`` read each clip where they classify or train on
    it, so their peak RSS grows by about ``jobs`` clips, not by the split."""

    SHAPE = {"t_frames": 8, "side": 128}
    CLIP_MB = 8 * 128 * 128 * 3 * 4 / 2**20  # one preprocessed float32 clip, 1.5 MB

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("long-manifest")
        game_dir = root / "data" / GAME
        game_dir.mkdir(parents=True)
        side, fps, seconds = self.SHAPE["side"], 8, 33
        with open(game_dir / "long.rgbc", "wb") as fh:  # all holes on disk
            fh.write(b"RGBC" + struct.pack("<5I", side, side, seconds * fps, fps, 1))
            fh.truncate(24 + seconds * fps * side * side * 3)
        config = dict(TOY_CONFIG, data_root=str(root / "data"), preprocess=self.SHAPE,
                      encoder=dict(TOY_CONFIG["encoder"], patch=16, **self.SHAPE),
                      train={"epochs": 1, "batch_size": 1}, jobs=2)
        cfg_path = root / "config.json"
        cfg_path.write_text(json.dumps(config))
        model = ModelParams.init(load_run_config(str(cfg_path)).model_config, seed=0)
        save_checkpoint(root / "m.xckp", model, epoch=0, val_accuracy=None)
        return root, cfg_path

    @staticmethod
    def manifest(root, clips: int) -> Path:
        """``clips`` one-second entries of the video, every fourth one a test entry."""
        labels = (EventLabel.KILL, EventLabel.DEATH, EventLabel.BACKGROUND)
        entries = tuple(
            ClipRef("long.rgbc", float(i), labels[i % 3], GameId.CSGO,
                    "test" if i % 4 == 3 else "train")
            for i in range(clips)
        )
        path = root / f"manifest-{clips}.json"
        path.write_text(manifest_to_json(DatasetManifest(seed=0, entries=entries)))
        return path

    def peak_growth_mb(self, data, tmp_path, command) -> float:
        root, cfg_path = data
        peaks = {}
        for clips in (4, 32):
            argv = [command, "--config", cfg_path, "--manifest", self.manifest(root, clips)]
            if command == "train":
                argv += ["--checkpoint", tmp_path / f"m-{clips}.xckp"]
            else:
                argv += ["--checkpoint", root / "m.xckp", "--split", "all",
                         "--out", tmp_path / f"report-{clips}.json"]
            peaks[clips] = cli_peak_rss_mb(argv, tmp_path)
        return peaks[32] - peaks[4]

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_peak_rss_grows_by_about_jobs_clips_from_4_to_32(self, data, tmp_path, command):
        growth = self.peak_growth_mb(data, tmp_path, command)
        # holding every clip of the split grows by 28 clips, 42 MB
        assert growth < (2 + 2) * self.CLIP_MB, f"{growth:.1f} MB"
