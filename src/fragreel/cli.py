"""Command-line entry point.

Subcommands wire the library into a reproducible pipeline: background
sampling, manifest building, finetuning, evaluation, quantization,
per-second detection, highlight-list emission, a latency benchmark, and a
prompt audit. Every run resolves one config (file plus flag overrides) and
one root seed, and logs both; artifacts are serialized deterministically so
identical runs produce identical bytes.

Exit codes: 0 success, 2 configuration errors (including bad flags),
3 data errors (missing or malformed inputs).
"""

from __future__ import annotations

import argparse
import json
import logging
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import background
from .annotations import (
    build_manifest,
    events_from_json,
    events_to_json,
    manifest_from_json,
    manifest_to_json,
    parse_via,
)
from .catalogue import EventLabel, GameId, parse_game, parse_label
from .checkpoint import MAGIC_FP32, MAGIC_QUANT, load_checkpoint
from .config import RunConfig, describe, load_run_config
from .detection import (
    HighlightEdl,
    SecondPrediction,
    build_edl,
    classify_session,
    slide_windows,
)
from .errors import ConfigError, DataError, DataResolutionError, EmptyInput, FragreelError
from .frames import ClipStore, DecoderSource, preprocess_clip, read_rgbc_file
from .metrics import evaluation_report
from .parallel import blas_threads, worker_plan
from .params import ModelParams
from .quantize import load_quantized_model, quantize_model
from .textmodel import PromptCache, load_catalogue, prompt_set_for
from .training import eval_records, materialize_examples, train

logger = logging.getLogger("fragreel")


def _write_text(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _store(run: RunConfig) -> ClipStore:
    decoder = DecoderSource(run.decoder, max_procs=run.jobs) if run.decoder else None
    return ClipStore(data_root=Path(run.data_root), preprocess=run.preprocess, decoder=decoder)


def _catalogue(run: RunConfig):
    return load_catalogue(run.catalogue)


def _load_model(path: str):
    """FP32 or quantized checkpoint -> (params, activation qctx or None)."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
    if magic == MAGIC_FP32:
        params, _header = load_checkpoint(path)
        return params, None
    if magic == MAGIC_QUANT:
        return load_quantized_model(path)
    raise DataError(f"{path}: unrecognized checkpoint magic {magic!r}")


def _game_videos(run: RunConfig, game: GameId) -> list[Path]:
    base = Path(run.data_root) / game.value
    videos = sorted(base.glob("*.rgbc"))
    if not videos:
        raise DataResolutionError(f"no .rgbc videos under {base}")
    return videos


def _parse_targets(spec: str, game: GameId) -> set[EventLabel]:
    labels = set()
    for part in spec.split(","):
        part = part.strip()
        if part:
            labels.add(parse_label(part, game))
    return labels


class SessionClips:
    """Whole-second clip tensors of one video, fetched on demand."""

    def __init__(self, store: ClipStore, game: GameId, video: str, seconds: int):
        self._second = store.seconds(game, video)
        self._preprocess = store.preprocess
        self._seconds = seconds

    def __len__(self) -> int:
        return self._seconds

    def __getitem__(self, i: int) -> np.ndarray:
        return preprocess_clip(self._second(float(i)), self._preprocess).data


def _session(args, run: RunConfig):
    """Model, activation qctx, prompt set and the clips of ``args.video``."""
    game = parse_game(args.game)
    params, qctx = _load_model(args.checkpoint)
    store = _store(run)
    duration = store.duration(game, args.video)
    seconds = int(duration) if args.seconds is None else min(args.seconds, int(duration))
    if seconds < 1:
        raise EmptyInput(f"{args.video}: no whole second to classify")
    prompt_set = prompt_set_for(game, _catalogue(run))
    return params, qctx, prompt_set, SessionClips(store, game, args.video, seconds)


def cmd_sample_background(args, run: RunConfig) -> int:
    game = parse_game(args.game)
    files: dict[str, tuple[float, list]] = {}
    for video in _game_videos(run, game):
        ann_path = video.parent / (video.stem + ".via.json")
        if not ann_path.is_file():
            raise DataResolutionError(f"annotation file missing: {ann_path}")
        events = parse_via(ann_path.read_bytes(), game)
        duration = read_rgbc_file(video).duration_s
        files[video.name] = (duration, events)
    target = args.target_count if args.target_count is not None else run.sampler.target_count
    cfg = background.SamplerConfig(
        rng_seed=run.seed,
        max_retries=run.sampler.max_retries,
        buffer_secs=run.sampler.buffer_secs,
        target_count=target,
    )
    sampled = background.get_bkg_events(game, files, cfg)
    events = background.as_events(sampled, game)
    _write_text(args.out, events_to_json(events))
    logger.info("sampled %d background events -> %s", len(events), args.out)
    return 0


def cmd_build_manifest(args, run: RunConfig) -> int:
    events = events_from_json(Path(args.annotations).read_bytes())
    backgrounds = (
        events_from_json(Path(args.backgrounds).read_bytes()) if args.backgrounds else []
    )
    store = _store(run)
    durations: dict[str, float] = {}
    for event in [*events, *backgrounds]:
        if event.video not in durations:
            durations[event.video] = store.duration(event.game, event.video)
    manifest = build_manifest(events, backgrounds, run.seed, durations)
    _write_text(args.out, manifest_to_json(manifest))
    logger.info("manifest with %d entries -> %s", len(manifest.entries), args.out)
    return 0


def _split_examples(manifest, store, run: RunConfig):
    train_entries = [e for e in manifest.entries if e.split == "train"]
    test_entries = [e for e in manifest.entries if e.split == "test"]
    train_set = materialize_examples(train_entries, store, run.jobs)
    test_set = materialize_examples(test_entries, store, run.jobs)
    return train_set, test_set


def cmd_train(args, run: RunConfig) -> int:
    manifest = manifest_from_json(Path(args.manifest).read_bytes())
    store = _store(run)
    train_set, val_set = _split_examples(manifest, store, run)
    params = ModelParams.init(run.model_config, run.seed)
    catalogue = _catalogue(run)
    if args.history:
        Path(args.history).parent.mkdir(parents=True, exist_ok=True)
        Path(args.history).unlink(missing_ok=True)
    Path(args.checkpoint).parent.mkdir(parents=True, exist_ok=True)
    _best, history = train(
        train_set,
        val_set,
        params,
        run.train,
        catalogue=catalogue,
        checkpoint_path=args.checkpoint,
        history_path=args.history,
    )
    last = history[-1]
    logger.info(
        "trained %d epochs: train_acc=%.3f val_acc=%s -> %s",
        len(history),
        last["train_acc"],
        last["val_acc"],
        args.checkpoint,
    )
    return 0


def cmd_eval(args, run: RunConfig) -> int:
    manifest = manifest_from_json(Path(args.manifest).read_bytes())
    store = _store(run)
    entries = [e for e in manifest.entries if args.split in ("all", e.split)]
    if not entries:
        raise EmptyInput(f"manifest has no {args.split} entries")
    examples = materialize_examples(entries, store, run.jobs)
    params, qctx = _load_model(args.checkpoint)
    records = eval_records(examples, params, _catalogue(run), PromptCache(), qctx)
    report = evaluation_report(records)
    text = json.dumps(report, sort_keys=True, ensure_ascii=False) + "\n"
    _write_text(args.out, text)
    logger.info("evaluated %d clips -> %s", len(records), args.out)
    return 0


def cmd_quantize(args, run: RunConfig) -> int:
    manifest = manifest_from_json(Path(args.manifest).read_bytes())
    store = _store(run)
    pool = [e for e in manifest.entries if e.split == "test"] or list(manifest.entries)
    picks = pool[: run.quantizer.calib_count]
    if not picks:
        raise EmptyInput("manifest has no entries to calibrate on")
    clips = [store.clip_tensor(e).data for e in picks]
    catalogue = _catalogue(run)
    games = sorted({e.game for e in manifest.entries}, key=lambda g: g.value)
    prompt_sets = [prompt_set_for(g, catalogue) for g in games]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    scales = quantize_model(args.checkpoint, args.out, clips, prompt_sets)
    logger.info("quantized %s -> %s (%d activation sites)", args.checkpoint, args.out, len(scales))
    return 0


def cmd_detect(args, run: RunConfig) -> int:
    params, qctx, prompt_set, clips = _session(args, run)
    seconds = len(clips)
    workers, per_worker = worker_plan(run.jobs, seconds)
    logger.info("detect: %d seconds on %d workers, %s BLAS threads each",
                seconds, workers, per_worker)
    preds = classify_session(
        clips, prompt_set, params, cache=PromptCache(), qctx=qctx, jobs=run.jobs
    )
    lines = []
    for p in preds:
        lines.append(
            json.dumps(
                {
                    "second": p.second_index,
                    "label": p.label.value,
                    "probability": p.probability,
                    "probs": {label.value: prob for label, prob in p.probabilities},
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    logger.info("classified %d seconds of %s -> %s", seconds, args.video, args.out)
    return 0


def _read_predictions(path: str) -> list[SecondPrediction]:
    preds = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        probs = tuple(
            (parse_label(name, GameId.UNKNOWN), float(p)) for name, p in sorted(rec["probs"].items())
        )
        preds.append(
            SecondPrediction(
                second_index=int(rec["second"]),
                label=parse_label(rec["label"], GameId.UNKNOWN),
                probability=float(rec["probability"]),
                probabilities=probs,
            )
        )
    preds.sort(key=lambda p: p.second_index)
    return preds


def cmd_highlight(args, run: RunConfig) -> int:
    game = parse_game(args.game)
    preds = _read_predictions(args.predictions)
    if not preds:
        raise EmptyInput(f"{args.predictions}: no predictions")
    targets = _parse_targets(args.targets, game)
    session_len = args.session_len if args.session_len is not None else float(len(preds))
    decisions = slide_windows(preds, targets)
    edl = build_edl(decisions, session_len, source=args.video or "")
    _write_text(args.out, edl.to_json())
    logger.info("%d cuts -> %s", len(edl.cuts), args.out)
    if args.cut_dir and run.cutter:
        _run_cutter(run, edl, args.cut_dir)
    return 0


def _run_cutter(run: RunConfig, edl: HighlightEdl, cut_dir: str) -> None:
    template = shlex.split(run.cutter)
    for placeholder in ("{input}", "{start}", "{dur}", "{output}"):
        if not any(placeholder in part for part in template):
            raise ConfigError(f"cutter template lacks {placeholder}")
    Path(cut_dir).mkdir(parents=True, exist_ok=True)
    for i, cut in enumerate(edl.cuts):
        out_path = Path(cut_dir) / f"cut_{i:04d}.rgbc"
        argv = [
            part.format(
                input=edl.source,
                start=repr(cut.start_s),
                dur=repr(cut.end_s - cut.start_s),
                output=str(out_path),
            )
            for part in template
        ]
        proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != 0:
            raise DataResolutionError(
                f"cutter exited {proc.returncode} for cut {i}: {proc.stderr[:200]!r}"
            )


def cmd_bench(args, run: RunConfig) -> int:
    params, qctx, prompt_set, clips = _session(args, run)
    seconds = len(clips)

    def run_pass(count: int) -> tuple[list[float], int]:
        cache = PromptCache()
        latencies = []
        for i in range(count):
            clip = clips[i]
            t0 = time.perf_counter()
            classify_session([clip], prompt_set, params, cache=cache, qctx=qctx, jobs=1)
            latencies.append(time.perf_counter() - t0)
        return latencies, cache.encode_calls

    subset = min(args.subset, seconds)
    _, calls_subset = run_pass(subset)
    latencies, calls_full = run_pass(seconds)
    if calls_subset != calls_full:
        raise FragreelError(
            f"text encoder ran {calls_subset} times for {subset} clips but "
            f"{calls_full} for {seconds}; prompt cache is broken"
        )
    report = {
        "seconds": seconds,
        "subset": subset,
        "prompt_count": len(prompt_set.prompts),
        "encode_calls_subset": calls_subset,
        "encode_calls_full": calls_full,
        "latency_mean_s": sum(latencies) / len(latencies),
        "latency_max_s": max(latencies),
        "latencies_s": latencies,
        "blas_threads": blas_threads(),
    }
    text = json.dumps(report, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    logger.info(
        "bench: %d clips, mean %.4fs, %d text-encoder calls",
        seconds,
        report["latency_mean_s"],
        calls_full,
    )
    return 0


def cmd_print_prompts(args, run: RunConfig) -> int:
    catalogue = _catalogue(run)
    games = [parse_game(args.game)] if args.game else sorted(catalogue, key=lambda g: g.value)
    for game in games:
        prompt_set = prompt_set_for(game, catalogue)
        for prompt in prompt_set.prompts:
            sys.stdout.write(f"{game.value}\t{prompt.event.value}\t{prompt.rendered}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragreel",
        description="Gameplay highlight pipeline: sample, train, quantize, detect, cut.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run config")
    common.add_argument("--seed", type=int, help="root seed override")
    common.add_argument("--data-root", help="video/annotation root override")
    common.add_argument("--jobs", type=int, help="parallelism override (default 2)")
    common.add_argument("--cat", dest="catalogue", help="prompt catalogue path override")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-background", parents=[common], help="sample background intervals")
    p.add_argument("--game", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-count", type=int)
    p.set_defaults(func=cmd_sample_background)

    p = sub.add_parser("build-manifest", parents=[common], help="stratified train/test manifest")
    p.add_argument("--annotations", required=True, help="events JSON")
    p.add_argument("--backgrounds", help="sampled background events JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_manifest)

    p = sub.add_parser("train", parents=[common], help="finetune from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True, help="best-checkpoint output path")
    p.add_argument("--history", help="per-epoch JSONL output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="metrics report from a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("quantize", parents=[common], help="post-training int8 quantization")
    p.add_argument("--checkpoint", required=True, help="FP32 checkpoint in")
    p.add_argument("--manifest", required=True, help="source of calibration clips")
    p.add_argument("--out", required=True, help="quantized checkpoint out")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("detect", parents=[common], help="per-second session classification")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--game", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--seconds", type=int, help="classify only the first N seconds")
    p.add_argument("--out", required=True, help="predictions JSONL")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("highlight", parents=[common], help="windowed highlight list from predictions")
    p.add_argument("--predictions", required=True, help="detect output JSONL")
    p.add_argument("--game", required=True)
    p.add_argument("--video", default="", help="source file recorded in the list")
    p.add_argument("--targets", default="Kill,Death", help="comma-separated target events")
    p.add_argument("--session-len", type=float, help="session length in seconds")
    p.add_argument("--cut-dir", help="also cut clips via the configured cutter")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_highlight)

    p = sub.add_parser("bench", parents=[common], help="latency and prompt-cache benchmark")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--game", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--seconds", type=int)
    p.add_argument("--subset", type=int, default=10, help="size of the comparison pass")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("print-prompts", parents=[common], help="print rendered prompts")
    p.add_argument("--game")
    p.set_defaults(func=cmd_print_prompts)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        overrides = {
            "seed": getattr(args, "seed", None),
            "data_root": getattr(args, "data_root", None),
            "jobs": getattr(args, "jobs", None),
            "catalogue": getattr(args, "catalogue", None),
        }
        run = load_run_config(getattr(args, "config", None), overrides)
        logger.info("resolved config: %s", describe(run))
        return args.func(args, run)
    except ConfigError as exc:
        print(f"fragreel: config error: {exc}", file=sys.stderr)
        return 2
    except FragreelError as exc:
        print(f"fragreel: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # unreadable inputs and unwritable outputs are data problems too
        print(f"fragreel: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
