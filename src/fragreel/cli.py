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
import math
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # Windows
    resource = None

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
from .checkpoint import load_checkpoint
from .config import RunConfig, describe, load_run_config
from .detection import (
    SecondPrediction,
    SessionProgress,
    build_edl,
    classify_second,
    classify_session,
    slide_windows,
)
from .errors import (
    ConfigError,
    DataError,
    DataResolutionError,
    EmptyInput,
    FragreelError,
    MalformedJson,
    UnknownLabel,
)
from .frames import ClipStore, PreprocessConfig, cutter, decoder
from .metrics import evaluation_report
from .parallel import blas_threads, worker_plan
from .params import EncoderConfig, ModelParams
from .quantize import load_model, quantize_params
from .textmodel import PromptCache, load_catalogue, prompt_set_for
from .training import eval_records, train

logger = logging.getLogger("fragreel")


def _write_text(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _store(run: RunConfig, encoder: EncoderConfig | None = None) -> ClipStore:
    """``run``'s videos, read as clips of the shape ``encoder`` takes:
    the model's that reads them, by default the run config's."""
    encoder = encoder or run.encoder
    source = decoder(run.decoder) if run.decoder is not None else None
    return ClipStore(data_root=Path(run.data_root), decoder=source,
                     preprocess=PreprocessConfig(encoder.t_frames, encoder.side))


def _read(path: str, parse):
    """``parse`` applied to the bytes of a file; a data error names the file."""
    try:
        return parse(Path(path).read_bytes())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _parse_targets(spec: str, game: GameId) -> set[EventLabel]:
    """The events of ``--targets``; Background promotes no window, so at
    least one other event must be named."""
    labels = set()
    for part in spec.split(","):
        part = part.strip()
        if part:
            try:
                labels.add(parse_label(part, game))
            except UnknownLabel as exc:
                raise ConfigError(f"--targets: {exc}") from exc
    if not labels - {EventLabel.BACKGROUND}:
        raise ConfigError(f"--targets {spec!r} names no target event")
    return labels


def _parse_game(text: str) -> GameId:
    """The game of ``--game``; an unknown name is a command-line mistake."""
    try:
        return parse_game(text)
    except UnknownLabel as exc:
        names = ", ".join(game.value for game in GameId)
        raise ConfigError(f"--game {text!r} is not one of {names}") from exc


class SessionClips:
    """Whole-second clips of one video, preprocessed on demand."""

    def __init__(self, store: ClipStore, game: GameId, video: str, seconds: int):
        self._clip_at = store.clips(game, video)
        self._seconds = seconds

    def __len__(self) -> int:
        return self._seconds

    def __getitem__(self, i: int) -> np.ndarray:
        return self._clip_at(float(i))


def _session(args, run: RunConfig):
    """Model, activation qctx, prompt set, prompt cache and the clips of
    ``args.video``.

    A session classifies with one prompt set, so the cache's one fill is
    the text encoder's last read, and the fill then drops the text tensors
    from the params: once nothing else holds them, the text group's mapping,
    or its dequantized copy, is freed. The fill runs in the first
    classification, so in a pool it overlaps the other workers' seconds.
    """
    if args.seconds is not None and args.seconds < 1:
        raise ConfigError(f"--seconds must be at least 1, got {args.seconds}")
    game = _parse_game(args.game)
    params, qctx = load_model(args.checkpoint)
    store = _store(run, params.config.encoder)
    duration = store.duration(game, args.video)
    seconds = int(duration) if args.seconds is None else min(args.seconds, int(duration))
    if seconds < 1:
        raise EmptyInput(f"{args.video}: no whole second to classify")
    prompt_set = prompt_set_for(game, load_catalogue(run.catalogue))
    cache = PromptCache(on_fill=lambda: params.drop("text_encoder"))
    return params, qctx, prompt_set, cache, SessionClips(store, game, args.video, seconds)


def cmd_sample_background(args, run: RunConfig) -> int:
    game = _parse_game(args.game)
    store = _store(run)
    files: dict[str, tuple[float, list]] = {}
    for video in store.videos(game):
        ann_path = video.parent / (video.stem + ".via.json")
        if not ann_path.is_file():
            raise DataResolutionError(f"annotation file missing: {ann_path}")
        events = parse_via(ann_path.read_bytes(), game)
        files[video.name] = (store.duration(game, video.name), events)
    target = args.target_count if args.target_count is not None else run.sampler.target_count
    try:
        cfg = background.SamplerConfig(
            rng_seed=run.seed,
            max_retries=run.sampler.max_retries,
            buffer_secs=run.sampler.buffer_secs,
            target_count=target,
        )
    except ValueError as exc:
        raise ConfigError(f"--target-count: {exc}") from exc
    sampled = background.get_bkg_events(game, files, cfg)
    events = background.as_events(sampled, game)
    _write_text(args.out, events_to_json(events))
    logger.info("sampled %d background events -> %s", len(events), args.out)
    return 0


def cmd_build_manifest(args, run: RunConfig) -> int:
    events = _read(args.annotations, events_from_json)
    backgrounds = _read(args.backgrounds, events_from_json) if args.backgrounds else []
    store = _store(run)
    durations: dict[str, float] = {}
    for event in [*events, *backgrounds]:
        if event.video not in durations:
            durations[event.video] = store.duration(event.game, event.video)
    manifest = build_manifest(events, backgrounds, run.seed, durations)
    _write_text(args.out, manifest_to_json(manifest))
    logger.info("manifest with %d entries -> %s", len(manifest.entries), args.out)
    return 0


def _peak_rss_mb(status: str = "/proc/self/status") -> float | None:
    """This process's own peak RSS in MB (2**20 bytes), or None where it
    cannot be read.

    Where ``status`` exists (Linux), that is its VmHWM. ``ru_maxrss`` there
    keeps the high-water mark from before ``exec``, so a small child of a
    large process would read as large. Elsewhere it is ``ru_maxrss``;
    Windows has neither.
    """
    try:
        with open(status, "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    if resource is None:
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss / (2**20 if sys.platform == "darwin" else 1024)  # bytes on macOS, else KiB


def cmd_train(args, run: RunConfig) -> int:
    manifest = _read(args.manifest, manifest_from_json)
    store = _store(run)
    for entry in manifest.entries:  # a bad entry stops the run before it writes
        store.check(entry)
    params = ModelParams.init(run.model_config, run.seed)
    catalogue = load_catalogue(run.catalogue)
    if args.history:
        Path(args.history).parent.mkdir(parents=True, exist_ok=True)
        Path(args.history).unlink(missing_ok=True)
    Path(args.checkpoint).parent.mkdir(parents=True, exist_ok=True)
    last_step = time.perf_counter()

    def progress(epoch, step, loss):
        # seconds since the last line, so an epoch's first step also
        # counts the previous epoch's evaluation and checkpoint
        nonlocal last_step
        now = time.perf_counter()
        rss = _peak_rss_mb()
        logger.info("train: epoch %d step %d loss %.6f, %.2f s, max RSS %s MB",
                    epoch, step, loss, now - last_step, "?" if rss is None else f"{rss:.0f}")
        last_step = now

    history = train(
        [e for e in manifest.entries if e.split == "train"],
        [e for e in manifest.entries if e.split == "test"],
        store.clip,
        params,
        run.train,
        catalogue=catalogue,
        checkpoint_path=args.checkpoint,
        history_path=args.history,
        on_step=progress,
        jobs=run.jobs,
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
    manifest = _read(args.manifest, manifest_from_json)
    entries = [e for e in manifest.entries if args.split in ("all", e.split)]
    if not entries:
        raise EmptyInput(f"manifest has no {args.split} entries")
    params, qctx = load_model(args.checkpoint)
    records = eval_records(entries, _store(run, params.config.encoder).clip, params,
                           load_catalogue(run.catalogue), PromptCache(), qctx, run.jobs)
    report = evaluation_report(records)
    text = json.dumps(report, sort_keys=True, ensure_ascii=False) + "\n"
    _write_text(args.out, text)
    logger.info("evaluated %d clips -> %s", len(records), args.out)
    return 0


def cmd_quantize(args, run: RunConfig) -> int:
    manifest = _read(args.manifest, manifest_from_json)
    pool = [e for e in manifest.entries if e.split == "test"] or list(manifest.entries)
    picks = pool[: run.quantizer.calib_count]
    if not picks:
        raise EmptyInput("manifest has no entries to calibrate on")
    params, header = load_checkpoint(args.checkpoint)
    store = _store(run, params.config.encoder)
    clips = [store.clip(e) for e in picks]
    catalogue = load_catalogue(run.catalogue)
    games = sorted({e.game for e in manifest.entries}, key=lambda g: g.value)
    prompt_sets = [prompt_set_for(g, catalogue) for g in games]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    scales = quantize_params(params, header, args.out, clips, prompt_sets)
    logger.info("quantized %s -> %s (%d activation sites)", args.checkpoint, args.out, len(scales))
    return 0


def cmd_detect(args, run: RunConfig) -> int:
    params, qctx, prompt_set, cache, clips = _session(args, run)
    seconds = len(clips)
    workers, per_worker = worker_plan(run.jobs, seconds)
    logger.info("detect: %d seconds on %d workers, %s BLAS threads each",
                seconds, workers, per_worker)
    progress = SessionProgress(seconds, logger) if logger.isEnabledFor(logging.INFO) else None
    preds = classify_session(clips, prompt_set, params, cache=cache, qctx=qctx, jobs=run.jobs,
                             progress=progress)
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
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            probs = tuple(
                (parse_label(name, GameId.UNKNOWN), float(p))
                for name, p in sorted(rec["probs"].items())
            )
            preds.append(
                SecondPrediction(
                    second_index=int(rec["second"]),
                    label=parse_label(rec["label"], GameId.UNKNOWN),
                    probability=float(rec["probability"]),
                    probabilities=probs,
                )
            )
        except (ValueError, KeyError, TypeError, AttributeError, DataError) as exc:
            raise MalformedJson(f"{path}, line {lineno}: bad prediction record ({exc!r})") from exc
    preds.sort(key=lambda p: p.second_index)
    # windows take their start from a prediction's place in the list
    rule = f"{path}: seconds must run 0..{len(preds) - 1}"
    for i, p in enumerate(preds):
        if p.second_index > i:
            raise DataError(f"{rule}, but second {i} is missing")
        if p.second_index < i:
            what = "negative" if p.second_index < 0 else "repeated"
            raise DataError(f"{rule}, but second {p.second_index} is {what}")
    return preds


def cmd_highlight(args, run: RunConfig) -> int:
    if args.cut_dir and run.cutter is None:
        raise ConfigError("--cut-dir needs a `cutter` command in the run config")
    if args.session_len is not None and not 0.0 < args.session_len < math.inf:  # also rejects NaN
        raise ConfigError(f"--session-len must be finite and positive, got {args.session_len}")
    game = _parse_game(args.game)
    targets = _parse_targets(args.targets, game)
    preds = _read_predictions(args.predictions)
    if not preds:
        raise EmptyInput(f"{args.predictions}: no predictions")
    session_len = args.session_len if args.session_len is not None else float(len(preds))
    decisions = slide_windows(preds, targets)
    edl = build_edl(decisions, session_len, source=args.video or "")
    if args.cut_dir:
        command = cutter(run.cutter)
        Path(args.cut_dir).mkdir(parents=True, exist_ok=True)
        for i, cut in enumerate(edl.cuts):
            with command.output(input=edl.source, start=repr(cut.start_s),
                                dur=repr(cut.end_s - cut.start_s),
                                output=str(Path(args.cut_dir) / f"cut_{i:04d}.rgbc")) as stdout:
                stdout.read()
    # written last, so a list on disk means every cut of it was made
    _write_text(args.out, edl.to_json())
    logger.info("%d cuts -> %s", len(edl.cuts), args.out)
    return 0


def cmd_bench(args, run: RunConfig) -> int:
    params, qctx, prompt_set, cache, clips = _session(args, run)
    seconds = len(clips)
    latencies = []
    for i in range(seconds):
        clip = clips[i]
        t0 = time.perf_counter()
        classify_second(clip, prompt_set, params, cache, qctx, second_index=i)
        latencies.append(time.perf_counter() - t0)
    report = {
        "seconds": seconds,
        "prompt_count": len(prompt_set.prompts),
        "encode_calls": cache.encode_calls,
        "latency_mean_s": sum(latencies) / len(latencies),
        "latency_max_s": max(latencies),
        "latencies_s": latencies,
        "blas_threads": blas_threads(),
        "peak_rss_mb": _peak_rss_mb(),
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
        cache.encode_calls,
    )
    return 0


def cmd_print_prompts(args, run: RunConfig) -> int:
    catalogue = load_catalogue(run.catalogue)
    games = [_parse_game(args.game)] if args.game else sorted(catalogue, key=lambda g: g.value)
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
