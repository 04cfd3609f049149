"""Outside-in benchmark of the fragreel command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every program step is a fresh
``python -m fragreel.cli`` process on inputs that perfbench/inputs.py
generates from the seed; the program keeps its shipped defaults, including
its jobs=2 pool and whatever BLAS threading the environment gives it.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI invocations plus output checks), and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, taken
without tracing. With ``--trace 1`` every step runs twice, once plain and
once under perfbench/tracing.py, and the metrics are the per-layer ones
computed from the traced spans. The line before it records the environment
and the raw samples; a copy goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
SETUP_REPS = 3
GAME = "CSGO"


def repeat_until(budget_s: float, minimum: int):
    """0, 1, 2, ...: at least ``minimum`` rounds, then until the budget is spent."""
    start = time.monotonic()
    count = 0
    while count < minimum or time.monotonic() - start < budget_s:
        yield count
        count += 1


def detect_rtf(t_n: float, t_1: float, n: int) -> float:
    """Marginal wall seconds per video second between a 1-second session
    and an n-second one, so set-up cancels out."""
    if n < 2:
        raise ValueError("the marginal cost needs a session of at least 2 seconds")
    return (t_n - t_1) / (n - 1)


@dataclass
class Invocation:
    wall_s: float
    maxrss_mb: float
    returncode: int


@dataclass
class Runner:
    """Runs CLI invocations and counts what was attempted and what failed."""

    work: Path
    trace: bool
    deadline: float
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    walls: dict[str, list[float]] = field(default_factory=dict)
    units: dict[str, int] = field(default_factory=dict)  # work units per step, e.g. train: steps
    span_files: list[Path] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    untraced_walls: list[float] = field(default_factory=list)

    def _spawn(self, cmd: list[str], log: Path) -> Invocation:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def cli(self, role: str, *args, traced: bool = True) -> Invocation:
        """One `fragreel <role> args...` step. In a trace run, a step marked
        ``traced`` runs a second time under the tracer, writing the same
        outputs."""
        args = [role, *(str(a) for a in args)]
        index = self.attempted
        plain = self._spawn([sys.executable, "-m", "fragreel.cli", *args],
                            self.work / f"log-{index:03d}-{role}.txt")
        self._count(plain, role)
        self.walls.setdefault(role, []).append(plain.wall_s)
        if self.trace and traced:
            spans = self.work / f"spans-{index:03d}-{role}.npz"
            tracer = self._spawn([sys.executable, str(HERE / "tracing.py"), str(spans), *args],
                                 self.work / f"log-{index:03d}-{role}-traced.txt")
            self._count(tracer, role + "-traced")
            if tracer.returncode == 0:
                self.span_files.append(spans)
                self.traced_walls.append(tracer.wall_s)
                self.untraced_walls.append(plain.wall_s)
        return plain

    def _count(self, inv: Invocation, role: str) -> None:
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, inv.maxrss_mb)
        if inv.returncode != 0:
            self.fail(f"{role}: exit {inv.returncode}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, what: str, fn, *args) -> bool:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a check that cannot even run has failed too
            self.fail(f"{what}: {exc!r}")
            return False
        return True


def load_reference(workload: str) -> dict | None:
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seconds"]


def prompt_labels(game: str) -> tuple[str, ...]:
    from fragreel.catalogue import parse_game
    from fragreel.textmodel import load_catalogue

    return tuple(label.value for label in load_catalogue()[parse_game(game)].labels)


def detect_and_highlight(r: Runner, config: Path, data_root: Path, checkpoint: Path,
                         video: str, seconds: int, tag: str, reference: dict | None) -> float:
    """`detect` then `highlight` over the first ``seconds`` of a session;
    returns their summed wall time."""
    import checks

    preds = r.work / f"preds-{tag}.jsonl"
    cuts = r.work / f"highlights-{tag}.json"
    detect = r.cli("detect", "--config", config, "--data-root", data_root,
                   "--checkpoint", checkpoint, "--game", GAME, "--video", video,
                   "--seconds", seconds, "--out", preds)
    highlight = r.cli("highlight", "--config", config, "--predictions", preds, "--game", GAME,
                      "--video", video, "--session-len", seconds, "--out", cuts)
    r.check("predictions", checks.check_predictions, preds, seconds, prompt_labels(GAME), reference)
    r.check("highlights", checks.check_highlight, preds, cuts, float(seconds), video)
    return detect.wall_s + highlight.wall_s


@dataclass(frozen=True)
class DetectWorkload:
    """Sessions of `detect` + `highlight` on one named model."""

    model: str
    height: int
    width: int
    seconds: int
    reference_seconds: int
    quantized: bool
    pairs: int  # at least this many; more while --seconds is not spent

    def run(self, name: str, r: Runner, seed: int, budget_s: float, write_reference: bool):
        import checks
        import inputs

        inp = inputs.make_detect_inputs(r.work, seed, self.model, self.seconds, self.height,
                                        self.width, self.reference_seconds)
        checkpoint = inp.checkpoint
        if self.quantized:
            checkpoint = r.work / "model.xckq"
            r.cli("quantize", "--config", inp.config, "--data-root", inp.data_root,
                  "--checkpoint", inp.checkpoint, "--manifest", inp.calibration,
                  "--out", checkpoint, traced=False)
            r.check("quantized checkpoint", checks.check_quantized, checkpoint)
        reference = None if write_reference else load_reference(name)
        if reference is None and not write_reference:
            r.attempted += 1
            r.fail(f"no stored reference for {name}")

        def session(seconds: int, tag: str) -> float:
            return detect_and_highlight(r, inp.config, inp.data_root, checkpoint, inp.video,
                                        seconds, tag, reference)

        # Back-to-back pairs, so a slow drift in machine speed hits both
        # sides of each marginal alike.
        setup, rtf, passes = [], [], []
        for pair in [0] if r.trace else repeat_until(budget_s, self.pairs):
            t_1 = session(1, f"setup{pair}")
            t_n = session(self.seconds, f"pass{pair}")
            setup.append(t_1)
            passes.append(t_n)
            rtf.append(detect_rtf(t_n, t_1, self.seconds))
        if write_reference:
            write_reference_file(name, r.work / "preds-pass0.jsonl", self.reference_seconds)
        return {"setup_s": setup, "detect_rtf": rtf, "pass_s": passes}


@dataclass(frozen=True)
class FinetuneWorkload:
    """sample-background -> build-manifest -> train -> eval -> quantize,
    then detect + highlight with the trained int8 model."""

    model: str = "small"
    detect_seconds: int = 8

    def run(self, name: str, r: Runner, seed: int, budget_s: float, write_reference: bool):
        import checks
        import inputs

        inp = inputs.make_finetune_inputs(r.work, seed, self.detect_seconds)
        manifest = r.work / "manifest.json"
        train_clips, test_clips = inputs.FINETUNE_SPLIT

        def setup() -> float:
            wall = 0.0
            merged = []
            for game in inp.games:
                out = r.work / f"backgrounds-{game.value}.json"
                wall += r.cli("sample-background", "--config", inp.config,
                              "--data-root", inp.data_root, "--game", game.value,
                              "--out", out).wall_s
                if out.is_file():
                    merged.extend(json.loads(out.read_text()))
            backgrounds = r.work / "backgrounds.json"
            backgrounds.write_text(json.dumps(merged, sort_keys=True) + "\n")
            wall += r.cli("build-manifest", "--config", inp.config, "--data-root", inp.data_root,
                          "--annotations", inp.events, "--backgrounds", backgrounds,
                          "--out", manifest).wall_s
            r.check("manifest", checks.check_manifest, manifest, train_clips, test_clips)
            return wall

        def finetune_pass(tag: str) -> tuple[float, float]:
            checkpoint = r.work / f"model-{tag}.xckp"
            history = r.work / f"history-{tag}.jsonl"
            report = r.work / f"report-{tag}.json"
            quantized = r.work / f"model-{tag}.xckq"
            wall = r.cli("train", "--config", inp.config, "--data-root", inp.data_root,
                         "--manifest", manifest, "--checkpoint", checkpoint,
                         "--history", history).wall_s
            r.check("history", checks.check_history, history, inputs.FINETUNE_TRAIN["epochs"])
            r.check("checkpoint", checks.check_checkpoint, checkpoint)
            wall += r.cli("eval", "--config", inp.config, "--data-root", inp.data_root,
                          "--manifest", manifest, "--checkpoint", checkpoint,
                          "--split", "test", "--out", report).wall_s
            r.check("report", checks.check_report, report, test_clips)
            wall += r.cli("quantize", "--config", inp.config, "--data-root", inp.data_root,
                          "--checkpoint", checkpoint, "--manifest", manifest,
                          "--out", quantized).wall_s
            r.check("quantized checkpoint", checks.check_quantized, quantized)
            t_1 = detect_and_highlight(r, inp.config, inp.detect_root, quantized,
                                       inp.detect_video, 1, f"{tag}-1", None)
            t_n = detect_and_highlight(r, inp.config, inp.detect_root, quantized,
                                       inp.detect_video, self.detect_seconds, f"{tag}-n", None)
            return wall + t_1 + t_n, detect_rtf(t_n, t_1, self.detect_seconds)

        setup_walls = [setup() for _ in range(1 if r.trace else SETUP_REPS)]
        rtf, passes = [], []
        for i in [0] if r.trace else repeat_until(budget_s, 1):
            wall, marginal = finetune_pass(f"pass{i}")
            passes.append(wall)
            rtf.append(marginal)
        batches = -(-train_clips // inputs.FINETUNE_TRAIN["batch_size"])
        r.units["train"] = inputs.FINETUNE_TRAIN["epochs"] * batches
        r.units["eval"] = test_clips
        return {"setup_s": setup_walls, "detect_rtf": rtf, "pass_s": passes}


# Pair counts keep a run near 30 s: a wide-1 pair takes 20 s, a 1080p pair
# 12 s (the session is read whole, twice over in RAM, so it stays at 4 s),
# a toy pair 5 s.
WORKLOADS = {
    "detect-wide": DetectWorkload("wide-1", 224, 224, seconds=4, reference_seconds=2,
                                  quantized=False, pairs=2),
    "session-1080p-int8": DetectWorkload("small", 1080, 1920, seconds=4, reference_seconds=2,
                                         quantized=True, pairs=2),
    "detect-toy-long": DetectWorkload("toy", 4, 4, seconds=800, reference_seconds=16,
                                      quantized=False, pairs=3),
    "finetune-small": FinetuneWorkload(),
}

END_TO_END_UNITS = {"setup_s": "s", "detect_rtf": "s/s", "peak_rss_mb": "MB", "pass_s": "s"}
# Per-step costs of the untraced twins, reported in trace runs.
CLI_UNITS = {"cli.train_step_s": "s", "cli.eval_clip_s": "s", "cli.quantize_s": "s",
             "cli.failed_ops_frac": "ratio"}


def write_reference_file(workload: str, predictions: Path, seconds: int) -> None:
    import checks

    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "tolerance": checks.PROB_TOLERANCE,
        "seconds": checks.reference_table(predictions, seconds),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def openblas_threads() -> int | None:
    """OpenBLAS's own thread count, read through ctypes from the library
    numpy loaded into this process."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(model: str) -> dict:
    import numpy
    import scipy
    from fragreel.config import RunConfig

    import inputs

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "jobs": RunConfig().jobs,
        "model_config": model,
        "model_sizes": inputs.MODEL_CONFIGS[model],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(samples: dict, r: Runner) -> dict:
    values = {key: statistics.median(samples[key]) for key in ("setup_s", "detect_rtf", "pass_s")}
    values["peak_rss_mb"] = r.peak_rss_mb
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}


def per_layer(r: Runner, jobs: int) -> dict:
    import tracing

    tables = [tracing.SpanTable.load(path) for path in r.span_files]
    values = tracing.layer_metrics(tables, r.traced_walls, r.untraced_walls, jobs)

    def per_unit(role: str) -> float:
        walls = r.walls.get(role)
        return statistics.median(walls) / r.units.get(role, 1) if walls else 0.0

    values["cli.train_step_s"] = per_unit("train")
    values["cli.eval_clip_s"] = per_unit("eval")
    values["cli.quantize_s"] = per_unit("quantize")
    values["cli.failed_ops_frac"] = r.failed / r.attempted if r.attempted else 0.0
    units = {**tracing.per_layer_units(), **CLI_UNITS}
    return {key: {"value": values[key], "unit": units[key]} for key in sorted(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's predictions as the workload's reference")
    args = parser.parse_args(argv)
    if not (SRC / "fragreel" / "cli.py").is_file():
        print(f"perfbench: no fragreel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work=work, trace=bool(args.trace), deadline=started + RUN_LIMIT_S)
    try:
        samples = workload.run(args.workload, runner, args.seed, args.seconds,
                               args.write_reference)
        env = environment(workload.model)
        metrics = per_layer(runner, env["jobs"]) if args.trace else end_to_end(samples, runner)
    finally:
        if runner.failed:
            kept = STATE / "failed" / work.name
            kept.mkdir(parents=True, exist_ok=True)
            for log in work.glob("log-*.txt"):
                shutil.copy(log, kept / log.name)
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "samples": samples,
        "failures": runner.failures,
        "wall_s": time.monotonic() - started,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
