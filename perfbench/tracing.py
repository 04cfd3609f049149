"""Span tracing from outside the program, and the per-layer metrics.

Run as a script, this wraps every public function and public method of
every ``fragreel`` module in a timing wrapper, in every namespace that
imported it (so ``layers.matmul`` is wrapped as well as
``autodiff.matmul``), then calls ``fragreel.cli.main`` in-process::

    python3 perfbench/tracing.py SPANS.npz detect --config run.json ...

Each call becomes a span: name, thread, start, end and the id of the span
that caused it. The thread pools in ``detection`` and ``training`` are
swapped for one that hands the submitting span to its workers as their
parent. Spans stay in memory and are written to SPANS.npz at exit.

Imported, it reads those files back and computes the per-layer metrics.
A span's self time is its duration minus the durations of its children on
the same thread; children on pool threads run concurrently and take nothing
from the parent's timeline.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

NO_PARENT = -1

# Numbers computed from a call's arguments or result, kept per span.
MEASURES = {
    "autodiff.matmul": lambda args, out: 2.0 * out.data.size * args[0].shape[-1],
    "autodiff.gelu": lambda args, out: float(args[0].data.nbytes),
    "quantize.fake_quant": lambda args, out: float(args[0].nbytes),
    "frames.read_rgbc": lambda args, out: float(len(args[0])),
    "textmodel.PromptCache.lookup": lambda args, out: 0.0 if out is None else 1.0,
}


class Recorder:
    """Installs the wrappers and holds the spans of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.extras: dict[int, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        ids, spans, extras, stack_of = self._ids, self.spans, self.extras, self._stack
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(span_id)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name_id, get_ident(), start, end))
            if measure is not None:
                extras[span_id] = measure(args, out)
            return out

        return traced

    def pool_class(self):
        recorder = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task under the span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                stack = recorder._stack()
                parent = stack[-1] if stack else NO_PARENT

                def run(*a, **k):
                    saved = recorder._stack()
                    recorder._local.stack = [] if parent == NO_PARENT else [parent]
                    try:
                        return fn(*a, **k)
                    finally:
                        recorder._local.stack = saved

                return super().submit(run, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        import fragreel.cli  # noqa: F401  (imports every module of the package)

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("fragreel.")]
        wrapped: dict[int, object] = {}
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrapped[id(value)] = self.wrap(value, f"{short}.{attr}")
                elif isinstance(value, type):
                    self._wrap_methods(value, f"{short}.{attr}")
        pool = self.pool_class()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif value is ThreadPoolExecutor:
                    setattr(module, attr, pool)

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(member, f"{prefix}.{attr}"))
            elif isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self.wrap(member.__func__, f"{prefix}.{attr}")))

    def dump(self, path: str) -> None:
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        idents = {threading.main_thread().ident: 0}
        for ident in spans[:, 3].astype(np.int64).tolist():
            idents.setdefault(ident, len(idents))
        tid = np.array([idents[int(i)] for i in spans[:, 3]], dtype=np.int64)
        extra = np.zeros(len(spans))
        sid = spans[:, 0].astype(np.int64)
        if self.extras:
            lookup = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
            lookup[sid] = np.arange(len(sid))
            keys = np.fromiter(self.extras.keys(), dtype=np.int64)
            extra[lookup[keys]] = np.fromiter(self.extras.values(), dtype=np.float64)
        np.savez(
            path,
            sid=sid,
            parent=spans[:, 1].astype(np.int64),
            name=spans[:, 2].astype(np.int64),
            tid=tid,
            start=spans[:, 4],
            end=spans[:, 5],
            extra=extra,
            names=np.array(self.names),
        )


class SpanTable:
    """The spans of one process, indexed for self time and grouping."""

    def __init__(self, sid, parent, name, tid, start, end, extra, names):
        order = np.argsort(sid)
        self.sid = np.asarray(sid)[order]
        self.name = np.asarray(name)[order]
        self.tid = np.asarray(tid)[order]
        self.start = np.asarray(start, dtype=np.float64)[order]
        self.end = np.asarray(end, dtype=np.float64)[order]
        self.extra = np.asarray(extra, dtype=np.float64)[order]
        self.names = [str(n) for n in names]
        self.duration = self.end - self.start
        index = np.full(int(self.sid.max()) + 1 if len(self.sid) else 0, -1, dtype=np.int64)
        index[self.sid] = np.arange(len(self.sid))
        parent = np.asarray(parent)[order]
        has_parent = parent != NO_PARENT
        self.parent = np.where(has_parent, index[np.where(has_parent, parent, 0)], -1)
        # a parent on another thread (a pool submitter) is not on this timeline
        linked = self.parent >= 0
        self.same_thread = linked.copy()
        self.same_thread[linked] = self.tid[self.parent[linked]] == self.tid[linked]
        child_time = np.bincount(
            self.parent[self.same_thread], weights=self.duration[self.same_thread],
            minlength=len(self.sid),
        )
        self.self_time = self.duration - child_time

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as data:
            return cls(**{key: data[key] for key in data.files})

    def _mask(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in set(names)]
        return np.isin(self.name, ids)

    def time(self, names) -> float:
        """Summed duration of the named spans; a span whose same-thread
        parent is also named counts only through that parent."""
        mask = self._mask(names)
        nested = np.zeros_like(mask)
        nested[self.same_thread] = mask[self.parent[self.same_thread]]
        return float(self.duration[mask & ~nested].sum())

    def calls(self, names) -> int:
        return int(self._mask(names).sum())

    def extra_sum(self, names) -> float:
        return float(self.extra[self._mask(names)].sum())

    def durations(self, names) -> list[float]:
        return self.duration[self._mask(names)].tolist()

    def module_self_time(self, module: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == module]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def top_level_time(self) -> float:
        """Time covered by spans that nothing else caused."""
        return float(self.duration[self.parent < 0].sum())


# Per-layer timings: summed span durations over the listed functions.
TIMES = {
    "frames.read_rgbc_s": ["frames.read_rgbc_file", "frames.read_rgbc"],
    "frames.preprocess_s": ["frames.preprocess_clip"],
    "frames.resize_s": ["frames.resize_bilinear"],
    "frames.normalize_s": ["frames.normalize"],
    "videomodel.encode_s": ["videomodel.encode_video"],
    "videomodel.embed_s": ["videomodel.extract_patches", "videomodel.embed_frames"],
    "videomodel.cct_s": ["videomodel.cct_layer"],
    "videomodel.mit_s": ["videomodel.mit_pool"],
    "layers.mhsa_s": ["layers.mhsa"],
    "layers.ffn_s": ["layers.ffn"],
    "layers.layer_norm_s": ["layers.layer_norm"],
    "autodiff.matmul_s": ["autodiff.matmul"],
    "autodiff.gelu_s": ["autodiff.gelu"],
    "autodiff.softmax_s": ["autodiff.softmax"],
    "autodiff.backward_s": ["autodiff.Tensor.backward"],
    "textmodel.encode_text_s": ["textmodel.encode_text"],
    "textmodel.video_prompt_s": ["textmodel.video_prompt"],
    "textmodel.classify_s": ["textmodel.classify"],
    "quantize.fake_quant_s": ["quantize.fake_quant"],
    "quantize.calibrate_s": ["quantize.calibrate_activations"],
    "detection.windows_s": ["detection.slide_windows", "detection.build_edl"],
    "training.adamw_s": ["training.adamw_step"],
    "training.evaluate_s": ["training.evaluate"],
    "training.materialize_s": ["training.materialize_examples"],
    "checkpoint.load_s": ["checkpoint.load_checkpoint", "checkpoint.load_quantized"],
    "checkpoint.save_s": ["checkpoint.save_checkpoint", "checkpoint.save_quantized"],
    "annotations.build_manifest_s": ["annotations.build_manifest"],
    "background.sample_s": ["background.get_bkg_events"],
    "metrics.report_s": ["metrics.evaluation_report"],
}
CALLS = {
    "frames.read_rgbc_calls": ["frames.read_rgbc"],
    "frames.resize_calls": ["frames.resize_bilinear"],
    "videomodel.encode_calls": ["videomodel.encode_video"],
    "autodiff.matmul_calls": ["autodiff.matmul"],
    "textmodel.encode_text_calls": ["textmodel.encode_text"],
    "textmodel.video_prompt_calls": ["textmodel.video_prompt"],
    "quantize.fake_quant_calls": ["quantize.fake_quant"],
    "checkpoint.save_calls": ["checkpoint.save_checkpoint", "checkpoint.save_quantized"],
}
# Modules whose summed self time is reported as <module>.self_s. detection
# and training are left out: their self time is mostly their pools' threads
# waited on, which the worker_util and per-function times already show.
SELF_MODULES = ("cli", "frames", "videomodel", "layers", "autodiff", "textmodel", "quantize",
                "checkpoint")


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than twenty samples."""
    if len(values) < 20:
        return max(values, default=0.0)
    return float(np.quantile(values, 1.0 - 10.0 / len(values)))


def layer_metrics(tables: list[SpanTable], traced_walls: list[float],
                  untraced_walls: list[float], jobs: int) -> dict[str, float]:
    """Per-layer metrics over the traced invocations of one run.

    ``traced_walls[i]`` is the wall time of the process behind
    ``tables[i]``; ``untraced_walls`` are the same invocations untraced.
    """
    out: dict[str, float] = {}
    for metric, names in TIMES.items():
        out[metric] = sum(t.time(names) for t in tables)
    for metric, names in CALLS.items():
        out[metric] = float(sum(t.calls(names) for t in tables))
    for module in SELF_MODULES:
        out[f"{module}.self_s"] = sum(t.module_self_time(module) for t in tables)

    def total_extra(name: str) -> float:
        return sum(t.extra_sum([name]) for t in tables)

    out["frames.bytes_read"] = total_extra("frames.read_rgbc")
    raw_seconds = sum(t.calls(["frames.ClipStore.raw_second"]) for t in tables)
    out["frames.reads_per_raw_second"] = (
        out["frames.read_rgbc_calls"] / raw_seconds if raw_seconds else 0.0
    )
    out["autodiff.matmul_gflop"] = total_extra("autodiff.matmul") / 1e9
    out["autodiff.gelu_mb"] = total_extra("autodiff.gelu") / 1e6
    out["quantize.fake_quant_mb"] = total_extra("quantize.fake_quant") / 1e6
    lookups = sum(t.calls(["textmodel.PromptCache.lookup"]) for t in tables)
    out["textmodel.prompt_cache_hit_ratio"] = (
        total_extra("textmodel.PromptCache.lookup") / lookups if lookups else 0.0
    )

    seconds = [d for t in tables for d in t.durations(["detection.classify_second"])]
    out["detection.classify_second_p50_s"] = statistics.median(seconds) if seconds else 0.0
    out["detection.classify_second_tail_s"] = tail(seconds)
    session_wall = sum(t.time(["detection.classify_session"]) for t in tables)
    out["detection.worker_util"] = sum(seconds) / (jobs * session_wall) if session_wall else 0.0

    traced, untraced = sum(traced_walls), sum(untraced_walls)
    out["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    covered = sum(t.top_level_time() for t in tables)
    out["trace.unattributed_frac"] = (traced - covered) / traced if traced else 0.0
    return out


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in TIMES}
    units.update({name: "count" for name in CALLS})
    units.update({f"{module}.self_s": "s" for module in SELF_MODULES})
    units.update({
        "frames.bytes_read": "B",
        "frames.reads_per_raw_second": "ratio",
        "autodiff.matmul_gflop": "GFLOP",
        "autodiff.gelu_mb": "MB",
        "quantize.fake_quant_mb": "MB",
        "textmodel.prompt_cache_hit_ratio": "ratio",
        "detection.classify_second_p50_s": "s",
        "detection.classify_second_tail_s": "s",
        "detection.worker_util": "ratio",
        "trace.overhead_frac": "ratio",
        "trace.unattributed_frac": "ratio",
    })
    return units


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from fragreel import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
