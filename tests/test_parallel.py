"""The parallelism helper: worker count, OpenBLAS pinning and its restore."""

import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import toy_model_config

from fragreel import parallel
from fragreel.catalogue import EventLabel, GameId
from fragreel.detection import classify_session
from fragreel.params import ModelParams
from fragreel.textmodel import prompt_set_for
from fragreel.training import eval_records

needs_blas = pytest.mark.skipif(
    parallel.blas_threads() is None,
    reason="no OpenBLAS thread-count symbol resolves through numpy",
)
PINNED = max(1, len(os.sched_getaffinity(0)) // 2)


class RecordingClips:
    """Per-second clips that note the thread and OpenBLAS count of each fetch."""

    def __init__(self, clips, fail_at=None):
        self.clips = clips
        self.fail_at = fail_at
        self.seen = []

    def __len__(self):
        return len(self.clips)

    def __getitem__(self, i):
        self.seen.append((threading.get_ident(), parallel.blas_threads()))
        if i == self.fail_at:
            raise RuntimeError(f"second {i} failed")
        return self.clips[i]


@pytest.fixture()
def setup():
    params = ModelParams.init(toy_model_config(), seed=7)
    prompt_set = prompt_set_for(GameId.OW2)
    rng = np.random.default_rng(5)
    clips = [rng.normal(size=(2, 4, 4, 3)).astype(np.float32) for _ in range(4)]
    return params, prompt_set, clips


@pytest.mark.parametrize("jobs, items, workers", [(2, 5, 2), (3, 2, 2), (2, 1, 1), (1, 5, 1), (0, 5, 1)])
def test_worker_count_is_jobs_capped_by_items(jobs, items, workers):
    assert parallel.worker_plan(jobs, items)[0] == workers


@needs_blas
def test_workers_split_the_cores_and_the_caller_count_returns(setup):
    params, prompt_set, clips = setup
    before = parallel.blas_threads()
    recording = RecordingClips(clips)
    classify_session(recording, prompt_set, params, jobs=2)
    assert {count for _, count in recording.seen} == {PINNED}
    assert parallel.blas_threads() == before


@needs_blas
def test_caller_count_returns_when_a_worker_raises(setup):
    params, prompt_set, clips = setup
    before = parallel.blas_threads()
    with pytest.raises(RuntimeError, match="second 1 failed"):
        classify_session(RecordingClips(clips, fail_at=1), prompt_set, params, jobs=2)
    assert parallel.blas_threads() == before


@needs_blas
def test_eval_records_pins_and_restores(setup):
    params, _, clips = setup
    seen = []

    def read(ref):
        seen.append(parallel.blas_threads())
        return ref.clip

    refs = [SimpleNamespace(game=GameId.CSGO, label=EventLabel.KILL, clip=clip) for clip in clips[:3]]
    before = parallel.blas_threads()
    records = eval_records(refs, read, params, jobs=2)
    assert [record.true_label for record in records] == [EventLabel.KILL] * 3
    assert set(seen) == {PINNED}
    assert parallel.blas_threads() == before


def test_session_shorter_than_jobs_runs_on_the_calling_thread(setup):
    params, prompt_set, clips = setup
    recording = RecordingClips(clips[:1])
    classify_session(recording, prompt_set, params, jobs=2)
    assert recording.seen == [(threading.get_ident(), parallel.blas_threads())]


def test_results_without_openblas_equal_the_pinned_run(setup, monkeypatch):
    params, prompt_set, clips = setup
    pinned = classify_session(clips, prompt_set, params, jobs=2)
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    assert parallel.worker_plan(2, len(clips)) == (2, None)
    assert classify_session(clips, prompt_set, params, jobs=2) == pinned
