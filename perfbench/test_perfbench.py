"""Self-tests of the benchmark's own machinery (not of the program).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestInputs:
    def test_detect_inputs_are_a_function_of_the_seed(self, tmp_path):
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            inputs.make_detect_inputs(tmp_path / name, seed, "toy", 6, 4, 4, reference_seconds=2)
        a, b, c = (_tree_bytes(tmp_path / n) for n in "abc")
        assert a == b
        assert a["data/CSGO/session.rgbc"] != c["data/CSGO/session.rgbc"]
        # the reference seconds and the weights do not depend on the seed
        second = 4 * 4 * 3 * inputs.FPS
        header = 24
        assert a["data/CSGO/session.rgbc"][: header + 2 * second] == \
            c["data/CSGO/session.rgbc"][: header + 2 * second]
        assert a["model.xckp"] == c["model.xckp"]

    def test_finetune_inputs_are_a_function_of_the_seed(self, tmp_path):
        inputs.make_finetune_inputs(tmp_path / "a", 9, detect_seconds=2)
        inputs.make_finetune_inputs(tmp_path / "b", 9, detect_seconds=2)
        inputs.make_finetune_inputs(tmp_path / "c", 10, detect_seconds=2)
        a, b, c = (_tree_bytes(tmp_path / n) for n in "abc")
        assert a == b
        assert a.keys() == c.keys()
        assert a["events.json"] != c["events.json"]
        assert len([k for k in a if k.startswith("data/") and k.endswith(".rgbc")]) > 8

    def test_named_configs_load(self, tmp_path):
        from fragreel.config import load_run_config

        for model in inputs.MODEL_CONFIGS:
            path = inputs.write_run_config(tmp_path / f"{model}.json", model)
            run_config = load_run_config(str(path))
            assert run_config.jobs == 2


class TestSelfTime:
    def table(self):
        # thread 0: root [0, 10] -> a [1, 4]
        # thread 1 (pool worker, submitted by root): b [2, 9] -> c [3, 5]
        return tracing.SpanTable(
            sid=[0, 1, 2, 3],
            parent=[-1, 0, 0, 2],
            name=[0, 1, 2, 3],
            tid=[0, 0, 1, 1],
            start=[0.0, 1.0, 2.0, 3.0],
            end=[10.0, 4.0, 9.0, 5.0],
            extra=[0.0, 0.0, 0.0, 0.0],
            names=["m.root", "m.a", "n.b", "n.c"],
        )

    def test_children_on_other_threads_do_not_reduce_self_time(self):
        table = self.table()
        assert table.self_time.tolist() == [7.0, 3.0, 5.0, 2.0]
        assert table.module_self_time("m") == 10.0
        assert table.module_self_time("n") == 7.0

    def test_group_time_counts_nested_members_once(self):
        table = self.table()
        assert table.time(["n.b", "n.c"]) == 7.0
        assert table.time(["m.a", "n.c"]) == 5.0
        assert table.top_level_time() == 10.0

    def test_round_trip_through_a_traced_process(self, tmp_path):
        recorder = tracing.Recorder()

        def leaf():
            time.sleep(0.001)

        leaf_w = recorder.wrap(leaf, "x.leaf")

        def outer():
            with recorder.pool_class()(max_workers=2) as pool:
                list(pool.map(lambda _: leaf_w(), range(3)))

        recorder.wrap(outer, "x.outer")()
        path = tmp_path / "spans.npz"
        recorder.dump(str(path))
        table = tracing.SpanTable.load(path)
        assert table.calls(["x.leaf"]) == 3
        outer_index = table.names.index("x.outer")
        leaves = table.name != outer_index
        assert (table.name[table.parent[leaves]] == outer_index).all()
        assert not table.same_thread[leaves].any()


def test_marginal_detect_rtf():
    assert run.detect_rtf(t_n=13.0, t_1=4.0, n=4) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        run.detect_rtf(t_n=4.0, t_1=4.0, n=1)


class TestPredictionChecks:
    labels = ("Kill", "Death", "Background")

    def write(self, path: Path, rows) -> Path:
        lines = []
        for second, probs in enumerate(rows):
            table = dict(zip(self.labels, probs))
            label = max(self.labels, key=lambda n: (table[n], -self.labels.index(n)))
            lines.append(json.dumps({"second": second, "label": label,
                                     "probability": table[label], "probs": table}))
        path.write_text("\n".join(lines) + "\n")
        return path

    def runner(self, tmp_path) -> run.Runner:
        return run.Runner(work=tmp_path, trace=False, deadline=time.monotonic() + 60)

    def test_a_corrupted_prediction_file_counts_as_failed(self, tmp_path):
        path = self.write(tmp_path / "preds.jsonl", [(0.5, 0.3, 0.2), (0.1, 0.7, 0.2)])
        r = self.runner(tmp_path)
        assert r.check("predictions", checks.check_predictions, path, 2, self.labels)
        text = path.read_text().replace('"label": "Death"', '"label": "Kill"')
        path.write_text(text)
        assert not r.check("predictions", checks.check_predictions, path, 2, self.labels)
        path.write_text(text[: len(text) // 2])
        assert not r.check("predictions", checks.check_predictions, path, 2, self.labels)
        assert (r.attempted, r.failed) == (3, 2)

    def test_reference_labels_bind_only_beyond_the_tolerance(self, tmp_path):
        t = checks.PROB_TOLERANCE
        path = self.write(tmp_path / "preds.jsonl", [(0.4 - 0.2 * t, 0.4 + 0.2 * t, 0.2)])
        near_tie = {"0": dict(zip(self.labels, (0.4 + 0.4 * t, 0.4 - 0.4 * t, 0.2)))}
        checks.check_predictions(path, 1, self.labels, near_tie)
        clear = {"0": dict(zip(self.labels, (0.4 + 0.75 * t, 0.4 - 0.75 * t, 0.2)))}
        with pytest.raises(checks.CheckFailed, match="label"):
            checks.check_predictions(path, 1, self.labels, clear)
        far = {"0": dict(zip(self.labels, (0.2, 0.6, 0.2)))}
        with pytest.raises(checks.CheckFailed, match="reference"):
            checks.check_predictions(path, 1, self.labels, far)

    def test_highlight_must_match_the_recomputed_cut_list(self, tmp_path):
        preds = self.write(tmp_path / "preds.jsonl", [(0.6, 0.2, 0.2)] * 4)
        from fragreel.cli import main

        cuts = tmp_path / "cuts.json"
        assert main(["highlight", "--predictions", str(preds), "--game", "CSGO",
                     "--video", "v.rgbc", "--session-len", "4", "--out", str(cuts)]) == 0
        checks.check_highlight(preds, cuts, 4.0, "v.rgbc")
        cuts.write_text(cuts.read_text().replace('"Kill"', '"Death"'))
        with pytest.raises(checks.CheckFailed):
            checks.check_highlight(preds, cuts, 4.0, "v.rgbc")
