"""Tests of the benchmark harness itself: seeded inputs, the tracer's
wrapping and restoring, planted defects counted as failed operations,
and agreement between BENCHMARK.json and the metrics run.py prints.

    python -m pytest -q perfbench/tests
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from seqdet import cli, evaluation, postproc, synth, tensor, tracker, train  # noqa: E402


def _tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return W.build_inputs(tmp_path_factory.mktemp("inputs"), 3)


def test_inputs_are_deterministic_from_the_seed(inputs, tmp_path):
    again = W.build_inputs(tmp_path / "again", 3)
    other = W.build_inputs(tmp_path / "other", 4)
    assert _tree(inputs.root) == _tree(again.root)
    assert _tree(inputs.root) != _tree(other.root)


LOOKUP_SITES = [(train, "decode"), (train, "softmax_rows"),
                (train, "select_class_candidates"), (tracker, "iou"),
                (evaluation, "iou"), (postproc, "iou"),
                (tracker, "attention_vector_for_box"), (cli, "read_detections_jsonl"),
                (cli, "main"), (synth, "save_tnsr"), (tracker, "load_tnsr"),
                (tensor, "backward")]


def _tracer_wrappers():
    mods = tracing._modules().values()
    return [(m.__name__, a) for m in mods for a, v in vars(m).items()
            if hasattr(v, "__wrapped_by_tracer__")]


def test_tracer_wraps_every_lookup_site_and_restores_the_originals():
    originals = [getattr(m, a) for m, a in LOOKUP_SITES]
    with tracing.Tracer():
        for (m, a), orig in zip(LOOKUP_SITES, originals):
            assert getattr(m, a) is not orig, f"{m.__name__}.{a} not wrapped"
            assert getattr(m, a).__wrapped_by_tracer__ is orig
    for (m, a), orig in zip(LOOKUP_SITES, originals):
        assert getattr(m, a) is orig
    assert _tracer_wrappers() == []


def test_tracer_splits_self_from_inclusive_time_and_counts_nms_work():
    boxes = [[0.1, 0.1, 0.5, 0.5], [0.12, 0.1, 0.52, 0.5], [0.6, 0.6, 0.9, 0.9]]
    dets = [postproc.Detection(1, s, postproc.np.asarray(b))
            for s, b in zip((0.9, 0.8, 0.7), boxes)]
    with tracing.Tracer() as tr:
        kept = postproc.nms(dets, 0.45, 200)
    calls, incl, self_s = tr.stats["postproc.nms"]
    assert calls == 1 and len(kept) == 2
    assert tr.stats["postproc.iou_matrix"][0] == 2
    assert 0 <= self_s <= incl
    assert tr.counts["postproc.nms.candidates"] == 3
    assert tr.counts["postproc.nms.kept"] == 2


def _planting(plant):
    def main(argv):
        rc = cli.main(argv)
        plant(Path(argv[argv.index("--out") + 1]))
        return rc
    return main


def test_clean_operations_pass_and_keep_the_cpu_affinity(inputs, tmp_path):
    affinity = os.sched_getaffinity(0)
    session = W.Session(inputs, tmp_path, W.load_reference())
    ops = session.detect_ops()[:1] + session.train_ops()[:1] + session.track_ops()[:3]
    outcomes = [session.run(op) for op in ops]
    assert [o.error for o in outcomes] == [""] * len(ops)
    assert os.sched_getaffinity(0) == affinity
    assert outcomes[-2].value == {"mota": 1.0, "ids": 0}
    assert outcomes[-1].value == {"map": 1.0}


def test_overlapping_duplicate_detection_is_a_failed_operation(inputs, tmp_path):
    def plant(out):
        rec = {"frame": 1, "class": 2, "score": 0.9, "box": [0.1, 0.1, 0.4, 0.4],
               "id": -1}
        dup = dict(rec, score=0.85, box=[0.11, 0.1, 0.41, 0.4])
        with open(out / "video_000.jsonl", "a") as fh:
            fh.write(json.dumps(rec) + "\n" + json.dumps(dup) + "\n")

    session = W.Session(inputs, tmp_path, main=_planting(plant))
    outcome = session.run(session.detect_ops()[0])
    assert not outcome.ok
    assert "overlap above" in outcome.error


def test_nan_loss_row_is_a_failed_operation(inputs, tmp_path):
    def plant(out):
        path = out / "loss.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[3] = "nan"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    session = W.Session(inputs, tmp_path, main=_planting(plant))
    outcome = session.run(session.train_ops()[0])
    assert not outcome.ok
    assert "non-finite" in outcome.error


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.GROUPS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_speed_sampler_stops_and_the_pinning_is_undone():
    affinity = os.sched_getaffinity(0)
    allowed = W.pin_to_one_cpu()
    try:
        assert len(os.sched_getaffinity(0)) == 1
        with W.SpeedSampler(period=0.001) as sampler:
            t0 = time.perf_counter()
            time.sleep(0.05)
        assert not sampler._thread.is_alive()
    finally:
        os.sched_setaffinity(0, allowed)
    assert os.sched_getaffinity(0) == affinity
    assert sampler.around(t0, 0.05) > 0
    assert sampler.around(t0 + 100, 1) is None
    assert run.normalised(2.0, 2 * run.CAL_NOMINAL_S) == 1.0
    assert run.middle_mean([1, 2, 3, 100]) == 2.5


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "detect", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
