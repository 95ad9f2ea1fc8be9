import os

import numpy as np
import pytest

from seqdet import cli
from seqdet import tracker as TK
from seqdet.postproc import read_detections_jsonl
from seqdet.tensor import load_tnsr, save_tnsr


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "data"
    assert run("--seed", 3, "gen", "--scenario", "crossing-pair", "--videos", 2,
               "--frames", 10, "--out", root, "--emit-detections") == 0
    return root


def test_gen_layout_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("--seed", 7, "gen", "--videos", "2", "--frames", "6",
                   "--out", out) == 0
    for sub in ("video_000", "video_001"):
        assert (a / sub / "gt.csv").exists()
        frames = sorted((a / sub / "frames").glob("*.tnsr"))
        assert len(frames) == 6
        assert frames[0].name == "000001.tnsr"
        for f in frames:
            assert f.read_bytes() == (b / sub / "frames" / f.name).read_bytes()
        assert (a / sub / "gt.csv").read_bytes() == (b / sub / "gt.csv").read_bytes()
    assert (a / "run_config.txt").exists()


def test_track_from_jsonl_deterministic(dataset, tmp_path):
    dets = dataset / "video_000" / "detections.jsonl"
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    for out in (r1, r2):
        assert run("track", "--dets", dets, "--out", out) == 0
    assert r1.read_bytes() == r2.read_bytes()
    rows = TK.read_mot_csv(r1)
    assert rows, "tracker produced no rows"
    ids = {r[1] for r in rows}
    assert len(ids) >= 2


def test_track_ingestion_path_with_embeddings(dataset, tmp_path):
    # re-route: convert oracle JSONL to MOT csv + embedding sidecar, re-track
    by_frame = read_detections_jsonl(dataset / "video_000" / "detections.jsonl")
    frames = [(f, by_frame[f]) for f in sorted(by_frame)]
    rows = []
    embs = []
    mot_in = tmp_path / "in.csv"
    with open(mot_in, "w") as fh:
        for f, dets in frames:
            for d in dets:
                x1, y1, x2, y2 = d.box * 96
                fh.write(f"{f},1,{x1:.4f},{y1:.4f},{x2 - x1:.4f},{y2 - y1:.4f},"
                         f"{d.score:.4f},-1,-1,-1,{d.class_id}\n")
                embs.append(d.av)
    save_tnsr(tmp_path / "emb.tnsr", np.stack(embs))
    out = tmp_path / "tracked.csv"
    assert run("track", "--mot", mot_in, "--embeddings", tmp_path / "emb.tnsr",
               "--out", out) == 0
    assert TK.read_mot_csv(out)


def test_eval_mot_perfect_fixture(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    rows = "".join(f"{f},1,10,10,20,20,1,-1,-1,-1\n" for f in range(1, 11))
    gt.write_text(rows)
    res = tmp_path / "res.csv"
    res.write_text(rows)
    assert run("eval-mot", "--res", res, "--gt", gt, "--out", tmp_path / "rep") == 0
    printed = capsys.readouterr().out
    assert "100.0" in printed
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.splitlines()[1].startswith("res,1.000000")
    assert (tmp_path / "rep.txt").exists()


def test_eval_map_on_oracle_detections(dataset, capsys):
    assert run("eval-map", "--dets", dataset / "video_000" / "detections.jsonl",
               "--data", dataset / "video_000") == 0
    out = capsys.readouterr().out
    assert "mAP 1.0000" in out


def test_sweep_T_five_values(dataset, tmp_path):
    dets = dataset / "video_000" / "detections.jsonl"
    gt = dataset / "video_000" / "gt.csv"
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--param", "T", "--values", "0.6,0.8,1.0,1.2,1.4",
               "--dets", dets, "--gt-csv", gt, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,MOTA,IDS"
    assert len(lines) == 6
    for line in lines[1:]:
        t, mota, ids = line.split(",")
        float(t), float(mota), int(ids)


def test_sweep_tub_len(dataset, tmp_path):
    dets = dataset / "video_000" / "detections.jsonl"
    gt = dataset / "video_000" / "gt.csv"
    out = tmp_path / "tl.csv"
    assert run("sweep", "--param", "tub_len", "--values", "1,5,10",
               "--dets", dets, "--gt-csv", gt, "--out", out) == 0
    assert len(out.read_text().strip().splitlines()) == 4


def test_grad_check_linear_cli(tmp_path, capsys):
    out = tmp_path / "gc.csv"
    assert run("grad-check", "--case", "linear", "--out", out) == 0
    assert "worst" in capsys.readouterr().out
    assert out.read_text().startswith("name,max_rel_err")


def test_zero_epoch_checkpoint_then_detect_and_dump(dataset, tmp_path, capsys):
    ck = tmp_path / "s1"
    assert run("train", "--stage", "1", "--data", dataset, "--out", ck,
               "--epochs", "0") == 0
    s2 = tmp_path / "s2"
    assert run("train", "--stage", "2", "--data", dataset, "--out", s2,
               "--epochs", "0", "--init", ck / "checkpoint") == 0
    dets_dir = tmp_path / "dets"
    assert run("detect", "--ckpt", s2 / "checkpoint", "--data",
               dataset / "video_000", "--out", dets_dir, "--conf", "0.1") == 0
    assert (dets_dir / "video_000.jsonl").exists()
    dump = tmp_path / "att"
    assert run("dump-attention", "--ckpt", s2 / "checkpoint", "--data",
               dataset / "video_000", "--out", dump) == 0
    maps = sorted(dump.glob("att_*_l0.tnsr"))
    assert len(maps) == 10
    m = load_tnsr(maps[0])
    assert m.shape == (1, 24, 24)
    assert np.all((m > 0) & (m < 1))


def test_error_exit_code_and_cleanup(tmp_path, capsys):
    out = tmp_path / "result.csv"
    code = run("track", "--out", out)   # no input given
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()
    code = run("train", "--stage", "1", "--data", tmp_path / "missing",
               "--out", tmp_path / "t1")
    assert code == 1
    assert not (tmp_path / "t1").exists()


def test_track_rejects_three_number_box(tmp_path, capsys):
    dets = tmp_path / "short.jsonl"
    dets.write_text('{"frame": 1, "class": 1, "score": 0.5, "box": [0.1, 0.1, 0.5]}\n')
    out = tmp_path / "r.csv"
    assert run("track", "--dets", dets, "--out", out) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "short.jsonl:1:" in err
    assert not out.exists()


def test_train_on_nan_frame_exits_1_and_leaves_nothing(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("--seed", 2, "gen", "--videos", 1, "--frames", 4, "--out", data) == 0
    frame = data / "video_000" / "frames" / "000002.tnsr"
    save_tnsr(frame, np.full(load_tnsr(frame).shape, np.nan))
    out = tmp_path / "s1"
    assert run("train", "--stage", 1, "--data", data, "--out", out, "--epochs", 1) == 1
    err = capsys.readouterr().err
    assert "stage 1 epoch 1" in err and "non-finite" in err
    assert not (out / "loss.csv").exists()
    assert not (out / "checkpoint").exists()


def test_bad_config_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    code = run("--config", cfg, "train", "--stage", "1",
               "--data", tmp_path, "--out", tmp_path / "o")
    assert code == 1
    assert "warp_speed" in capsys.readouterr().err


def test_outdir_env_override(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "routed"))
    assert run("track", "--dets", dataset / "video_000" / "detections.jsonl",
               "--out", "rel.csv") == 0
    assert (tmp_path / "routed" / "rel.csv").exists()
