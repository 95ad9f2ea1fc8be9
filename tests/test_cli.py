import argparse
import os

import numpy as np
import pytest

from seqdet import cli
from seqdet import train as TR
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


@pytest.mark.parametrize("argv, message", [
    (("--objects", -3), "number of objects must be >= 0, got -3"),
    (("--videos", -2), "--videos must be >= 1, got -2"),
    (("--videos", 0), "--videos must be >= 1, got 0"),
])
def test_gen_refuses_nonsense_counts(tmp_path, capsys, argv, message):
    out = tmp_path / "data"
    assert run("gen", *argv, "--emit-detections", "--out", out) == 1
    assert capsys.readouterr() == ("", f"seqdet: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_gen_refuses_a_one_frame_crossing_pair(tmp_path, capsys):
    out = tmp_path / "data"
    assert run("gen", "--scenario", "crossing-pair", "--frames", 1, "--out", out) == 1
    assert capsys.readouterr() == (
        "", "seqdet: error: a crossing pair needs >= 2 frames, got 1\n")
    assert list(tmp_path.iterdir()) == []


def test_failed_run_removes_the_directories_it_made(tmp_path, capsys):
    """The parents of --out that a failing run created go with it; those
    that were there before stay."""
    assert run("gen", "--objects", -3, "--out", tmp_path / "a" / "b" / "x") == 1
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "a").mkdir()
    assert run("gen", "--objects", -3, "--out", tmp_path / "a" / "b" / "x") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "a"]
    assert list((tmp_path / "a").iterdir()) == []
    assert run("gen", "--frames", 2, "--out", tmp_path / "a" / "b" / "x") == 0
    assert (tmp_path / "a" / "b" / "x" / "video_000" / "gt.csv").exists()
    capsys.readouterr()


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


def test_eval_map_scores_every_gt_class(tmp_path, capsys):
    """A gt class above the model's default four still counts: one exact
    class-5 detection against a class-5 and a class-1 box."""
    video = tmp_path / "video"
    (video / "frames").mkdir(parents=True)
    save_tnsr(video / "frames" / "000001.tnsr", np.zeros((3, 96, 96)))
    (video / "gt.csv").write_text("1,1,10,10,20,20,1,-1,-1,-1,5\n"
                                  "1,2,50,50,20,20,1,-1,-1,-1,1\n")
    dets = tmp_path / "dets.jsonl"
    dets.write_text('{"frame": 1, "class": 5, "score": 0.9, "id": -1, '
                    f'"box": {[10 / 96, 10 / 96, 30 / 96, 30 / 96]}}}\n')
    out = tmp_path / "map.csv"
    assert run("eval-map", "--dets", dets, "--data", video, "--out", out) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[eval-map] class 1: AP 0.0000", "[eval-map] class 5: AP 1.0000",
        "[eval-map] mAP 0.5000"]
    assert out.read_text() == "class,ap\n1,0.000000\n5,1.000000\nmean,0.500000\n"


def test_eval_map_refuses_a_frame_with_zero_extent(tmp_path, capsys):
    """A [3,0,0] frame is a valid TNSR file but no image: reading the video
    ends in one ConfigError line that names the frame, before any gt box is
    divided by the frame's size."""
    video = tmp_path / "video"
    (video / "frames").mkdir(parents=True)
    save_tnsr(video / "frames" / "000001.tnsr", np.zeros((3, 0, 0)))
    (video / "gt.csv").write_text("1,1,10,10,20,20,1,-1,-1,-1,1\n")
    dets = tmp_path / "dets.jsonl"
    dets.write_text('{"frame": 1, "class": 1, "score": 0.9, "id": -1, '
                    '"box": [0.1, 0.1, 0.3, 0.3]}\n')
    assert run("eval-map", "--dets", dets, "--data", video) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"seqdet: error: {video / 'frames' / '000001.tnsr'}: a frame must be "
                   f"[3,S,S] with S >= 1, got [3, 0, 0]"]


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
    """Rows and result file names give each tub_len as the int the run
    used, whatever form --values gives it in."""
    dets = dataset / "video_000" / "detections.jsonl"
    gt = dataset / "video_000" / "gt.csv"
    for i, (values, want) in enumerate((("1,5,10", ["1", "5", "10"]), ("2.0", ["2"]))):
        out = tmp_path / f"run{i}" / "tl.csv"
        assert run("sweep", "--param", "tub_len", "--values", values,
                   "--dets", dets, "--gt-csv", gt, "--out", out) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "tub_len,MOTA,IDS"
        assert [r.split(",")[0] for r in rows] == want
        assert sorted(p.name for p in out.parent.glob("tl_*.csv")) == \
            sorted(f"tl_tub_len{v}.csv" for v in want)


@pytest.mark.parametrize("values, message", [
    ("0,-5,2.7", "tub_len values must be whole numbers >= 1, got '0,-5,2.7'"),
    ("2.7", "tub_len values must be whole numbers >= 1, got '2.7'"),
    ("1,nan", "tub_len values must be whole numbers >= 1, got '1,nan'"),
    ("", "--values lists no value: ''"),
    (" , ", "--values lists no value: ' , '"),
])
def test_sweep_refuses_bad_values_and_writes_nothing(dataset, tmp_path, capsys, values,
                                                     message):
    dets = dataset / "video_000" / "detections.jsonl"
    gt = dataset / "video_000" / "gt.csv"
    assert run("sweep", "--param", "tub_len", "--values", values, "--dets", dets,
               "--gt-csv", gt, "--out", tmp_path / "sw" / "tl.csv") == 1
    assert capsys.readouterr().err == f"seqdet: error: {message}\n"
    assert list(tmp_path.iterdir()) == [dataset]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_theta_sweep_refuses_zero_epochs_and_writes_nothing(dataset, tmp_path, capsys, source):
    """A 0-epoch stage 3 logs no loss row for the sweep to report, so the
    setting is refused before anything is trained or written, whether it
    comes from --epochs or the --config file."""
    argv = ["sweep", "--param", "theta", "--values", "0.1", "--data", dataset / "video_000",
            "--init", tmp_path / "absent", "--out", tmp_path / "sw" / "theta.csv"]
    if source == "flag":
        argv += ["--epochs", 0]
    else:
        (dataset / "run.cfg").write_text("epochs = 0\n")
        argv = ["--config", dataset / "run.cfg", *argv]
    assert run(*argv) == 1
    assert capsys.readouterr() == (
        "", "seqdet: error: sweep --param theta needs --epochs >= 1, got 0\n")
    assert list(tmp_path.iterdir()) == [dataset]


@pytest.mark.parametrize("param,values,message", [
    ("theta", "0.1,1.5", "theta = 1.5: must be in [0, 1)"),
    ("T", "1.0,nan", "match_threshold must be > 0, got nan"),
    ("T", "0.6,inf", "match_threshold must be finite, got inf"),
])
def test_sweep_checks_every_value_before_the_first_run(dataset, tmp_path, capsys, monkeypatch,
                                                       param, values, message):
    """A value out of range is refused with one line before any value is
    trained or tracked, and nothing is written."""
    monkeypatch.setattr(TR, "run_stage", lambda *a, **k: pytest.fail("a stage ran"))
    monkeypatch.setattr(TK, "track_frames", lambda *a, **k: pytest.fail("a run tracked"))
    video = dataset / "video_000"
    argv = (("--data", video, "--init", tmp_path / "absent") if param == "theta"
            else ("--dets", video / "detections.jsonl", "--gt-csv", video / "gt.csv"))
    assert run("sweep", "--param", param, "--values", values, *argv,
               "--out", tmp_path / "sw" / "sweep.csv") == 1
    assert capsys.readouterr() == ("", f"seqdet: error: {message}\n")
    assert list(tmp_path.iterdir()) == [dataset]


@pytest.mark.parametrize("param,flag,value", [
    *(("theta", flag, value) for flag, value in (
        ("--dets", "d.jsonl"), ("--gt-csv", "gt.csv"), ("--T", 0.6), ("--G", 0.5),
        ("--tub-len", 3), ("--max-miss", 2), ("--similarity", "iou_only"))),
    *((param, flag, value) for param in ("T", "tub_len") for flag, value in (
        ("--data", "data"), ("--val-data", "val"), ("--init", "ckpt"), ("--epochs", 1))),
    ("T", "--T", 0.6),
    ("tub_len", "--tub-len", 3),
])
def test_sweep_refuses_the_flags_it_would_ignore(dataset, tmp_path, capsys, param, flag,
                                                 value):
    """A theta sweep tracks nothing and a T or tub_len sweep trains nothing,
    and --values replaces the swept flag: each such flag is refused with one
    line before any output."""
    video = dataset / "video_000"
    argv = (("--data", video, "--init", tmp_path / "absent") if param == "theta"
            else ("--dets", video / "detections.jsonl", "--gt-csv", video / "gt.csv"))
    assert run("sweep", "--param", param, "--values", "1", *argv, flag, value,
               "--out", tmp_path / "sw" / "sweep.csv") == 1
    captured = capsys.readouterr()
    assert captured.err == f"seqdet: error: sweep --param {param} takes no {flag}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [dataset]


def test_theta_sweep_logs_no_tracker_setting(dataset, tmp_path):
    """A theta sweep tracks nothing, so its run_config.txt names no tracker
    setting."""
    video = dataset / "video_000"
    assert run("train", "--stage", 1, "--epochs", 0, "--data", video,
               "--out", tmp_path / "s1") == 0
    assert run("sweep", "--param", "theta", "--values", "0.1", "--epochs", 1,
               "--data", video, "--init", tmp_path / "s1" / "checkpoint",
               "--out", tmp_path / "sw" / "theta.csv") == 0
    logged = (tmp_path / "sw" / "run_config.txt").read_text().splitlines()
    assert "param = theta" in logged
    assert not {line.split(" = ")[0] for line in logged} & {"T", "G", "tub_len", "max_miss",
                                                            "similarity"}


def test_each_command_logs_only_the_global_flags_it_reads(dataset, tmp_path, capsys):
    """--seed is logged by gen, train and the theta sweep, and --profile by
    train, detect and the theta sweep: the commands that read them. The
    other commands log neither, in run_config.txt or on the [config] line."""
    video = dataset / "video_000"
    dets, gt = video / "detections.jsonl", video / "gt.csv"
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    runs = [  # argv, the directory run_config.txt is written to, what it logs
        (("gen", "--frames", 2, "--out", tmp_path / "gen"), tmp_path / "gen", {"seed"}),
        (("train", "--stage", 1, "--epochs", 0, "--data", video, "--out", s1), s1,
         {"seed", "profile"}),
        (("train", "--stage", 2, "--epochs", 0, "--data", video, "--init", s1 / "checkpoint",
          "--out", s2), s2, {"seed", "profile"}),
        (("detect", "--ckpt", s2 / "checkpoint", "--data", dataset, "--out", tmp_path / "det"),
         tmp_path / "det", {"profile"}),
        (("dump-attention", "--ckpt", s2 / "checkpoint", "--data", video,
          "--out", tmp_path / "att"), tmp_path / "att", set()),
        (("track", "--dets", dets, "--out", tmp_path / "trk" / "r.csv"), tmp_path / "trk", set()),
        (("sweep", "--param", "T", "--values", 1.0, "--dets", dets, "--gt-csv", gt,
          "--out", tmp_path / "swT" / "s.csv"), tmp_path / "swT", set()),
        (("sweep", "--param", "tub_len", "--values", 3, "--dets", dets, "--gt-csv", gt,
          "--out", tmp_path / "swL" / "s.csv"), tmp_path / "swL", set()),
        (("sweep", "--param", "theta", "--values", 0.1, "--epochs", 1, "--data", video,
          "--init", s2 / "checkpoint", "--out", tmp_path / "swth" / "s.csv"),
         tmp_path / "swth", {"seed", "profile"}),
    ]
    for argv, log_dir, want in runs:
        assert run("--seed", 4, "--profile", "mot", *argv) == 0, argv
        logged = dict(line.split(" = ") for line in
                      (log_dir / "run_config.txt").read_text().splitlines())
        (config_line,) = [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("[config] ")]
        got = {"seed": "4", "profile": "mot"}
        assert {k: logged[k] for k in got if k in logged} == {k: got[k] for k in want}, argv
        assert {k for k in got if f" {k}=" in config_line} == want, argv


def test_track_flags_at_their_defaults_change_nothing(dataset, tmp_path, monkeypatch):
    """Unset tracker flags take TrackerParams' defaults: track with none of
    them, with each one, or with all of them spelled at that default writes
    the same result.csv and run_config.txt."""
    d = TK.TrackerParams()
    spelled = [("--T", d.match_threshold), ("--G", d.generation_score),
               ("--tub-len", d.tub_len_max), ("--max-miss", d.max_miss),
               ("--similarity", d.similarity)]
    runs = [(), *spelled, sum(spelled, ())]
    written = set()
    for i, flags in enumerate(runs):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))     # the same relative --out is logged
        assert run("track", "--dets", dataset / "video_000" / "detections.jsonl", *flags,
                   "--out", "trk/result.csv") == 0
        written.add(tuple((tmp_path / str(i) / "trk" / f).read_bytes()
                          for f in ("result.csv", "run_config.txt")))
    assert len(written) == 1


def test_track_refuses_a_nan_match_threshold(dataset, tmp_path, capsys):
    out = tmp_path / "trk" / "r.csv"
    assert run("track", "--dets", dataset / "video_000" / "detections.jsonl",
               "--T", "nan", "--out", out) == 1
    assert capsys.readouterr().err == "seqdet: error: match_threshold must be > 0, got nan\n"
    assert not (tmp_path / "trk").exists()


@pytest.mark.parametrize("value", ["inf", "1e400"])
def test_track_refuses_an_infinite_match_threshold(dataset, tmp_path, capsys, value):
    """No similarity exceeds an infinite T, so every detection would found
    its own identity."""
    out = tmp_path / "trk" / "r.csv"
    assert run("track", "--dets", dataset / "video_000" / "detections.jsonl",
               "--T", value, "--out", out) == 1
    assert capsys.readouterr().err == "seqdet: error: match_threshold must be finite, got inf\n"
    assert not (tmp_path / "trk").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_is_a_one_line_error(tmp_path, capsys, source):
    argv = ["gen", "--out", tmp_path / "g"]
    if source == "flag":
        argv = ["--seed", -1, *argv]
    else:
        (tmp_path / "run.cfg").write_text("seed = -1\n")
        argv = ["--config", tmp_path / "run.cfg", *argv]
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", "seqdet: error: seed = -1: must be >= 0\n")
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("extra,message", [
    (("--embeddings", "absent.tnsr"), "--dets input takes no --embeddings"),
    (("--mot", "absent.csv"), "--dets input takes no --mot"),
], ids=["embeddings", "mot"])
def test_track_refuses_an_input_flag_it_would_ignore(dataset, tmp_path, capsys, extra,
                                                     message):
    """--dets input makes --embeddings and --mot dead flags: each is refused
    before any output, even when its path does not exist."""
    out = tmp_path / "trk" / "r.csv"
    assert run("track", "--dets", dataset / "video_000" / "detections.jsonl", *extra,
               "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"seqdet: error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "trk").exists()


@pytest.mark.parametrize("command, flag", [
    ("track", ("--canvas", 0)),                 # frames are always CANVAS pixels wide
    ("sweep", ("--eval-conf", 0.02)),           # cli.MAP_CONF
    ("grad-check", ("--h", 1e-5)),              # tensor.finite_diff's own step
    ("grad-check", ("--tol", 1e-3)),            # cli.GRAD_TOL
], ids=["track_canvas", "sweep_eval_conf", "grad_check_h", "grad_check_tol"])
def test_constant_settings_have_no_flag(dataset, tmp_path, command, flag):
    """A command that runs without the flag is refused by argparse (exit 2)
    with it, and writes nothing."""
    dets = dataset / "video_000" / "detections.jsonl"
    argv = {"track": ("track", "--dets", dets),
            "sweep": ("sweep", "--param", "T", "--values", "1.0", "--dets", dets,
                      "--gt-csv", dataset / "video_000" / "gt.csv"),
            "grad-check": ("grad-check", "--case", "linear")}[command]
    assert run(*argv, "--out", tmp_path / "ok" / "r.csv") == 0
    with pytest.raises(SystemExit) as exc:
        run(*argv, *flag, "--out", tmp_path / "refused" / "r.csv")
    assert exc.value.code == 2
    assert not (tmp_path / "refused").exists()


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


def test_dump_attention_refuses_a_static_checkpoint(dataset, tmp_path, capsys):
    ck = tmp_path / "s1"
    assert run("train", "--stage", "1", "--data", dataset, "--out", ck,
               "--epochs", "0") == 0
    capsys.readouterr()
    out = tmp_path / "att"
    assert run("dump-attention", "--ckpt", ck / "checkpoint", "--data",
               dataset / "video_000", "--out", out) == 1
    assert capsys.readouterr().err == (
        f"seqdet: error: {ck / 'checkpoint'}: a static (stage-1) checkpoint has no "
        "attention maps; dump-attention needs a temporal one\n")
    assert not out.exists()


def test_dump_attention_refuses_a_no_attention_checkpoint(dataset, tmp_path, capsys):
    ck = tmp_path / "s1"
    assert run("train", "--stage", "1", "--data", dataset, "--out", ck,
               "--epochs", "0") == 0
    s2 = tmp_path / "s2"
    assert run("train", "--stage", "2", "--data", dataset, "--out", s2, "--epochs", "0",
               "--init", ck / "checkpoint", "--no-attention") == 0
    capsys.readouterr()
    out = tmp_path / "att"
    assert run("dump-attention", "--ckpt", s2 / "checkpoint", "--data",
               dataset / "video_000", "--out", out) == 1
    assert capsys.readouterr().err == (
        f"seqdet: error: {s2 / 'checkpoint'}: a --no-attention checkpoint has no "
        "attention maps; dump-attention needs one trained with attention\n")
    assert not out.exists()


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


def test_internal_error_names_itself_with_a_traceback(tmp_path, capsys, monkeypatch):
    """An exception that is not bad input (here an IndexError from a
    command) says "internal error", its type and message, then the
    traceback; partial outputs are removed and the exit code is 1."""
    out = tmp_path / "result.csv"

    def broken(args, guard):
        guard.register(args.out).write_text("partial")
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "cmd_track", broken)
    assert run("track", "--out", out) == 1
    err = capsys.readouterr().err
    first, *rest = err.splitlines()
    assert first == "seqdet: internal error: IndexError: list index out of range"
    assert rest[0] == "Traceback (most recent call last):"
    assert rest[-1] == "IndexError: list index out of range"
    assert "in broken" in err
    assert not out.exists()


def test_track_rejects_three_number_box(tmp_path, capsys):
    dets = tmp_path / "short.jsonl"
    dets.write_text('{"frame": 1, "class": 1, "score": 0.5, "box": [0.1, 0.1, 0.5]}\n')
    out = tmp_path / "r.csv"
    assert run("track", "--dets", dets, "--out", out) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "short.jsonl:1:" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["track", "eval-map"])
def test_deeply_nested_detections_line_is_a_one_line_error(dataset, tmp_path, capsys,
                                                            command):
    dets = tmp_path / "deep.jsonl"
    dets.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    out = tmp_path / "out" / "r.csv"
    tail = (("--out", out) if command == "track"
            else ("--data", dataset / "video_000", "--out", out))
    assert run(command, "--dets", dets, *tail) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"seqdet: error: {dets}:1: bad detection record (maximum recursion")
    assert err.count("\n") == 1
    assert not out.parent.exists()


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


@pytest.mark.parametrize("stage,setting,flags,message", [
    (2, "seq_len = 0", (), "seq_len = 0: must be >= 1"),
    (3, "k = -1", (), "k = -1: must be >= 1"),
    (1, None, ("--lr", "nan"), "lr = nan: must be finite and > 0"),
], ids=["seq_len_0", "k_minus_1", "lr_nan"])
def test_bad_training_setting_fails_before_data_loads(tmp_path, capsys, stage, setting,
                                                      flags, message):
    config = ()
    if setting is not None:
        (tmp_path / "run.cfg").write_text(setting + "\n")
        config = ("--config", tmp_path / "run.cfg")
    code = run(*config, "train", "--stage", stage, "--data", tmp_path / "missing",
               "--out", tmp_path / "o", *flags)
    assert code == 1
    assert capsys.readouterr().err == f"seqdet: error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("setting,flags,key,want", [
    ("profile = mot", (), "profile", "mot"),
    ("profile = mot", ("--profile", "vid"), "profile", "vid"),
    (None, (), "profile", "vid"),
    ("seed = 5", (), "seed", 5),
    ("seed = 5", ("--seed", 7), "seed", 7),
    ("seed = 5", ("--seed", 0), "seed", 0),
    (None, (), "seed", 0),
], ids=["profile_from_file", "profile_flag_over_file", "profile_default",
        "seed_from_file", "seed_flag_over_file", "seed_flag_0_over_file", "seed_default"])
def test_train_setting_precedence(tmp_path, setting, flags, key, want):
    """Every key: an explicit flag, else the --config file, else the
    TrainConfig default; args then hold what the run uses."""
    config = ()
    if setting is not None:
        (tmp_path / "run.cfg").write_text(setting + "\n")
        config = ("--config", str(tmp_path / "run.cfg"))
    args = cli.build_parser().parse_args(
        [*config, *map(str, flags), "train", "--stage", "1", "--data", "d", "--out", "o"])
    cfg = cli._train_config_from_args(args)
    assert getattr(cfg, key) == getattr(args, key) == want


def test_train_logs_the_profile_of_its_config_file(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("gen", "--videos", 1, "--frames", 2, "--out", data) == 0
    (tmp_path / "run.cfg").write_text("profile = mot\nseed = 5\n")
    assert run("--config", tmp_path / "run.cfg", "--seed", 7, "train", "--stage", 1,
               "--epochs", 0, "--data", data, "--out", tmp_path / "s1") == 0
    logged = (tmp_path / "s1" / "run_config.txt").read_text().splitlines()
    assert "profile = mot" in logged and "seed = 7" in logged
    capsys.readouterr()


def test_relative_out_is_under_the_working_directory(dataset, tmp_path, monkeypatch):
    """A relative --out resolves against the working directory, like every
    input path, whatever SEQDET_OUTDIR holds."""
    monkeypatch.setenv("SEQDET_OUTDIR", str(tmp_path / "routed"))
    monkeypatch.chdir(tmp_path)
    assert run("track", "--dets", dataset / "video_000" / "detections.jsonl",
               "--out", "rel/r.csv") == 0
    assert (tmp_path / "rel" / "r.csv").exists()
    assert "out = rel/r.csv" in (tmp_path / "rel" / "run_config.txt").read_text()
    assert not (tmp_path / "routed").exists()


def test_train_flags_are_the_config_keys():
    """train has one flag per CONFIG_KEYS setting but the global seed and
    profile, of that setting's type, and no other setting flag."""
    commands, = (a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    train = commands.choices["train"]
    settings = {a.dest: a for a in train._actions
                if a.dest not in ("help", "stage", "data", "out", "init", "no_attention")}
    keys = {k: t for k, t in TR.CONFIG_KEYS.items() if k not in ("seed", "profile")}
    assert set(settings) == set(keys)
    for key, action in settings.items():
        assert action.option_strings == ["--" + key.replace("_", "-")]
        assert action.type is keys[key] and action.default is None


def test_sweep_and_track_write_the_same_rows(tmp_path):
    """Incoming ids are discarded on both paths: two frame-1 records that
    carry "id": 7 are tracked as identities 1 and 2 by track and sweep."""
    dets = tmp_path / "d.jsonl"
    dets.write_text("".join(
        f'{{"frame": {f}, "class": 1, "score": 0.9, "box": [{x}, 0.1, {x + 0.2}, 0.3], '
        f'"id": 7}}\n' for f in (1, 2) for x in (0.1, 0.6)))
    gt = tmp_path / "gt.csv"
    gt.write_text("1,1,9.6,9.6,19.2,19.2,1,-1,-1,-1,1\n")
    assert run("track", "--dets", dets, "--similarity", "iou_only",
               "--out", tmp_path / "track.csv") == 0
    assert run("sweep", "--param", "T", "--values", "1.0", "--similarity", "iou_only",
               "--dets", dets, "--gt-csv", gt, "--out", tmp_path / "sweep.csv") == 0
    tracked = (tmp_path / "track.csv").read_text()
    assert [row.split(",")[:2] for row in tracked.splitlines()] == \
        [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]
    assert (tmp_path / "sweep_T1.0.csv").read_text() == tracked


@pytest.mark.parametrize("records,message", [
    ('{"frame": 1, "class": 1, "score": 0.9, "box": [0.1, 0.1, 0.3, 0.3], "av": [1, 2]}\n'
     '{"frame": 3, "class": 2, "score": 0.9, "box": [0.1, 0.1, 0.3, 0.3], "av": [1, 2, 3]}\n',
     "frame 3: a class 2 detection has an appearance vector of length 3, not 2"),
    ('{"frame": 1, "class": 1, "score": 0.9, "box": [0.1, 0.1, 0.3, 0.3], "av": [1, 2]}\n'
     '{"frame": 2, "class": 1, "score": 0.9, "box": [0.1, 0.1, 0.3, 0.3]}\n',
     "frame 2: a class 1 detection has no appearance vector"),
], ids=["lengths_2_and_3", "missing"])
def test_track_needs_one_av_length_under_attention_iou(tmp_path, capsys, records, message):
    dets = tmp_path / "d.jsonl"
    dets.write_text(records)
    out = tmp_path / "r.csv"
    assert run("track", "--dets", dets, "--out", out) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert message in err and "--similarity iou_only" in err
    assert not out.exists()
    assert run("track", "--dets", dets, "--similarity", "iou_only", "--out", out) == 0


def test_track_mot_input_without_embeddings(tmp_path, capsys):
    mot = tmp_path / "m.csv"
    mot.write_text("1,-1,10,10,20,20,0.9,-1,-1,-1\n2,-1,11,10,20,20,0.9,-1,-1,-1\n")
    out = tmp_path / "o.csv"
    assert run("track", "--mot", mot, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == ("seqdet: error: frame 1: a class 1 detection has no appearance "
                   "vector; track it with --similarity iou_only, or give --mot input "
                   "its --embeddings\n")
    assert not out.exists()
    assert run("track", "--mot", mot, "--similarity", "iou_only", "--out", out) == 0
    assert [r[:2] for r in TK.read_mot_csv(out)] == [(1, 1), (2, 1)]


@pytest.mark.parametrize("iou", ["nan", "0", "-0.5", "1.5", "inf"])
def test_eval_iou_outside_unit_interval_is_config_error(dataset, tmp_path, capsys, iou):
    video = dataset / "video_000"
    assert run("eval-map", "--dets", video / "detections.jsonl", "--data", video,
               "--iou", iou) == 1
    assert capsys.readouterr().err == \
        f"seqdet: error: IoU threshold must be in (0, 1], got {float(iou)}\n"
    assert run("eval-mot", "--res", video / "gt.csv", "--gt", video / "gt.csv",
               "--iou", iou, "--out", tmp_path / "rep") == 1
    assert capsys.readouterr().err == \
        f"seqdet: error: IoU threshold must be in (0, 1], got {float(iou)}\n"
    assert not (tmp_path / "rep.csv").exists()
