"""Video frames are made where they are used, one at a time.

`load_video_dir` checks every frame's header and reads no payload; each
reader of `Video.frames` reads the frames it indexes. `gen_sequence`
renders a frame each time `Sequence.frames` is indexed. So the memory a
command holds does not grow with the length of its video.
"""

import shutil
import tracemalloc

import numpy as np
import pytest

from seqdet import cli, net, synth
from seqdet import train as TR
from seqdet.postproc import CANVAS, make_priors, write_detections_jsonl

FRAME_BYTES = 3 * CANVAS * CANVAS * 8      # one decoded float64 frame


def _write_video(path, seed, length):
    seq = synth.gen_sequence(synth.random_scene(seed, num_objects=2, length=length))
    synth.write_dataset(seq, path)
    write_detections_jsonl(path / "detections.jsonl", synth.oracle_detections(seq))
    return path


@pytest.fixture(scope="module")
def videos(tmp_path_factory):
    root = tmp_path_factory.mktemp("streaming")
    return {n: _write_video(root / f"v{n}", 60 + n, n) for n in (8, 16, 32)}


@pytest.fixture
def reads(monkeypatch):
    """The paths synth.load_tnsr reads, in order."""
    seen = []
    original = synth.load_tnsr

    def counting(path):
        seen.append(path)
        return original(path)

    monkeypatch.setattr(synth, "load_tnsr", counting)
    return seen


def test_load_video_dir_reads_no_frame(videos, reads):
    video = synth.load_video_dir(videos[16])
    assert len(video.frames) == 16
    assert len(video.frames[3:9]) == 6
    assert reads == []


def test_detect_video_reads_each_frame_once(videos, reads):
    video = synth.load_video_dir(videos[8])
    reads.clear()
    model_cfg = net.ModelConfig()
    TR.detect_video(net.init_params(3, model_cfg), model_cfg, video, 0.3, "vid")
    assert reads == sorted((videos[8] / "frames").glob("*.tnsr"))


def test_stage2_sequence_reads_its_seq_len_frames(videos, reads):
    video = synth.load_video_dir(videos[16])
    reads.clear()
    model_cfg = net.ModelConfig()
    cfg = TR.TrainConfig(seq_len=4).resolved(2)
    rng = np.random.default_rng(0)
    indices = TR.random_skip_sample(len(video.frames), cfg.seq_len, rng)
    TR._train_sequence(net.init_params(7, model_cfg), video, indices, cfg, model_cfg,
                       make_priors(), rng, with_asso=False)
    frames = sorted((videos[16] / "frames").glob("*.tnsr"))
    assert reads == [frames[t - 1] for t in indices]
    assert len(reads) == cfg.seq_len


def test_eval_map_reads_no_frame(videos, reads, capsys):
    v = videos[8]
    assert cli.main(["eval-map", "--dets", str(v / "detections.jsonl"),
                     "--data", str(v)]) == 0
    assert "mAP" in capsys.readouterr().out
    assert reads == []


def _detect_peak(path, params, model_cfg):
    """Traced peak bytes of loading the video at path and detecting on it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = TR.detect_video(params, model_cfg, synth.load_video_dir(path), 0.3, "vid")
    peak = tracemalloc.get_traced_memory()[1] - base
    assert all(not dets for _t, dets in out)     # no output that grows per frame
    return peak


def test_detect_memory_does_not_grow_with_video_length(videos):
    model_cfg = net.ModelConfig()
    # trainable, as a library caller holds them right after training:
    # detection still records no tape
    params = net.init_params(3, model_cfg)
    tracemalloc.start()
    try:
        _detect_peak(videos[8], params, model_cfg)     # fill the lazy caches first
        short = _detect_peak(videos[8], params, model_cfg)
        long = _detect_peak(videos[32], params, model_cfg)
    finally:
        tracemalloc.stop()
    assert long - short < FRAME_BYTES, (short, long)


def _generation_peak(path, length):
    """Traced peak bytes of generating a crowded scene and writing it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    seq = synth.gen_sequence(synth.random_scene(5, num_objects=16, length=length))
    synth.write_dataset(seq, path)
    return tracemalloc.get_traced_memory()[1] - base


def test_generation_memory_does_not_grow_with_video_length(tmp_path):
    tracemalloc.start()
    try:
        _generation_peak(tmp_path / "warm", 8)
        short = _generation_peak(tmp_path / "short", 8)
        long = _generation_peak(tmp_path / "long", 32)
    finally:
        tracemalloc.stop()
    assert long - short < 2 * FRAME_BYTES, (short, long)


def _flickering_scene():
    """Rendered frames on a scene with flicker and blinking objects, and the
    same frames read in iteration order as int64 views."""
    seq = synth.gen_sequence(synth.random_scene(11, num_objects=5, length=10,
                                                flicker=0.3, blink=0.25))
    return seq.frames, [f.view(np.int64) for f in seq.frames]


def test_rendered_frames_do_not_depend_on_read_order():
    frames, want = _flickering_scene()
    for _ in range(2):
        got = [frames[t].view(np.int64) for t in reversed(range(len(frames)))][::-1]
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_rendered_frames_index_like_a_sequence():
    frames, want = _flickering_scene()
    assert len(frames) == 10
    part = frames[2:9:3]
    assert len(part) == 3
    for f, t in zip(part, (2, 5, 8), strict=True):
        assert np.array_equal(f.view(np.int64), want[t])
    assert np.array_equal(frames[-1].view(np.int64), want[9])
    assert np.array_equal(frames[-10].view(np.int64), want[0])
    assert np.array_equal(frames[::-1][0].view(np.int64), want[9])
    assert np.array_equal(part[-1].view(np.int64), want[8])
    for bad in (10, -11):
        with pytest.raises(IndexError):
            frames[bad]
    with pytest.raises(IndexError):
        part[3]


def test_truncated_last_frame_fails_before_any_output(videos, tmp_path, capsys):
    """The header check in load_video_dir, not the first read of the frame,
    refuses the video: eval-map, which reads no frame, fails as detect does."""
    video = shutil.copytree(videos[8], tmp_path / "cut")
    last = sorted((video / "frames").glob("*.tnsr"))[-1]
    last.write_bytes(last.read_bytes()[:-4])
    model_cfg = net.ModelConfig()
    ckpt = tmp_path / "ckpt"
    net.save_checkpoint(ckpt, net.init_params(3, model_cfg), model_cfg.to_meta())
    capsys.readouterr()
    for argv in (["eval-map", "--dets", video / "detections.jsonl", "--data", video,
                  "--out", tmp_path / "map" / "ap.csv"],
                 ["detect", "--ckpt", ckpt, "--data", video, "--out", tmp_path / "det"]):
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"seqdet: error: {last}: payload size")
    assert not (tmp_path / "map").exists() and not (tmp_path / "det").exists()
