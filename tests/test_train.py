import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from seqdet import loss as LS
from seqdet import net
from seqdet import tensor as T
from seqdet import train as TR
from seqdet.errors import ConfigError
from seqdet.postproc import make_priors
from seqdet.synth import (gen_sequence, load_dataset_root, load_video_dir, random_scene,
                          write_dataset)

from refimpl import composed_aclstm_step, composed_bce, composed_head_forward, graph_nodes
from test_tensor import assert_sweep_matches_retaining_oracle


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    for i in range(2):
        seq = gen_sequence(random_scene(50 + i, num_objects=1, length=8))
        write_dataset(seq, root / f"video_{i:03d}")
    return root


# ---------------------------------------------------------------------------
# random skip sampling


def test_rss_singleton_ranges():
    s = TR.random_skip_sample(8, 8, np.random.default_rng(0))
    assert (s.step, s.start) == (1, 1)
    assert s == range(1, 9)


def test_rss_v24_sp3_forces_sf1():
    # sp=3 is the maximum for v=24, seq_len=8; then sf has a single choice
    for seed in range(200):
        s = TR.random_skip_sample(24, 8, np.random.default_rng(seed))
        if s.step == 3:
            assert s.start == 1
            assert list(s) == [1, 4, 7, 10, 13, 16, 19, 22]
            break
    else:
        pytest.fail("sp=3 never drawn")


def test_rss_property_sweep():
    rng = np.random.default_rng(1)
    for v, seq_len in [(8, 8), (16, 8), (24, 8), (64, 8), (9, 3), (40, 5)]:
        for _ in range(500):
            s = TR.random_skip_sample(v, seq_len, rng)
            assert 1 <= s.step <= v // seq_len
            assert 1 <= s.start <= v - seq_len * s.step + 1
            assert len(s) == seq_len
            assert all(1 <= i <= v for i in s)
            spacing = {b - a for a, b in zip(s, s[1:])}
            assert spacing == {s.step}


def test_rss_rejects_short_video():
    with pytest.raises(ValueError):
        TR.random_skip_sample(5, 8, np.random.default_rng(0))


def test_rss_forced_sp():
    s = TR.random_skip_sample(24, 8, np.random.default_rng(2), sp=1)
    assert s.step == 1
    assert 1 <= s.start <= 17


# ---------------------------------------------------------------------------
# optimizers


def _param(name, data):
    return {name: T.parameter(np.array(data, dtype=np.float64), name)}


def test_zero_gradient_leaves_params_unchanged():
    p = _param("w", [1.0, -2.0])
    TR.sgd_step(p, {"w": np.zeros(2)}, 0.1)
    np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])
    q = _param("w", [1.0, -2.0])
    TR.rmsprop_step(q, {"w": np.zeros(2)}, 0.1, {})
    np.testing.assert_array_equal(q["w"].data, [1.0, -2.0])


def test_sgd_arithmetic():
    p = _param("w", [1.0])
    TR.sgd_step(p, {"w": np.array([2.0])}, 0.1)
    assert p["w"].data[0] == pytest.approx(0.8)


def test_rmsprop_single_step_hand_trace():
    p = _param("w", [1.0])
    g = np.array([2.0])
    state = {}
    TR.rmsprop_step(p, {"w": g}, 0.1, state)
    expect = 1.0 - 0.1 * 2.0 / (np.sqrt(0.1 * 4.0) + 1e-8)
    assert p["w"].data[0] == pytest.approx(expect, rel=1e-12)
    np.testing.assert_allclose(state["w"], [0.4])


def test_rmsprop_accumulator_evolves():
    p = _param("w", [0.0])
    state = {}
    for _ in range(3):
        TR.rmsprop_step(p, {"w": np.array([1.0])}, 0.01, state)
    np.testing.assert_allclose(state["w"], [1 - 0.9 ** 3], rtol=1e-12)


def test_clip_gradients_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert TR.global_norm(grads) == 5.0
    out = TR.clip_gradients(grads, 1.0, 5.0)
    assert TR.global_norm(out) == pytest.approx(1.0)
    assert TR.clip_gradients(grads, 0.0, 5.0) is grads
    assert TR.clip_gradients(grads, 6.0, 5.0) is grads


# ---------------------------------------------------------------------------
# config


def test_config_defaults_resolution():
    cfg = TR.TrainConfig().resolved(2)
    assert cfg.lr == 1e-4 and cfg.epochs == 40
    cfg3 = TR.TrainConfig().resolved(3)
    assert cfg3.lr == 1e-5 and cfg3.epochs == 10
    with pytest.raises(ConfigError):
        TR.TrainConfig().resolved(4)


@pytest.mark.parametrize("setting,message", [
    ({"seq_len": 0}, "seq_len = 0: must be >= 1"),
    ({"k": 0}, "k = 0: must be >= 1"),
    ({"lr": 0.0}, "lr = 0.0: must be finite and > 0"),
    ({"lr": float("inf")}, "lr = inf: must be finite and > 0"),
    ({"theta": 1.0}, "theta = 1.0: must be in [0, 1)"),
    ({"dropout": -0.1}, "dropout = -0.1: must be in [0, 1)"),
    ({"clip": float("nan")}, "clip = nan: must be finite and >= 0"),
    ({"epochs": -1}, "epochs = -1: must be >= 0"),
    ({"profile": "coco"}, "unknown dataset profile 'coco'"),
], ids=["seq_len", "k", "lr_zero", "lr_inf", "theta", "dropout", "clip", "epochs",
        "profile"])
def test_config_rejects_out_of_range_settings(setting, message):
    with pytest.raises(ConfigError) as err:
        TR.TrainConfig(**setting).resolved(2)
    assert str(err.value).startswith(message)


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seq_len = 8\nlr = 0.0001   # stage 2\ntheta = 0.1\n")
    out = TR.parse_config_file(p)
    assert out == {"seq_len": 8, "lr": 1e-4, "theta": 0.1}


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("momentum = 0.9\n")
    with pytest.raises(ConfigError, match="momentum"):
        TR.parse_config_file(p)
    p.write_text("lr = fast\n")
    with pytest.raises(ConfigError, match="lr"):
        TR.parse_config_file(p)
    # the stage comes from train --stage (sweep forces 3), never from a file
    p.write_text("stage = 2\n")
    with pytest.raises(ConfigError, match="unknown config key 'stage'"):
        TR.parse_config_file(p)


@pytest.mark.parametrize("line", ["x" * 200_000, "lr = " + "9" * 200_000 + "x",
                                  "y" * 200_000 + " = 1"], ids=["no_equals", "value", "key"])
def test_config_file_error_on_an_oversized_line_is_bounded(tmp_path, line):
    p = tmp_path / "big.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError) as err:
        TR.parse_config_file(p)
    message = str(err.value)
    assert message.startswith(f"{p}:1: ")
    assert len(message) - len(str(p)) <= 200, message


# ---------------------------------------------------------------------------
# detection over a video


def _det_rows(dets):
    return [(d.class_id, d.score, d.prior_index, d.box.tolist(),
             None if d.av is None else d.av.tolist()) for d in dets]


def test_static_detect_is_per_frame(tiny_root):
    """The static model has no state: each frame of a video detects as it
    would alone, as a one-frame video."""
    video = load_video_dir(tiny_root / "video_000")
    model_cfg = net.ModelConfig(temporal=False)
    params = net.init_params(11, model_cfg, with_lstm=False)
    frames = TR.detect_video(params, model_cfg, video, 0.2, "vid")
    assert [t for t, _ in frames] == list(range(1, 9))
    assert sum(len(d) for _, d in frames) > 0
    for t, dets in frames:
        (one, alone), = TR.detect_video(params, model_cfg,
                                        replace(video, frames=video.frames[t - 1:t]),
                                        0.2, "vid")
        assert one == 1
        assert _det_rows(dets) == _det_rows(alone), t
        assert all(d.av is None for d in dets)


def test_temporal_detect_first_frame_is_its_one_frame_run(tiny_root):
    """The temporal model starts every video from the zero state: its first
    frame detects as the one-frame video of that frame; later frames carry
    the state on."""
    video = load_video_dir(tiny_root / "video_001")
    model_cfg = net.ModelConfig()
    params = net.init_params(12, model_cfg)
    frames = TR.detect_video(params, model_cfg, video, 0.2, "vid")
    (_, first), = TR.detect_video(params, model_cfg,
                                  replace(video, frames=video.frames[:1]), 0.2, "vid")
    assert first and all(d.av is not None for d in first)
    assert _det_rows(frames[0][1]) == _det_rows(first)
    (_, second_alone), = TR.detect_video(params, model_cfg,
                                         replace(video, frames=video.frames[1:2]),
                                         0.2, "vid")
    assert _det_rows(frames[1][1]) != _det_rows(second_alone)


# ---------------------------------------------------------------------------
# stage runner


def sample_and_rng(video, cfg, stage, seed):
    """A stage's draw of frame indices, and the generator it was drawn
    from, which the dropout masks share as in run_stage."""
    rng = np.random.default_rng(seed)
    indices = TR.random_skip_sample(len(video.frames), cfg.seq_len, rng,
                                    sp=1 if stage == 3 else None)
    return indices, rng


def sequence_graph(root, stage):
    video = load_video_dir(root / "video_000")
    model_cfg = net.ModelConfig()
    cfg = TR.TrainConfig(seq_len=4).resolved(stage)
    indices, rng = sample_and_rng(video, cfg, stage, 0)
    total, _parts = TR._train_sequence(net.init_params(7, model_cfg), video, indices, cfg,
                                       model_cfg, make_priors(), rng, stage == 3)
    return total


def test_one_frame_static_loss_is_the_frame_loss(tiny_root):
    """Stage 1's step is the sequence builder over one frame of the static
    model: the frame loss without L_att, with zero L_att and L_asso parts."""
    video = load_video_dir(tiny_root / "video_001")
    model_cfg = net.ModelConfig(temporal=False)
    params = net.init_params(9, model_cfg, with_lstm=False)
    cfg = TR.TrainConfig().resolved(1)
    priors = make_priors()
    total, parts = TR._train_sequence(params, video, (5,), cfg, model_cfg, priors,
                                      None, with_asso=False)
    (head, att), = net.frame_outputs([video.frames[4]], params, model_cfg)
    assert att is None
    m = LS.match_priors(*TR.frame_ground_truth(video, 5), priors)
    l_loc, l_conf = LS.loc_conf_loss(head, m)
    node = LS.frame_loss_node(l_loc, l_conf, None, m.num_matched, TR.LOSS_WEIGHTS)
    assert total.item() == node.item()
    assert parts == {"L_loc": l_loc.item(), "L_conf": l_conf.item(), "L_att": 0.0,
                     "L_asso": 0.0, "L_total": node.item()}
    grads, want = T.backward(total), T.backward(node)
    assert sorted(grads) == sorted(want) == sorted(params)
    for name in want:
        assert np.array_equal(grads[name], want[name]), name


def test_stage3_graph_stays_close_to_stage2(tiny_root):
    """The association term adds a few nodes per class and frame, not one
    per kept detection: at init params nearly every prior passes theta."""
    sizes = {stage: len(graph_nodes(sequence_graph(tiny_root, stage))) for stage in (2, 3)}
    assert sizes[3] <= 1.5 * sizes[2], sizes


@pytest.mark.parametrize("stage", [2, 3])
def test_sequence_sweep_matches_retaining_oracle(tiny_root, stage):
    assert_sweep_matches_retaining_oracle(sequence_graph(tiny_root, stage))


def _composed_attention_loss(att_maps, gt_boxes):
    target = LS.box_indicator_map(gt_boxes, LS.CANVAS)
    return T.add_n([composed_bce(a, target) for a in att_maps])


def _composed_heads(hidden_pyramid, params):
    return net.HeadOut(*composed_head_forward(hidden_pyramid, params))


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("stage,seed", [(2, 0), (2, 46), (3, 0), (3, 46)])
def test_sequence_equals_the_composed_graph_bitwise(tmp_path, monkeypatch, stage, seed):
    """An 8-frame stage-2/3 sequence built from the fused nodes (a.x and
    its dropout inside convlstm_cell, the resize inside bce_mean, the heads
    as one conv_gather node) against the same sequence built from the
    composed graph: refimpl.composed_aclstm_step with its own a.x and
    dropout nodes, a bilinear_resize node before each bce_mean, and per
    level conv2d -> gather -> concat heads. Loss parts and every gradient
    agree bit for bit, with attention on and off and dropout 0 and 0.2, on
    the benchmark's training scene for the seed."""
    seq = gen_sequence(random_scene(seed + 3, num_objects=2, length=24, flicker=0.3,
                                    blink=0.25))
    write_dataset(seq, tmp_path / "video")
    video = load_video_dir(tmp_path / "video")
    priors = make_priors()
    indices = tuple(range(3, 11)) if stage == 3 else tuple(range(1, 17, 2))
    composed = [(net, "attention_convlstm_step", composed_aclstm_step),
                (net, "head_forward", _composed_heads),
                (LS, "attention_loss", _composed_attention_loss)]
    init = net.init_params(seed, net.ModelConfig())
    for attention, dropout in itertools.product((True, False), (0.0, 0.2)):
        cfg = TR.TrainConfig(dropout=dropout, attention=attention).resolved(stage)
        model_cfg = net.ModelConfig(attention_enabled=attention)
        results = []
        for fused in (True, False):
            with monkeypatch.context() as m:
                for module, name, f in [] if fused else composed:
                    m.setattr(module, name, f)
                params = {n: T.constant(p.data) if n.startswith(net.FROZEN_PREFIXES)
                          else T.parameter(p.data, n) for n, p in init.items()}
                loss, parts = TR._train_sequence(params, video, indices, cfg, model_cfg,
                                                 priors, np.random.default_rng(seed),
                                                 with_asso=stage == 3)
                results.append((parts, T.backward(loss)))
        (parts, grads), (parts_ref, grads_ref) = results
        case = (attention, dropout)
        assert parts.keys() == parts_ref.keys(), case
        assert np.array_equal(_bits(list(parts.values())), _bits(list(parts_ref.values()))), case
        assert parts["L_att"] > 0 if attention else parts["L_att"] == 0, case
        assert sorted(grads) == sorted(grads_ref), case
        assert any(n.startswith("lstm.") for n in grads) and "head.l0.kernel" in grads, case
        for name in grads_ref:
            assert np.array_equal(grads[name].view(np.uint64),
                                  grads_ref[name].view(np.uint64)), (case, name)


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_each_step_starts_without_the_previous_graph(tiny_root, tmp_path, monkeypatch, stage):
    """By the time a step builds its graph, every interior node array of the
    earlier steps' graphs has been freed (refcounts alone, no gc pass)."""
    s1 = TR.run_stage(1, tiny_root, tmp_path / "s1", TR.TrainConfig(seed=2, epochs=0))
    build = TR._train_sequence
    spent = []

    def watched(*args, **kwargs):
        assert all(ref() is None for refs in spent for ref in refs), "a spent graph is alive"
        loss, parts = build(*args, **kwargs)
        spent.append([weakref.ref(n.data) for n in graph_nodes(loss) if n.parents])
        return loss, parts

    monkeypatch.setattr(TR, "_train_sequence", watched)
    TR.run_stage(stage, tiny_root, tmp_path / "out",
                 TR.TrainConfig(seed=2, epochs=2, seq_len=4), init_ckpt=s1["checkpoint"])
    assert len(spent) == (32 if stage == 1 else 4)
    assert all(ref() is None for refs in spent for ref in refs)


def test_stage2_requires_checkpoint(tiny_root, tmp_path):
    with pytest.raises(ConfigError):
        TR.run_stage(2, tiny_root, tmp_path / "s2", TR.TrainConfig(seed=1))


def test_stage1_then_stage2_freezing_and_split(tiny_root, tmp_path):
    cfg = TR.TrainConfig(seed=3, epochs=1)
    s1 = TR.run_stage(1, tiny_root, tmp_path / "s1", cfg)
    header, *rows = s1["loss_csv"].read_text().splitlines()
    assert header == "epoch,step,L_loc,L_conf,L_att,L_asso,L_total"
    # one row per frame of the two 8-frame videos; stage 1 has no L_att or L_asso
    assert len(rows) == 16
    assert all(row.split(",")[4:6] == ["0", "0"] for row in rows)

    def frozen_bytes(params):
        return {n: p.data.tobytes() for n, p in params.items()
                if n.startswith(net.FROZEN_PREFIXES)}

    params1, _ = net.load_checkpoint(s1["checkpoint"])
    s2 = TR.run_stage(2, tiny_root, tmp_path / "s2", cfg, init_ckpt=s1["checkpoint"])
    params2, model_cfg2 = net.load_checkpoint(s2["checkpoint"])
    assert frozen_bytes(params1) == frozen_bytes(params2) != {}
    assert any(n.startswith("lstm.") for n in params2)
    assert model_cfg2.temporal
    # heads and temporal units actually moved
    moved_head = any(not np.array_equal(params1[n].data, params2[n].data)
                     for n in params1 if n.startswith("head."))
    assert moved_head


def test_stage2_stops_on_non_finite_loss(tmp_path):
    root = tmp_path / "data"
    write_dataset(gen_sequence(random_scene(60, num_objects=1, length=4)),
                  root / "video_000")
    for f in (root / "video_000" / "frames").glob("*.tnsr"):
        T.save_tnsr(f, np.full(T.load_tnsr(f).shape, np.nan))
    s1 = TR.run_stage(1, root, tmp_path / "s1", TR.TrainConfig(epochs=0))
    with pytest.raises(FloatingPointError, match="stage 2 epoch 1 step 1: non-finite"):
        TR.run_stage(2, root, tmp_path / "s2", TR.TrainConfig(epochs=1, seq_len=2),
                     init_ckpt=s1["checkpoint"])
    assert not (tmp_path / "s2" / "loss.csv").exists()
    assert not (tmp_path / "s2" / "checkpoint").exists()


@pytest.mark.parametrize("stage", [1, 2])
def test_gt_class_above_num_classes_fails_before_first_step(tmp_path, stage, monkeypatch):
    root = tmp_path / "data"
    write_dataset(gen_sequence(random_scene(61, num_objects=1, length=4)),
                  root / "video_000")
    gt = root / "video_000" / "gt.csv"
    gt.write_text(gt.read_text() + "3,9,10,10,20,20,1,-1,-1,-1,7\n")
    init = None
    if stage == 2:
        model = net.ModelConfig(temporal=False)
        init = tmp_path / "s1"
        net.save_checkpoint(init, net.init_params(0, model, with_lstm=False), model.to_meta())

    def no_step(*_a, **_k):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(TR, "_train_sequence", no_step)
    with pytest.raises(ConfigError, match="^video_000: gt class 7 exceeds the model's "
                                          "num_classes = 4$"):
        TR.run_stage(stage, root, tmp_path / "out", TR.TrainConfig(epochs=1, seq_len=2),
                     init_ckpt=init)
    assert not (tmp_path / "out" / "loss.csv").exists()


def test_stage2_zero_epochs_round_trips_checkpoint(tiny_root, tmp_path):
    cfg = TR.TrainConfig(seed=4, epochs=1)
    s1 = TR.run_stage(1, tiny_root, tmp_path / "s1", cfg)
    s2 = TR.run_stage(2, tiny_root, tmp_path / "s2", cfg, init_ckpt=s1["checkpoint"])
    z = TR.run_stage(2, tiny_root, tmp_path / "z", TR.TrainConfig(seed=4, epochs=0),
                     init_ckpt=s2["checkpoint"])
    for f in sorted(s2["checkpoint"].iterdir()):
        assert (z["checkpoint"] / f.name).read_bytes() == f.read_bytes(), f.name
    # carried-over parameters from a stage-1 input are also byte-identical
    z1 = TR.run_stage(2, tiny_root, tmp_path / "z1", TR.TrainConfig(seed=4, epochs=0),
                      init_ckpt=s1["checkpoint"])
    for f in sorted(s1["checkpoint"].iterdir()):
        if f.name in ("manifest.txt", "meta.txt"):
            continue
        assert (z1["checkpoint"] / f.name).read_bytes() == f.read_bytes(), f.name


def test_same_seed_same_checkpoint_bytes(tiny_root, tmp_path):
    cfg = TR.TrainConfig(seed=5, epochs=1)
    a = TR.run_stage(1, tiny_root, tmp_path / "a", cfg)
    b = TR.run_stage(1, tiny_root, tmp_path / "b", cfg)
    for f in sorted(a["checkpoint"].iterdir()):
        assert (b["checkpoint"] / f.name).read_bytes() == f.read_bytes()
    assert a["loss_csv"].read_bytes() == b["loss_csv"].read_bytes()


def test_optimizer_split_update_rules(tiny_root, tmp_path):
    s1 = TR.run_stage(1, tiny_root, tmp_path / "s1", TR.TrainConfig(seed=6, epochs=1))
    cfg2 = TR.TrainConfig(seed=6, epochs=1).resolved(2)
    params, model_cfg = net.load_checkpoint(s1["checkpoint"])
    # promoted as run_stage does: every tensor outside FROZEN_PREFIXES trains
    params = {n: p if n.startswith(net.FROZEN_PREFIXES) else T.parameter(p.data, n)
              for n, p in params.items()}
    net.init_lstm_params(np.random.default_rng(0), params)
    model_cfg.temporal = True
    videos = sorted(load_dataset_root(tiny_root), key=lambda v: v.name)
    indices, rng = sample_and_rng(videos[0], cfg2, 2, 7)
    total, _ = TR._train_sequence(params, videos[0], indices, cfg2, model_cfg, make_priors(),
                                  rng, with_asso=False)
    grads = T.backward(total)
    assert any(n.startswith("head.") for n in grads)
    assert any(n.startswith("lstm.") for n in grads)
    assert not any(n.startswith(net.FROZEN_PREFIXES) for n in grads)
    snapshot = {n: p.data.copy() for n, p in params.items()}
    lr = 1e-4
    sgd_params = {n: p for n, p in params.items()
                  if n.startswith("head.")}
    rms_params = {n: p for n, p in params.items() if n.startswith("lstm.")}
    TR.sgd_step(sgd_params, grads, lr)
    TR.rmsprop_step(rms_params, grads, lr, {})
    for n, g in grads.items():
        if n.startswith("head."):
            np.testing.assert_allclose(params[n].data, snapshot[n] - lr * g,
                                       rtol=0, atol=1e-15)
        else:
            expect = snapshot[n] - lr * g / (np.sqrt(0.1 * g * g) + 1e-8)
            np.testing.assert_allclose(params[n].data, expect, rtol=1e-12, atol=1e-15)


def test_stage2_clips_only_the_trained_gradients(tiny_root, tmp_path, monkeypatch):
    seen = []
    clip = TR.clip_gradients

    def record(grads, *args):
        seen.append(sorted(grads))
        return clip(grads, *args)

    monkeypatch.setattr(TR, "clip_gradients", record)
    s1 = TR.run_stage(1, tiny_root, tmp_path / "s1", TR.TrainConfig(seed=8, epochs=0))
    TR.run_stage(2, tiny_root, tmp_path / "s2", TR.TrainConfig(seed=8, epochs=1, clip=0.5),
                 init_ckpt=s1["checkpoint"])
    assert len(seen) == 2
    for names in seen:
        assert any(n.startswith("head.") for n in names)
        assert any(n.startswith("lstm.") for n in names)
        assert not any(n.startswith(net.FROZEN_PREFIXES) for n in names)


def test_stage2_stops_on_non_finite_gradient(tiny_root, tmp_path, monkeypatch):
    s1 = TR.run_stage(1, tiny_root, tmp_path / "s1", TR.TrainConfig(seed=9, epochs=0))
    backward = T.backward

    def nan_lstm_gradient(loss):
        grads = backward(loss)
        grads["lstm.low.gates.bias"] = np.full_like(grads["lstm.low.gates.bias"], np.nan)
        return grads

    monkeypatch.setattr(T, "backward", nan_lstm_gradient)
    with pytest.raises(FloatingPointError,
                       match="stage 2 epoch 1 step 1: non-finite gradient norm nan"):
        TR.run_stage(2, tiny_root, tmp_path / "s2", TR.TrainConfig(seed=9, epochs=1),
                     init_ckpt=s1["checkpoint"])
    assert not (tmp_path / "s2" / "checkpoint").exists()


# ---------------------------------------------------------------------------
# gradient-check driver


def test_linear_case_is_exact():
    rows = TR.grad_check(TR.build_linear_head_case())
    assert len(rows) == 2
    assert max(r.max_rel_err for r in rows) < 1e-8


def test_aclstm_case_under_tolerance():
    case = TR.build_aclstm_case()
    n_params = sum(p.data.size for p in case.params.values())
    assert n_params <= 5000
    rows = TR.grad_check(case)
    assert len(rows) == len(case.params)
    assert rows == sorted(rows, key=lambda r: -r.max_rel_err)
    assert rows[0].max_rel_err < 1e-4
