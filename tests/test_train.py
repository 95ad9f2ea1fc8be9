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
    assert (s.sp, s.sf) == (1, 1)
    assert s.indices == tuple(range(1, 9))


def test_rss_v24_sp3_forces_sf1():
    # sp=3 is the maximum for v=24, seq_len=8; then sf has a single choice
    for seed in range(200):
        s = TR.random_skip_sample(24, 8, np.random.default_rng(seed))
        if s.sp == 3:
            assert s.sf == 1
            assert s.indices == (1, 4, 7, 10, 13, 16, 19, 22)
            break
    else:
        pytest.fail("sp=3 never drawn")


def test_rss_property_sweep():
    rng = np.random.default_rng(1)
    for v, seq_len in [(8, 8), (16, 8), (24, 8), (64, 8), (9, 3), (40, 5)]:
        for _ in range(500):
            s = TR.random_skip_sample(v, seq_len, rng)
            assert 1 <= s.sp <= v // seq_len
            assert 1 <= s.sf <= v - seq_len * s.sp + 1
            assert len(s.indices) == seq_len
            assert all(1 <= i <= v for i in s.indices)
            spacing = {b - a for a, b in zip(s.indices, s.indices[1:])}
            assert spacing == {s.sp}


def test_rss_rejects_short_video():
    with pytest.raises(ValueError):
        TR.random_skip_sample(5, 8, np.random.default_rng(0))


def test_rss_forced_sp():
    s = TR.random_skip_sample(24, 8, np.random.default_rng(2), sp=1)
    assert s.sp == 1
    assert 1 <= s.sf <= 17


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
    _, state = TR.rmsprop_step(p, {"w": g}, 0.1, {}, rho=0.9, eps=1e-8)
    expect = 1.0 - 0.1 * 2.0 / (np.sqrt(0.1 * 4.0) + 1e-8)
    assert p["w"].data[0] == pytest.approx(expect, rel=1e-12)
    np.testing.assert_allclose(state["w"], [0.4])


def test_rmsprop_accumulator_evolves():
    p = _param("w", [0.0])
    state = {}
    for _ in range(3):
        _, state = TR.rmsprop_step(p, {"w": np.array([1.0])}, 0.01, state)
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
    cfg = TR.TrainConfig(stage=2).resolved()
    assert cfg.lr == 1e-4 and cfg.epochs == 40
    cfg3 = TR.TrainConfig(stage=3).resolved()
    assert cfg3.lr == 1e-5 and cfg3.epochs == 10
    with pytest.raises(ConfigError):
        TR.TrainConfig(stage=4).resolved()


@pytest.mark.parametrize("setting,message", [
    ({"seq_len": 0}, "seq_len = 0: must be >= 1"),
    ({"k": 0}, "k = 0: must be >= 1"),
    ({"lr": 0.0}, "lr = 0.0: must be finite and > 0"),
    ({"lr": float("inf")}, "lr = inf: must be finite and > 0"),
    ({"theta": 1.0}, "theta = 1.0: must be in [0, 1)"),
    ({"dropout": -0.1}, "dropout = -0.1: must be in [0, 1)"),
    ({"clip": float("nan")}, "clip = nan: must be finite and >= 0"),
    ({"epochs": -1}, "epochs = -1: must be >= 0"),
    ({"asso_form": "median"}, "asso_form = 'median': must be running or global"),
    ({"profile": "coco"}, "unknown dataset profile 'coco'"),
], ids=["seq_len", "k", "lr_zero", "lr_inf", "theta", "dropout", "clip", "epochs",
        "asso_form", "profile"])
def test_config_rejects_out_of_range_settings(setting, message):
    with pytest.raises(ConfigError) as err:
        TR.TrainConfig(stage=2, **setting).resolved()
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


# ---------------------------------------------------------------------------
# stage runner


def graph_size(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_stage3_graph_stays_close_to_stage2(tiny_root):
    """The association term adds a few nodes per class and frame, not one
    per kept detection: at init params nearly every prior passes theta."""
    video = load_video_dir(tiny_root / "video_000")
    model_cfg = net.ModelConfig()
    params = net.init_params(7, model_cfg)
    sizes = {}
    for stage in (2, 3):
        cfg = TR.TrainConfig(stage=stage, seq_len=4).resolved()
        total, _parts = TR._train_sequence(params, video, cfg, model_cfg, make_priors(),
                                           np.random.default_rng(0), stage == 3)
        sizes[stage] = graph_size(total)
    assert sizes[3] <= 1.5 * sizes[2], sizes


def test_stage2_requires_checkpoint(tiny_root, tmp_path):
    with pytest.raises(ConfigError):
        TR.run_stage(2, tiny_root, tmp_path / "s2", TR.TrainConfig(seed=1))


def test_stage1_then_stage2_freezing_and_split(tiny_root, tmp_path):
    cfg = TR.TrainConfig(seed=3, epochs=1)
    s1 = TR.run_stage(1, tiny_root, tmp_path / "s1", cfg)
    assert s1["loss_csv"].read_text().startswith("epoch,step,L_loc,L_conf,L_att")

    def frozen_bytes(params):
        return {n: p.data.tobytes() for n, p in params.items()
                if n.startswith(net.FROZEN_PREFIXES)}

    params1, _ = net.load_checkpoint(s1["checkpoint"])
    s2 = TR.run_stage(2, tiny_root, tmp_path / "s2", cfg, init_ckpt=s1["checkpoint"])
    params2, meta2 = net.load_checkpoint(s2["checkpoint"])
    assert frozen_bytes(params1) == frozen_bytes(params2) != {}
    assert any(n.startswith("lstm.") for n in params2)
    assert net.ModelConfig.from_meta(meta2).temporal
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
    cfg2 = TR.TrainConfig(seed=6, epochs=1, stage=2).resolved()
    params, meta = net.load_checkpoint(s1["checkpoint"])
    # promoted as run_stage does: every tensor outside FROZEN_PREFIXES trains
    params = {n: p if n.startswith(net.FROZEN_PREFIXES) else T.parameter(p.data, n)
              for n, p in params.items()}
    net.init_lstm_params(np.random.default_rng(0), params)
    model_cfg = net.ModelConfig.from_meta(meta)
    model_cfg.temporal = True
    videos = sorted(load_dataset_root(tiny_root), key=lambda v: v.name)
    total, _ = TR._train_sequence(params, videos[0], cfg2, model_cfg, make_priors(),
                                  np.random.default_rng(7), with_asso=False)
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
        grads["lstm.low.gate_i.bias"] = np.full_like(grads["lstm.low.gate_i.bias"], np.nan)
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
