import numpy as np
import pytest

from seqdet import net
from seqdet import tensor as T
from seqdet.errors import ConfigError, ShapeError

from refimpl import naive_conv2d


def zero_lstm_weights(c):
    def z(shape):
        return T.constant(np.zeros(shape))
    return net.ACLSTMWeights(
        att1=z((c // 2, 2 * c, 3, 3)), att2=z((c // 4, c // 2, 3, 3)),
        att3=z((1, c // 4, 3, 3)),
        w_i=z((c, 2 * c, 3, 3)), b_i=z(c), w_f=z((c, 2 * c, 3, 3)), b_f=z(c),
        w_o=z((c, 2 * c, 3, 3)), b_o=z(c), w_c=z((c, 2 * c, 3, 3)), b_c=z(c))


def random_lstm_weights(rng, c, scale=0.3):
    def r(shape):
        return T.constant(rng.standard_normal(shape) * scale)
    return net.ACLSTMWeights(
        att1=r((c // 2, 2 * c, 3, 3)), att2=r((c // 4, c // 2, 3, 3)),
        att3=r((1, c // 4, 3, 3)),
        w_i=r((c, 2 * c, 3, 3)), b_i=r(c), w_f=r((c, 2 * c, 3, 3)), b_f=r(c),
        w_o=r((c, 2 * c, 3, 3)), b_o=r(c), w_c=r((c, 2 * c, 3, 3)), b_c=r(c))


# ---------------------------------------------------------------------------
# backbone


def test_backbone_zero_everything_gives_zero_pyramid():
    cfg = net.ModelConfig()
    params = net.init_params(0, cfg)
    for name, t in params.items():
        if name.startswith("backbone."):
            t.data[...] = 0.0
    pyramid = net.backbone_forward(T.constant(np.zeros((3, 96, 96))), params)
    for fmap in pyramid:
        assert np.all(fmap.data == 0.0)


def test_backbone_level_dims():
    params = net.init_params(1, net.ModelConfig())
    rng = np.random.default_rng(0)
    pyramid = net.backbone_forward(T.constant(rng.random((3, 96, 96))), params)
    dims = [f.data.shape for f in pyramid]
    assert dims == [(32, 24, 24), (64, 12, 12), (32, 6, 6),
                    (16, 3, 3), (16, 2, 2), (16, 1, 1)]
    sizes = [d[1] for d in dims]
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == 6


def test_backbone_deterministic_and_finite():
    params = net.init_params(2, net.ModelConfig())
    rng = np.random.default_rng(1)
    img = T.constant(rng.random((3, 96, 96)))
    a = net.backbone_forward(img, params)
    b = net.backbone_forward(img, params)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.data, fb.data)
        assert np.all(np.isfinite(fa.data))


def test_backbone_rejects_wrong_input_dims():
    params = net.init_params(0, net.ModelConfig())
    with pytest.raises(ShapeError):
        net.backbone_forward(T.constant(np.zeros((3, 64, 64))), params)


# ---------------------------------------------------------------------------
# channel unification


def test_unify_identity_kernel_preserves_64ch_level():
    params = net.init_params(3, net.ModelConfig())
    eye = np.zeros((64, 64, 1, 1))
    eye[np.arange(64), np.arange(64), 0, 0] = 1.0
    params["unify.l1.kernel"].data[...] = eye
    params["unify.l1.bias"].data[...] = 0.0
    rng = np.random.default_rng(2)
    pyramid = [T.constant(rng.random((c, s, s)))
               for c, s in zip(net.TOY_CHANNELS, net.TOY_SIZES)]
    out = net.unify_low_channels(pyramid, params)
    assert np.array_equal(out[1].data, pyramid[1].data)


def test_unify_output_channels():
    params = net.init_params(4, net.ModelConfig())
    rng = np.random.default_rng(3)
    pyramid = [T.constant(rng.random((c, s, s)))
               for c, s in zip(net.TOY_CHANNELS, net.TOY_SIZES)]
    out = net.unify_low_channels(pyramid, params)
    assert [m.data.shape[0] for m in out] == [64, 64, 64, 16, 16, 16]
    for lvl in (3, 4, 5):
        assert out[lvl] is pyramid[lvl]


def test_unify_equals_per_pixel_matmul():
    params = net.init_params(5, net.ModelConfig())
    rng = np.random.default_rng(4)
    fmap = rng.random((32, 6, 6))
    pyramid = [T.constant(rng.random((c, s, s)))
               for c, s in zip(net.TOY_CHANNELS, net.TOY_SIZES)]
    pyramid[2] = T.constant(fmap)
    out = net.unify_low_channels(pyramid, params)[2].data
    k = params["unify.l2.kernel"].data[:, :, 0, 0]
    b = params["unify.l2.bias"].data
    for y in range(6):
        for x in range(6):
            np.testing.assert_allclose(out[:, y, x], k @ fmap[:, y, x] + b,
                                       rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# recurrent step


def test_zero_weight_step_closed_form():
    rng = np.random.default_rng(5)
    c, s = 8, 6
    w = zero_lstm_weights(c)
    x = T.constant(rng.standard_normal((c, s, s)))
    s_prev = T.constant(rng.standard_normal((c, s, s)))
    h_prev = T.constant(np.zeros((c, s, s)))
    h, mem, a = net.attention_convlstm_step(x, h_prev, s_prev, w)
    assert np.all(a.data == 0.5)
    np.testing.assert_array_equal(mem.data, 0.5 * s_prev.data)
    np.testing.assert_array_equal(h.data, 0.5 * np.tanh(0.5 * s_prev.data))


def test_zero_weight_step_zero_memory_gives_zero_hidden():
    c, s = 4, 5
    w = zero_lstm_weights(c)
    x = T.constant(np.random.default_rng(6).standard_normal((c, s, s)))
    zeros = T.constant(np.zeros((c, s, s)))
    h, mem, a = net.attention_convlstm_step(x, zeros, zeros, w)
    assert np.all(a.data == 0.5)
    assert np.all(mem.data == 0.0)
    assert np.all(h.data == 0.0)


def plain_convlstm_reference(x, h_prev, s_prev, w):
    """Straight-line ConvLSTM step on the raw input via naive convs."""
    cat = np.concatenate([x, h_prev], axis=0)

    def sig(v):
        return 1 / (1 + np.exp(-v))

    i = sig(naive_conv2d(cat, w.w_i.data, w.b_i.data, 1, 1))
    f = sig(naive_conv2d(cat, w.w_f.data, w.b_f.data, 1, 1))
    o = sig(naive_conv2d(cat, w.w_o.data, w.b_o.data, 1, 1))
    c = np.tanh(naive_conv2d(cat, w.w_c.data, w.b_c.data, 1, 1))
    s = f * s_prev + i * c
    return o * np.tanh(s), s


def test_attention_disabled_matches_plain_convlstm_bitwise():
    rng = np.random.default_rng(7)
    c, sz = 4, 5
    w = random_lstm_weights(rng, c)
    # corrupt attention weights: they must not matter when disabled
    w.att1.data[...] = np.nan
    x = T.constant(rng.standard_normal((c, sz, sz)))
    h0 = T.constant(rng.standard_normal((c, sz, sz)) * 0.2)
    s0 = T.constant(rng.standard_normal((c, sz, sz)) * 0.2)
    h, s, a = net.attention_convlstm_step(x, h0, s0, w, attention_enabled=False)
    assert np.all(a.data == 1.0)
    # plain ConvLSTM step written out directly over the same gate primitive
    gate_in = T.concat([x, h0])
    fused = T.conv2d_multi(gate_in, [w.w_i, w.w_f, w.w_o, w.w_c],
                           [w.b_i, w.b_f, w.b_o, w.b_c], 1, 1)
    i = T.sigmoid(T.slice_channels(fused, 0, c))
    f = T.sigmoid(T.slice_channels(fused, c, 2 * c))
    o = T.sigmoid(T.slice_channels(fused, 2 * c, 3 * c))
    cc = T.tanh(T.slice_channels(fused, 3 * c, 4 * c))
    s_ref = f.data * s0.data + i.data * cc.data
    assert np.array_equal(s.data, s_ref)
    assert np.array_equal(h.data, o.data * np.tanh(s_ref))


def test_three_step_unroll_matches_straight_line_reference():
    rng = np.random.default_rng(8)
    c, sz = 4, 5
    w = random_lstm_weights(rng, c)
    xs = [rng.standard_normal((c, sz, sz)) * 0.5 for _ in range(3)]

    h = T.constant(np.zeros((c, sz, sz)))
    s = T.constant(np.zeros((c, sz, sz)))
    for x in xs:
        h, s, _ = net.attention_convlstm_step(T.constant(x), h, s, w)

    # independent re-implementation with naive loops
    def sig(v):
        return 1 / (1 + np.exp(-v))

    hr = np.zeros((c, sz, sz))
    sr = np.zeros((c, sz, sz))
    for x in xs:
        cat = np.concatenate([x, hr], axis=0)
        a1 = np.maximum(naive_conv2d(cat, w.att1.data, None, 1, 1), 0)
        a2 = np.maximum(naive_conv2d(a1, w.att2.data, None, 1, 1), 0)
        a = sig(naive_conv2d(a2, w.att3.data, None, 1, 1))
        ax = a * x
        cat2 = np.concatenate([ax, hr], axis=0)
        i = sig(naive_conv2d(cat2, w.w_i.data, w.b_i.data, 1, 1))
        f = sig(naive_conv2d(cat2, w.w_f.data, w.b_f.data, 1, 1))
        o = sig(naive_conv2d(cat2, w.w_o.data, w.b_o.data, 1, 1))
        cc = np.tanh(naive_conv2d(cat2, w.w_c.data, w.b_c.data, 1, 1))
        sr = f * sr + i * cc
        hr = o * np.tanh(sr)

    np.testing.assert_allclose(h.data, hr, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(s.data, sr, rtol=1e-12, atol=1e-12)


def test_memory_bound_and_hidden_range_over_steps():
    # weight scale kept moderate: extreme preactivations round sigmoid to
    # exactly 0/1 at f64, where strict-range claims stop being meaningful
    rng = np.random.default_rng(9)
    c, sz = 4, 4
    w = random_lstm_weights(rng, c, scale=0.5)
    h = T.constant(np.zeros((c, sz, sz)))
    s = T.constant(np.zeros((c, sz, sz)))
    s0_abs = np.abs(s.data)
    for t in range(1, 8):
        x = T.constant(rng.standard_normal((c, sz, sz)))
        h, s, a = net.attention_convlstm_step(x, h, s, w)
        assert np.all(np.abs(s.data) <= s0_abs + t)
        assert np.all((h.data > -1) & (h.data < 1))
        assert np.all((a.data > 0) & (a.data < 1))


def test_dropout_only_in_training_mode():
    rng = np.random.default_rng(10)
    c, sz = 4, 4
    w = random_lstm_weights(rng, c)
    x = T.constant(rng.standard_normal((c, sz, sz)))
    z = T.constant(np.zeros((c, sz, sz)))
    h1, _, _ = net.attention_convlstm_step(x, z, z, w)
    h2, _, _ = net.attention_convlstm_step(x, z, z, w)
    assert np.array_equal(h1.data, h2.data)
    h3, _, _ = net.attention_convlstm_step(x, z, z, w, dropout_rate=0.5,
                                           rng=np.random.default_rng(0))
    assert not np.array_equal(h1.data, h3.data)


# ---------------------------------------------------------------------------
# shared temporal units over the pyramid


def unified_pyramid(rng):
    return [T.constant(rng.random((net.unit_channels(l), s, s)))
            for l, s in enumerate(net.TOY_SIZES)]


def test_low_unit_perturbation_only_touches_low_levels():
    cfg = net.ModelConfig()
    params = net.init_params(11, cfg)
    rng = np.random.default_rng(11)
    pyramid = unified_pyramid(rng)
    mode = net.NetMode()
    state = net.zero_state()
    hidden_a, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg, mode)
    params["lstm.low.gate_o.kernel"].data += 0.1
    hidden_b, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg, mode)
    for lvl in (0, 1, 2):
        assert not np.array_equal(hidden_a[lvl].data, hidden_b[lvl].data)
    for lvl in (3, 4, 5):
        assert np.array_equal(hidden_a[lvl].data, hidden_b[lvl].data)


def test_output_dims_match_inputs_with_unit_channels():
    cfg = net.ModelConfig()
    params = net.init_params(12, cfg)
    rng = np.random.default_rng(12)
    hidden, state, att = net.temporal_pyramid_forward(
        unified_pyramid(rng), net.zero_state(), params, cfg, net.NetMode())
    for lvl, (h, a) in enumerate(zip(hidden, att)):
        s = net.TOY_SIZES[lvl]
        assert h.data.shape == (net.unit_channels(lvl), s, s)
        assert a.data.shape == (1, s, s)
        assert np.all((a.data > 0) & (a.data < 1))


def test_static_image_memory_accumulates_across_frames():
    cfg = net.ModelConfig()
    params = net.init_params(13, cfg)
    rng = np.random.default_rng(13)
    pyramid = unified_pyramid(rng)
    state = net.zero_state()
    h1, state, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg, net.NetMode())
    h2, state, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg, net.NetMode())
    assert not np.array_equal(h1[0].data, h2[0].data)


def test_state_reset_reproduces_first_frame():
    cfg = net.ModelConfig()
    params = net.init_params(14, cfg)
    rng = np.random.default_rng(14)
    pyramid = unified_pyramid(rng)
    h1, _, _ = net.temporal_pyramid_forward(
        pyramid, net.zero_state(), params, cfg, net.NetMode())
    h1again, _, _ = net.temporal_pyramid_forward(
        pyramid, net.zero_state(), params, cfg, net.NetMode())
    for a, b in zip(h1, h1again):
        assert np.array_equal(a.data, b.data)


def test_state_pyramid_mismatch_raises():
    cfg = net.ModelConfig()
    params = net.init_params(15, cfg)
    rng = np.random.default_rng(15)
    pyramid = unified_pyramid(rng)
    state = net.zero_state()
    state[0] = (T.constant(np.zeros((64, 12, 12))),
                T.constant(np.zeros((64, 12, 12))))
    with pytest.raises(ShapeError):
        net.temporal_pyramid_forward(pyramid, state, params, cfg, net.NetMode())


# ---------------------------------------------------------------------------
# heads


def test_heads_zero_weights_give_zero_outputs():
    cfg = net.ModelConfig()
    params = net.init_params(16, cfg)
    for name, t in params.items():
        if name.startswith("head."):
            t.data[...] = 0.0
    rng = np.random.default_rng(16)
    out = net.head_forward(unified_pyramid(rng), params)
    assert np.all(out.deltas() == 0.0)
    assert np.all(out.logits() == 0.0)


def test_head_output_counts():
    cfg = net.ModelConfig()
    params = net.init_params(17, cfg)
    out = net.head_forward(unified_pyramid(np.random.default_rng(17)), params)
    assert out.deltas().shape == (1540, 4)
    assert out.logits().shape == (1540, 5)


def test_head_matches_naive_reference_and_layout():
    cfg = net.ModelConfig()
    params = net.init_params(18, cfg)
    rng = np.random.default_rng(18)
    pyramid = unified_pyramid(rng)
    out = net.head_forward(pyramid, params)
    lvl = 1
    ref = naive_conv2d(pyramid[lvl].data, params[f"head.loc{lvl}.kernel"].data,
                       params[f"head.loc{lvl}.bias"].data, 1, 1)
    # prior rows follow the (level, cell row-major, prior) channel packing
    base = 2 * net.TOY_SIZES[0] ** 2
    s = net.TOY_SIZES[lvl]
    for cell, j in [(0, 0), (5, 1), (s * s - 1, 0)]:
        p = base + cell * 2 + j
        y, x = divmod(cell, s)
        np.testing.assert_allclose(out.deltas()[p], ref[j * 4:(j + 1) * 4, y, x],
                                   rtol=1e-12, atol=1e-12)


def test_head_graph_nodes_agree_with_flat_views():
    cfg = net.ModelConfig()
    params = net.init_params(19, cfg)
    out = net.head_forward(unified_pyramid(np.random.default_rng(19)), params)
    assert out.deltas() is out.loc.data and out.logits() is out.conf.data
    # one gradient per prior row lands on that prior's channels and cell only
    ids = [0, 3, 1200, 1539]
    weights = np.zeros((1540, 5))
    weights[ids, 2] = 1.0
    grads = T.backward(T.sum_all(T.mul(out.conf, T.constant(weights))))
    # prior 1539 is the second prior of the single level-5 cell: channel 5 + 2
    assert net.TOY_SIZES[5] == 1
    expect = np.zeros(params["head.conf5.bias"].data.shape)
    expect[5 + 2] = 1.0
    np.testing.assert_array_equal(grads["head.conf5.bias"], expect)
    assert "head.loc0.kernel" not in grads


def test_weight_sharing_one_parameter_set_serves_three_levels():
    cfg = net.ModelConfig()
    params = net.init_params(20, cfg)
    low_names = [n for n in params if n.startswith("lstm.low.")]
    assert len(low_names) == 11  # 3 attention kernels + 4 gate kernels + 4 biases
    rng = np.random.default_rng(20)
    pyramid = unified_pyramid(rng)
    state = net.zero_state()
    before, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg, net.NetMode())
    params["lstm.low.gate_i.kernel"].data *= 1.5
    after, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg, net.NetMode())
    assert all(not np.array_equal(before[l].data, after[l].data) for l in (0, 1, 2))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = net.ModelConfig()
    params = net.init_params(21, cfg)
    net.save_checkpoint(tmp_path / "ck", params, cfg.to_meta())
    loaded, meta = net.load_checkpoint(tmp_path / "ck")
    assert set(loaded) == set(params)
    cfg2 = net.ModelConfig.from_meta(meta)
    assert cfg2 == cfg
    # values survive at f32 resolution; a second save is byte-identical
    for name in params:
        np.testing.assert_allclose(loaded[name].data, params[name].data, atol=1e-6)
    net.save_checkpoint(tmp_path / "ck2", loaded, meta)
    for f in sorted((tmp_path / "ck").iterdir()):
        assert f.read_bytes() == (tmp_path / "ck2" / f.name).read_bytes()


def test_checkpoint_manifest_format(tmp_path):
    cfg = net.ModelConfig()
    params = net.init_params(22, cfg)
    net.save_checkpoint(tmp_path / "ck", params, cfg.to_meta())
    lines = (tmp_path / "ck" / "manifest.txt").read_text().strip().splitlines()
    assert len(lines) == len(params)
    assert lines == sorted(lines)
    name, fname, dims = lines[0].split("\t")
    assert fname == f"{name}.tnsr"
    assert tuple(int(d) for d in dims.split("x")) == params[name].data.shape


def _saved_checkpoint(ck, seed=23):
    cfg = net.ModelConfig()
    net.save_checkpoint(ck, net.init_params(seed, cfg), cfg.to_meta())
    return cfg


def test_checkpoint_short_manifest_line_is_config_error(tmp_path):
    _saved_checkpoint(tmp_path / "ck")
    manifest = tmp_path / "ck" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[2] = "\t".join(lines[2].split("\t")[:2])
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"ck/manifest\.txt:3:"):
        net.load_checkpoint(tmp_path / "ck")


def test_checkpoint_without_meta_is_config_error(tmp_path):
    _saved_checkpoint(tmp_path / "ck")
    meta = tmp_path / "ck" / "meta.txt"
    meta.write_text("num_classes = 4\n")
    with pytest.raises(ConfigError, match=r"ck/meta\.txt: missing key 'priors_per_cell'"):
        net.load_checkpoint(tmp_path / "ck")
    meta.unlink()
    with pytest.raises(ConfigError, match=r"ck: .*missing meta\.txt"):
        net.load_checkpoint(tmp_path / "ck")


def test_checkpoint_with_other_priors_per_cell_is_config_error(tmp_path):
    _saved_checkpoint(tmp_path / "ck")
    meta = tmp_path / "ck" / "meta.txt"
    assert "priors_per_cell = 2\n" in meta.read_text()
    meta.write_text(meta.read_text().replace("priors_per_cell = 2", "priors_per_cell = 3"))
    with pytest.raises(ConfigError, match=r"ck/meta\.txt: priors_per_cell = 3"):
        net.load_checkpoint(tmp_path / "ck")


def test_legacy_meta_with_dropout_rate_still_loads(tmp_path):
    cfg = _saved_checkpoint(tmp_path / "ck")
    meta = tmp_path / "ck" / "meta.txt"
    assert "dropout_rate" not in meta.read_text()
    meta.write_text(meta.read_text() + "dropout_rate = 0.2\n")
    _params, loaded = net.load_checkpoint(tmp_path / "ck")
    assert loaded["dropout_rate"] == "0.2"
    assert net.ModelConfig.from_meta(loaded) == cfg


def test_forward_on_loaded_params_records_no_tape(tmp_path):
    cfg = _saved_checkpoint(tmp_path / "ck")
    params, _meta = net.load_checkpoint(tmp_path / "ck")
    assert not any(p.requires_grad for p in params.values())
    frame = T.constant(np.random.default_rng(24).random((3, net.INPUT_SIZE, net.INPUT_SIZE)))
    head, state, att = net.forward_temporal(frame, net.zero_state(), params, cfg,
                                            net.NetMode())
    head, state, att = net.forward_temporal(frame, state, params, cfg, net.NetMode())
    nodes = [head.loc, head.conf, *att, *(t for pair in state for t in pair)]
    assert all(n.parents == () and not n.requires_grad for n in nodes)


def _drop_manifest_line(ck, name):
    manifest = ck / "manifest.txt"
    manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                if not line.startswith(f"{name}\t")))
    (ck / f"{name}.tnsr").unlink()


def _add_tensor(ck, name, shape):
    T.save_tnsr(ck / f"{name}.tnsr", np.zeros(shape))
    dims = "x".join(str(d) for d in shape)
    with open(ck / "manifest.txt", "a") as fh:
        fh.write(f"{name}\t{name}.tnsr\t{dims}\n")


CHECKPOINT_MISMATCHES = {
    "missing": r"ck/manifest\.txt: tensor head\.conf3\.bias is missing",
    "extra": r"ck/manifest\.txt:\d+: tensor head\.conf6\.bias is not part of the model",
    "misshaped": r"ck/manifest\.txt:\d+: tensor head\.conf3\.bias has shape \(7,\), "
                 r"the model expects \(10,\)",
    "temporal_without_lstm": r"ck/manifest\.txt: tensor lstm\.low\.att1\.kernel is missing",
    "static_with_lstm": r"ck/manifest\.txt:\d+: tensor lstm\.high\.att1\.kernel is not part",
}


@pytest.mark.parametrize("case", list(CHECKPOINT_MISMATCHES))
def test_checkpoint_tensors_must_match_the_model_of_its_meta(tmp_path, case):
    ck = tmp_path / "ck"
    if case == "temporal_without_lstm":
        cfg = net.ModelConfig()
        net.save_checkpoint(ck, net.init_params(25, cfg, with_lstm=False), cfg.to_meta())
    elif case == "static_with_lstm":
        cfg = net.ModelConfig(temporal=False)
        net.save_checkpoint(ck, net.init_params(25, cfg), cfg.to_meta())
    else:
        _saved_checkpoint(ck)
    if case == "missing":
        _drop_manifest_line(ck, "head.conf3.bias")
    elif case == "extra":
        _add_tensor(ck, "head.conf6.bias", (10,))
    elif case == "misshaped":
        _drop_manifest_line(ck, "head.conf3.bias")
        _add_tensor(ck, "head.conf3.bias", (7,))
    with pytest.raises(ConfigError, match=CHECKPOINT_MISMATCHES[case]):
        net.load_checkpoint(ck)


def test_checkpoint_meta_value_that_is_not_an_integer_is_config_error(tmp_path):
    _saved_checkpoint(tmp_path / "ck")
    meta = tmp_path / "ck" / "meta.txt"
    meta.write_text(meta.read_text().replace("num_classes = 4", "num_classes = four"))
    with pytest.raises(ConfigError,
                       match=r"ck/meta\.txt: num_classes = 'four' is not an integer"):
        net.load_checkpoint(tmp_path / "ck")


def test_failed_checkpoint_write_leaves_nothing_behind(tmp_path, monkeypatch):
    save_tnsr = T.save_tnsr
    written = []

    def fail_on_fifth(path, array):
        written.append(path)
        if len(written) == 5:
            raise OSError("disk full")
        save_tnsr(path, array)

    cfg = net.ModelConfig()
    params = net.init_params(26, cfg)
    monkeypatch.setattr(T, "save_tnsr", fail_on_fifth)
    with pytest.raises(OSError, match="disk full"):
        net.save_checkpoint(tmp_path / "ck", params, cfg.to_meta())
    assert len(written) == 5
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(T, "save_tnsr", save_tnsr)
    _saved_checkpoint(tmp_path / "ck")
    before = {f.name: f.read_bytes() for f in (tmp_path / "ck").iterdir()}
    written.clear()
    monkeypatch.setattr(T, "save_tnsr", fail_on_fifth)
    with pytest.raises(OSError, match="disk full"):
        net.save_checkpoint(tmp_path / "ck", params, cfg.to_meta())
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert {f.name: f.read_bytes() for f in (tmp_path / "ck").iterdir()} == before

    monkeypatch.setattr(T, "save_tnsr", save_tnsr)
    net.save_checkpoint(tmp_path / "ck", params, cfg.to_meta())
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    loaded, _meta = net.load_checkpoint(tmp_path / "ck")
    np.testing.assert_allclose(loaded["backbone.stem.kernel"].data,
                               params["backbone.stem.kernel"].data, atol=1e-6)
    assert ((tmp_path / "ck" / "backbone.stem.kernel.tnsr").read_bytes()
            != before["backbone.stem.kernel.tnsr"])
