import itertools
import tracemalloc

import numpy as np
import pytest

from seqdet import net
from seqdet import tensor as T
from seqdet.errors import ConfigError, ShapeError

from refimpl import (composed_aclstm_step, composed_convlstm_cell, composed_head_forward,
                     mul, naive_conv2d)


def zero_lstm_weights(c):
    def z(shape):
        return T.constant(np.zeros(shape))
    return net.ACLSTMWeights(
        att1=z((c // 2, 2 * c, 3, 3)), att2=z((c // 4, c // 2, 3, 3)),
        att3=z((1, c // 4, 3, 3)), gates=z((4 * c, 2 * c, 3, 3)), gates_bias=z(4 * c))


def random_lstm_weights(rng, c, scale=0.3):
    def r(shape):
        return rng.standard_normal(shape) * scale
    att = [r((c // 2, 2 * c, 3, 3)), r((c // 4, c // 2, 3, 3)), r((1, c // 4, 3, 3))]
    # kernel then bias of gates i, f, o, c, stacked into the fused blocks
    gates = [(r((c, 2 * c, 3, 3)), r(c)) for _gate in "ifoc"]
    return net.ACLSTMWeights(*map(T.constant, att),
                             gates=T.constant(np.concatenate([k for k, _b in gates])),
                             gates_bias=T.constant(np.concatenate([b for _k, b in gates])))


def gate_block(w, g, c):
    """(kernel, bias) arrays of gate block g (0..3 = i, f, o, c) of w."""
    return w.gates.data[g * c:(g + 1) * c], w.gates_bias.data[g * c:(g + 1) * c]


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


def model_conv_shapes():
    """(c_out, c_in, k, S) of every conv the temporal model runs, from
    param_shapes and the size of the map each kernel reads."""
    backbone = {name: size for name, _ci, _co, size, _src in net._BACKBONE_LAYERS}
    shapes = set()
    for name, shape in net.param_shapes(net.ModelConfig(), with_lstm=True).items():
        if not name.endswith(".kernel"):
            continue
        group, part = name.split(".")[:2]
        if group == "backbone":
            sizes = [backbone[part]]
        elif group == "lstm":
            sizes = [s for lvl, s in enumerate(net.TOY_SIZES) if net.unit_of_level(lvl) == part]
        else:                               # unify.l<lvl>, head.l<lvl>
            sizes = [net.TOY_SIZES[int(part[1:])]]
        c_out, c_in, k, _ = shape
        shapes.update((c_out, c_in, k, s) for s in sizes)
    return shapes


def test_model_conv_shapes_are_what_the_forward_runs(monkeypatch):
    """Recorded where every conv runs, conv2d's and the fused cell's gate
    conv alike: at the forward of the layout _conv_layout picks."""
    ran = set()
    conv_layout = T._conv_layout

    def recording(c_out, c_in, k):
        forward, dk, dx = conv_layout(c_out, c_in, k)

        def recorded(parts, kern):
            assert sum(p.shape[0] for p in parts) == c_in == kern.shape[1]
            ran.add((c_out, c_in, k, parts[0].shape[1]))
            return forward(parts, kern)
        return recorded, dk, dx

    monkeypatch.setattr(T, "_conv_layout", recording)
    cfg = net.ModelConfig()
    frames = np.random.default_rng(8).random((2, 3, net.CANVAS, net.CANVAS))
    list(net.frame_outputs(frames, net.init_params(8, cfg), cfg))
    assert ran == model_conv_shapes()


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_conv_layouts_agree_on_every_model_shape():
    """The shifted and im2col layouts give the same forward, dX and dW on
    every conv shape of the model, whichever of them conv2d picks; in each
    layout, the input read as two channel parts gives the same forward and
    dW bits as the input read whole. dX for one part alone, computed on its
    columns of the kernel, gives that part's block of the whole dX bit for
    bit in the layout conv2d picks. (The shifted dX of the stem's
    one-channel half differs in its last bits, a layout conv2d does not run
    for that shape.)"""
    shapes = sorted(model_conv_shapes())
    picked = [T._conv_layout(c_out, c_in, k) for c_out, c_in, k, _s in shapes]
    assert picked.count(T._SHIFTED) >= 10 and picked.count(T._IM2COL) >= 10
    fwd_i, dk_i, dx_i = T._IM2COL
    fwd_s, dk_s, dx_s = T._SHIFTED
    rng = np.random.default_rng(12)
    for (c_out, c_in, k, s), layout in zip(shapes, picked):
        x = rng.standard_normal((c_in, s, s))
        kern = rng.standard_normal((c_out, c_in, k, k))
        g = rng.standard_normal((c_out, s, s))
        case = (c_out, c_in, k, s)
        assert _rel(fwd_s([x], kern), fwd_i([x], kern)) <= 1e-12, case
        assert dk_s([x], g, k).shape == kern.shape and dx_s(kern, g).shape == x.shape, case
        assert _rel(dk_s([x], g, k), dk_i([x], g, k)) <= 1e-12, case
        assert _rel(dx_s(kern, g), dx_i(kern, g)) <= 1e-12, case
        half = c_in // 2
        parts = [x[:half].copy(), x[half:].copy()]
        for fwd, dk, _dx in (T._IM2COL, T._SHIFTED):
            assert np.array_equal(fwd(parts, kern), fwd([x], kern)), case
            assert np.array_equal(dk(parts, g, k), dk([x], g, k)), case
        dx = layout[2]
        whole = dx(kern, g)
        assert np.array_equal(dx(kern[:, :half], g), whole[:half]), case
        assert np.array_equal(dx(kern[:, half:], g), whole[half:]), case


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
    # plain ConvLSTM update on the raw x, composed from primitive ops
    h_ref, s_ref = composed_convlstm_cell([x, h0], w.gates, w.gates_bias, s0)
    assert np.array_equal(s.data, s_ref.data)
    assert np.array_equal(h.data, h_ref.data)


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
        i = sig(naive_conv2d(cat2, *gate_block(w, 0, c), 1, 1))
        f = sig(naive_conv2d(cat2, *gate_block(w, 1, c), 1, 1))
        o = sig(naive_conv2d(cat2, *gate_block(w, 2, c), 1, 1))
        cc = np.tanh(naive_conv2d(cat2, *gate_block(w, 3, c), 1, 1))
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


LEVEL_SHAPES = [(net.unit_channels(lvl), size) for lvl, size in enumerate(net.TOY_SIZES)]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("c,size", LEVEL_SHAPES, ids=[f"c{c}_s{s}" for c, s in LEVEL_SHAPES])
def test_fused_step_equals_the_composed_graph_bitwise(c, size):
    """Two unrolled steps of net's step (convs over channel parts, one
    convlstm_cell node) against refimpl's composed step (concatenated
    inputs, one gate conv, then slices, sigmoid, tanh, mul and add): the
    same bits in every output and every leaf gradient (inputs, state,
    attention and gate weights), with attention on and off, with and
    without dropout, on each level shape of the model. It is run again with
    the inputs and the start state as constants, as in the model, where
    net's convs compute dX only for the parts that need it and the composed
    graph slices the whole dX."""
    rng = np.random.default_rng(c * 100 + size)
    w0 = random_lstm_weights(rng, c)
    fields = ("att1", "att2", "att3", "gates", "gates_bias")
    arrays = {f"w.{f}": getattr(w0, f).data for f in fields}
    for name in ("x1", "x2", "h0", "s0"):
        arrays[name] = rng.standard_normal((c, size, size))
    readout = {n: T.constant(rng.standard_normal((1 if n[0] == "a" else c, size, size)))
               for n in ("h1", "h2", "s2", "a1", "a2")}
    for attention, rate, constants in itertools.product(
            (True, False), (0.0, 0.2), ((), ("x1", "x2", "h0", "s0"))):
        results = []
        for step in (net.attention_convlstm_step, composed_aclstm_step):
            leaves = {n: T.constant(a) if n in constants else T.parameter(a, n)
                      for n, a in arrays.items()}
            w = net.ACLSTMWeights(*(leaves[f"w.{f}"] for f in fields))
            masks = np.random.default_rng(3)
            h1, s1, a1 = step(leaves["x1"], leaves["h0"], leaves["s0"], w,
                              rate, masks, attention)
            h2, s2, a2 = step(leaves["x2"], h1, s1, w, rate, masks, attention)
            outs = {"h1": h1, "h2": h2, "s2": s2, "a1": a1, "a2": a2}
            loss = T.add_n([T.sum_all(mul(outs[n], readout[n])) for n in outs])
            results.append(({n: o.data for n, o in outs.items()}, T.backward(loss)))
        (data, grads), (data_ref, grads_ref) = results
        case = (attention, rate, constants)
        for name in data_ref:
            assert _same_bits(data[name], data_ref[name]), (case, name)
        assert sorted(grads) == sorted(grads_ref), case
        assert ("w.gates" in grads) and (("w.att1" in grads) == attention), case
        for name in grads_ref:
            assert _same_bits(grads[name], grads_ref[name]), (case, name)


def test_step_state_is_two_views_of_one_cell_node():
    """h and s are the channel halves of one convlstm_cell node's [h; s]
    data, and that data is the composed update's."""
    rng = np.random.default_rng(14)
    c, size = 4, 5
    w = random_lstm_weights(rng, c)
    x, h_prev, s_prev = (T.parameter(rng.standard_normal((c, size, size)), n)
                         for n in ("x", "h", "s"))
    h, s, _ = net.attention_convlstm_step(x, h_prev, s_prev, w, attention_enabled=False)
    cell = h.parents[0]
    assert s.parents == (cell,) and cell.data.shape == (2 * c, size, size)
    assert np.shares_memory(h.data, cell.data) and np.shares_memory(s.data, cell.data)
    h_ref, s_ref = composed_convlstm_cell([x, h_prev], w.gates, w.gates_bias, s_prev)
    assert np.array_equal(cell.data, np.concatenate([h_ref.data, s_ref.data]))


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
    state = net.zero_state()
    hidden_a, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg)
    params["lstm.low.gates.kernel"].data[2 * net.C_LOW:3 * net.C_LOW] += 0.1  # o block
    hidden_b, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg)
    for lvl in (0, 1, 2):
        assert not np.array_equal(hidden_a[lvl].data, hidden_b[lvl].data)
    for lvl in (3, 4, 5):
        assert np.array_equal(hidden_a[lvl].data, hidden_b[lvl].data)


def test_output_dims_match_inputs_with_unit_channels():
    cfg = net.ModelConfig()
    params = net.init_params(12, cfg)
    rng = np.random.default_rng(12)
    hidden, state, att = net.temporal_pyramid_forward(
        unified_pyramid(rng), net.zero_state(), params, cfg)
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
    h1, state, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg)
    h2, state, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg)
    assert not np.array_equal(h1[0].data, h2[0].data)


def test_state_reset_reproduces_first_frame():
    cfg = net.ModelConfig()
    params = net.init_params(14, cfg)
    rng = np.random.default_rng(14)
    pyramid = unified_pyramid(rng)
    h1, _, _ = net.temporal_pyramid_forward(
        pyramid, net.zero_state(), params, cfg)
    h1again, _, _ = net.temporal_pyramid_forward(
        pyramid, net.zero_state(), params, cfg)
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
        net.temporal_pyramid_forward(pyramid, state, params, cfg)


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
    assert np.all(out.loc.data == 0.0)
    assert np.all(out.conf.data == 0.0)


def test_head_output_counts():
    cfg = net.ModelConfig()
    params = net.init_params(17, cfg)
    out = net.head_forward(unified_pyramid(np.random.default_rng(17)), params)
    assert out.loc.data.shape == (1540, 4)
    assert out.conf.data.shape == (1540, 5)


def test_head_matches_naive_reference_and_layout():
    cfg = net.ModelConfig()
    params = net.init_params(18, cfg)
    rng = np.random.default_rng(18)
    pyramid = unified_pyramid(rng)
    out = net.head_forward(pyramid, params)
    lvl = 1
    ref = naive_conv2d(pyramid[lvl].data, params[f"head.l{lvl}.kernel"].data,
                       params[f"head.l{lvl}.bias"].data, 1, 1)
    # prior rows follow the (level, cell row-major, prior) channel packing;
    # the level map holds the 2*4 loc channels, then the 2*5 conf channels
    base = 2 * net.TOY_SIZES[0] ** 2
    s = net.TOY_SIZES[lvl]
    for cell, j in [(0, 0), (5, 1), (s * s - 1, 0)]:
        p = base + cell * 2 + j
        y, x = divmod(cell, s)
        np.testing.assert_allclose(out.loc.data[p], ref[j * 4:(j + 1) * 4, y, x],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.conf.data[p], ref[8 + j * 5:8 + (j + 1) * 5, y, x],
                                   rtol=1e-12, atol=1e-12)


def test_head_graph_nodes_agree_with_flat_views():
    cfg = net.ModelConfig()
    params = net.init_params(19, cfg)
    out = net.head_forward(unified_pyramid(np.random.default_rng(19)), params)
    # one gradient per prior row lands on that prior's channels and cell only
    ids = [0, 3, 1200, 1539]
    weights = np.zeros((1540, 5))
    weights[ids, 2] = 1.0
    loc_weights = np.zeros((1540, 4))
    loc_weights[1539, 1] = 1.0
    grads = T.backward(T.add(T.sum_all(mul(out.conf, T.constant(weights))),
                             T.sum_all(mul(out.loc, T.constant(loc_weights)))))
    # prior 1539 is the second prior of the single level-5 cell: loc channel
    # 4 + 1, conf channel 8 (after the loc block) + 5 + 2
    assert net.TOY_SIZES[5] == 1
    expect = np.zeros(params["head.l5.bias"].data.shape)
    expect[4 + 1] = 1.0
    expect[8 + 5 + 2] = 1.0
    np.testing.assert_array_equal(grads["head.l5.bias"], expect)
    # level 0 gets conf gradients only: its loc block stays zero
    assert np.all(grads["head.l0.kernel"][:8] == 0.0) and np.any(grads["head.l0.kernel"][8:])


def test_prior_major_index_is_one_shared_read_only_array():
    """The pyramid's (loc, conf) index pair is cached once per (level sizes,
    conf width): read-only, equal to the prior-major formula written out
    over the flattened, concatenated head maps, and the very arrays every
    frame's head node keeps."""
    ppc = net.PRIORS_PER_CELL
    conf_width = 5
    sizes = tuple(net.TOY_SIZES)
    index = net._prior_major_index(sizes, conf_width)
    assert net._prior_major_index(sizes, conf_width) is index
    base, want = 0, ([], [])
    for s in sizes:
        for rows, lo, width in zip(want, (0, 4 * ppc), (4, conf_width)):
            rows += [[base + (lo + prior * width + j) * s * s + cell for j in range(width)]
                     for cell in range(s * s) for prior in range(ppc)]
        base += ppc * (4 + conf_width) * s * s
    for got, rows in zip(index, want):
        assert not got.flags.writeable
        assert np.array_equal(got, rows)
    params = net.init_params(20, net.ModelConfig())
    for frame in (1, 2):
        out = net.head_forward(unified_pyramid(np.random.default_rng(frame)), params)
        node = out.loc.parents[0]
        assert out.conf.parents == (node,)
        kept = [c.cell_contents for c in node._backward.__closure__]
        idx = next(v for v in kept if isinstance(v, list) and len(v) == 2)
        assert idx[0] is index[0] and idx[1] is index[1]


@pytest.mark.parametrize("trained", [True, False])
def test_head_node_equals_the_composed_graph_bitwise(trained):
    """net.head_forward (one conv_gather node, loc and conf views of it)
    against refimpl's composed heads (a conv2d node per level, a gather per
    level and block, a concat per block): the same bits in loc, conf and
    every gradient, the hidden maps' included, with a loss that reads some
    prior rows once, some twice and some not at all. The node holds its
    rows and no head map (the maps take as many bytes as the rows).
    Untrained heads are constants, as in detect: then no node keeps a
    tape."""
    rng = np.random.default_rng(23)
    params = net.init_params(23, net.ModelConfig())
    arrays = {f"h{lvl}": m.data for lvl, m in enumerate(unified_pyramid(rng))}
    arrays.update({n: p.data for n, p in params.items() if n.startswith("head.")})
    picks = np.array([0, 5, 5, 600, 1151, 1200, 1539, 1539, 1539])
    wl = T.constant(rng.standard_normal((len(picks), 4)))
    wc = T.constant(rng.standard_normal((len(picks), 5)))
    results = []
    for forward in (net.head_forward, composed_head_forward):
        leaves = {n: T.parameter(a, n) if trained else T.constant(a) for n, a in arrays.items()}
        hidden = [leaves[f"h{lvl}"] for lvl in range(6)]
        forward(hidden, leaves)             # caches the index arrays
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward(hidden, leaves)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        loc, conf = (out.loc, out.conf) if forward is net.head_forward else out
        if forward is net.head_forward:
            rows = loc.data.nbytes + conf.data.nbytes
            assert rows <= held < rows + 8 * 1024, (held, rows)
        loss = T.add(T.sum_all(mul(T.gather_rows(loc, picks), wl)),
                     T.sum_all(mul(T.gather_rows(conf, picks), wc)))
        results.append(([loc.data, conf.data], T.backward(loss)))
        if not trained:
            assert not loss.requires_grad and loc.parents == ()
    (data, grads), (data_ref, grads_ref) = results
    for got, want in zip(data, data_ref):
        assert _same_bits(got, want)
    assert sorted(grads) == sorted(grads_ref) == (sorted(arrays) if trained else [])
    for name in grads_ref:
        assert _same_bits(grads[name], grads_ref[name]), name


def test_conv_backward_computes_dx_only_for_parts_that_need_it(monkeypatch):
    """att1 reads [x, h_prev] and the gates [a.x, h_prev]. x is a constant
    backbone map and the first frame's h_prev the zero state, so neither
    gets a dX: att1 computes none at the first frame and one over h_prev's
    c kernel columns at the second; the gates compute one over a.x's c
    columns at the first frame and one product over all 2c at the second."""
    spans = []
    conv_layout = T._conv_layout

    def recording(c_out, c_in, k):
        forward, dk, dx = conv_layout(c_out, c_in, k)

        def recorded(kern, g):
            spans.append((c_out, c_in, kern.shape[1]))
            return dx(kern, g)
        return forward, dk, recorded

    monkeypatch.setattr(T, "_conv_layout", recording)
    rng = np.random.default_rng(21)
    c, size = 8, 6
    w0 = random_lstm_weights(rng, c)
    w = net.ACLSTMWeights(*(T.parameter(getattr(w0, f).data, f)
                            for f in ("att1", "att2", "att3", "gates", "gates_bias")))
    h = s = T.constant(np.zeros((c, size, size)))
    for _frame in range(2):
        h, s, _a = net.attention_convlstm_step(T.constant(rng.standard_normal((c, size, size))),
                                               h, s, w)
    T.backward(T.sum_all(h))
    two_part = [span for span in spans if span[1] == 2 * c]
    assert two_part == [(4 * c, 2 * c, 2 * c), (c // 2, 2 * c, c), (4 * c, 2 * c, c)]


def test_weight_sharing_one_parameter_set_serves_three_levels():
    cfg = net.ModelConfig()
    params = net.init_params(20, cfg)
    low_names = [n for n in params if n.startswith("lstm.low.")]
    assert len(low_names) == 5  # 3 attention kernels + the fused gate kernel and bias
    rng = np.random.default_rng(20)
    pyramid = unified_pyramid(rng)
    state = net.zero_state()
    before, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg)
    params["lstm.low.gates.kernel"].data[:net.C_LOW] *= 1.5  # i block
    after, _, _ = net.temporal_pyramid_forward(pyramid, state, params, cfg)
    assert all(not np.array_equal(before[l].data, after[l].data) for l in (0, 1, 2))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = net.ModelConfig()
    params = net.init_params(21, cfg)
    net.save_checkpoint(tmp_path / "ck", params, cfg.to_meta())
    loaded, cfg2 = net.load_checkpoint(tmp_path / "ck")
    assert set(loaded) == set(params)
    assert cfg2 == cfg and type(cfg2.temporal) is bool
    # values survive at f32 resolution; a second save is byte-identical
    for name in params:
        np.testing.assert_allclose(loaded[name].data, params[name].data, atol=1e-6)
    net.save_checkpoint(tmp_path / "ck2", loaded, cfg2.to_meta())
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
    with pytest.raises(ConfigError, match=r"ck/meta\.txt: priors_per_cell = '3', "
                                        r"but the prior grid has 2 per cell$"):
        net.load_checkpoint(tmp_path / "ck")


def test_priors_per_cell_compares_as_an_integer(tmp_path):
    cfg = _saved_checkpoint(tmp_path / "ck")
    meta = tmp_path / "ck" / "meta.txt"
    meta.write_text(meta.read_text().replace("priors_per_cell = 2", "priors_per_cell = 02"))
    _params, loaded = net.load_checkpoint(tmp_path / "ck")
    assert loaded == cfg


def test_legacy_meta_with_dropout_rate_still_loads(tmp_path):
    cfg = _saved_checkpoint(tmp_path / "ck")
    meta = tmp_path / "ck" / "meta.txt"
    assert "dropout_rate" not in meta.read_text()
    meta.write_text(meta.read_text() + "dropout_rate = 0.2\n")
    _params, loaded = net.load_checkpoint(tmp_path / "ck")
    assert loaded == cfg


@pytest.mark.parametrize("temporal,attention", [(False, True), (True, False)],
                         ids=["static", "no_attention"])
def test_checkpoint_loads_the_model_config_its_meta_describes(tmp_path, temporal, attention):
    """An older static or --no-attention checkpoint, dropout_rate line
    included, loads as the ModelConfig it was saved from."""
    cfg = net.ModelConfig(num_classes=3, attention_enabled=attention, temporal=temporal)
    net.save_checkpoint(tmp_path / "ck", net.init_params(25, cfg, with_lstm=temporal),
                        {**cfg.to_meta(), "dropout_rate": "0.5"})
    params, loaded = net.load_checkpoint(tmp_path / "ck")
    assert loaded == cfg
    assert set(params) == set(net.param_shapes(cfg, with_lstm=temporal))


def test_forward_on_loaded_params_records_no_tape(tmp_path):
    cfg = _saved_checkpoint(tmp_path / "ck")
    params, _cfg = net.load_checkpoint(tmp_path / "ck")
    assert not any(p.requires_grad for p in params.values())
    frame = np.random.default_rng(24).random((3, net.CANVAS, net.CANVAS))
    outputs = list(net.frame_outputs([frame, frame], params, cfg))
    nodes = [n for head, att in outputs for n in (head.loc, head.conf, *att)]
    assert len(nodes) == 2 * (2 + 6)
    assert all(n.parents == () and not n.requires_grad for n in nodes)


def test_frame_outputs_static_model_has_no_state_or_maps(monkeypatch):
    def no_state():
        raise AssertionError("the static model allocated a state")

    monkeypatch.setattr(net, "zero_state", no_state)
    cfg = net.ModelConfig(temporal=False)
    params = net.init_params(25, cfg, with_lstm=False)
    frames = np.random.default_rng(25).random((2, 3, net.CANVAS, net.CANVAS))
    outputs = list(net.frame_outputs(frames, params, cfg))
    assert [att for _head, att in outputs] == [None, None]
    (head, _), = net.frame_outputs(frames[1:], params, cfg)
    assert np.array_equal(outputs[1][0].conf.data, head.conf.data)


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


def test_init_params_tensor_counts():
    cfg = net.ModelConfig()
    temporal = net.init_params(0, cfg)
    static = net.init_params(0, cfg, with_lstm=False)
    assert (len(temporal), len(static)) == (42, 32)
    assert {n: t.data.shape for n, t in temporal.items()} == net.param_shapes(cfg, True)
    assert temporal["lstm.low.gates.kernel"].data.shape == (4 * 64, 2 * 64, 3, 3)
    assert temporal["head.l3.bias"].data.shape == (2 * (4 + 4 + 1),)


@pytest.mark.parametrize("key,value", [("attention_enabled", "7"), ("temporal", "2"),
                                       ("temporal", "-1")])
def test_checkpoint_meta_flag_other_than_0_or_1_is_config_error(tmp_path, key, value):
    _saved_checkpoint(tmp_path / "ck")
    meta = tmp_path / "ck" / "meta.txt"
    meta.write_text(meta.read_text().replace(f"{key} = 1", f"{key} = {value}"))
    with pytest.raises(ConfigError, match=rf"ck/meta\.txt: {key} = '{value}' must be 0 or 1"):
        net.load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("file,old,new", [
    ("meta.txt", "num_classes = 4", "num_classes = " + "x" * 200_000),
    ("meta.txt", "priors_per_cell = 2", "priors_per_cell = " + " " * 200_000 + "3"),
    ("manifest.txt", "head.l3.bias\t", "x" * 200_000 + "\t"),
    ("manifest.txt", "head.l3.bias\t", "x" * 200_000),
], ids=["meta_value", "meta_spaces", "manifest_name", "manifest_line"])
def test_checkpoint_error_on_an_oversized_value_is_bounded(tmp_path, file, old, new):
    _saved_checkpoint(tmp_path / "ck")
    path = tmp_path / "ck" / file
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(ConfigError) as err:
        net.load_checkpoint(tmp_path / "ck")
    message = str(err.value)
    assert message.startswith(f"{path}")
    assert len(message) - len(str(path)) <= 200, message


CHECKPOINT_MISMATCHES = {
    "missing": r"ck/manifest\.txt: tensor head\.l3\.bias is missing",
    "extra": r"ck/manifest\.txt:\d+: tensor 'head\.l6\.bias' is not part of the model",
    "misshaped": r"ck/manifest\.txt:\d+: tensor head\.l3\.bias has shape \(7,\), "
                 r"the model expects \(18,\)",
    "temporal_without_lstm": r"ck/manifest\.txt: tensor lstm\.low\.att1\.kernel is missing",
    "static_with_lstm": r"ck/manifest\.txt:\d+: tensor 'lstm\.high\.att1\.kernel' is not part",
    "per_gate_layout": r"ck/manifest\.txt:\d+: tensor 'lstm\.low\.gate_i\.kernel' is not part",
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
        _drop_manifest_line(ck, "head.l3.bias")
    elif case == "extra":
        _add_tensor(ck, "head.l6.bias", (18,))
    elif case == "misshaped":
        _drop_manifest_line(ck, "head.l3.bias")
        _add_tensor(ck, "head.l3.bias", (7,))
    elif case == "per_gate_layout":
        _drop_manifest_line(ck, "lstm.low.gates.kernel")
        _add_tensor(ck, "lstm.low.gate_i.kernel", (64, 128, 3, 3))
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
    loaded, _cfg = net.load_checkpoint(tmp_path / "ck")
    np.testing.assert_allclose(loaded["backbone.stem.kernel"].data,
                               params["backbone.stem.kernel"].data, atol=1e-6)
    assert ((tmp_path / "ck" / "backbone.stem.kernel.tnsr").read_bytes()
            != before["backbone.stem.kernel.tnsr"])
