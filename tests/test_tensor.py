import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from seqdet import tensor as T
from seqdet.errors import ParseError, ShapeError

from refimpl import (attention_product, composed_aclstm_step, composed_bce,
                     composed_convlstm_cell, composed_dropout, concat, graph_nodes,
                     masked_sigmoid, mul, naive_bilinear_resize, naive_conv2d,
                     retaining_backward, tanh)


def rand_t(rng, shape, name=None):
    return T.Tensor(rng.standard_normal(shape), name=name, requires_grad=True)


# ---------------------------------------------------------------------------
# conv2d


def test_conv_1x1_kernel_scales():
    x = T.constant([[[1.0, 2.0], [3.0, 4.0]]])
    k = T.constant(np.full((1, 1, 1, 1), 2.0))
    out = T.conv2d(x, k, T.constant([0.0]))
    assert np.array_equal(out.data, [[[2, 4], [6, 8]]])
    assert np.shares_memory(T._im2col([x.data], 1), x.data)  # the GEMM reads x itself


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    for k in (1, 3, 5):
        for h, w in [(7, 7), (1, 1), (2, k + 3), (k + 2, 1)]:
            x = T.constant(rng.random((3, h, w)))
            kern = np.zeros((3, 3, k, k))
            for c in range(3):
                kern[c, c, k // 2, k // 2] = 1.0
            out = T.conv2d(x, T.constant(kern))
            assert np.array_equal(out.data, x.data)


def test_conv_matches_naive_loops_many_cases():
    """Same-size conv (stride 1, pad k // 2) against the nested loops, with
    maps both larger and smaller than the kernel."""
    rng = np.random.default_rng(1)
    small = 0
    layouts = []
    for _ in range(110):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        h, w = (int(v) for v in rng.integers(1, 8, size=2))
        small += min(h, w) < k
        layouts.append(T._conv_layout(c_out, c_in, k))
        x = rng.standard_normal((c_in, h, w))
        kern = rng.standard_normal((c_out, c_in, k, k))
        bias = rng.standard_normal(c_out)
        out = T.conv2d(T.constant(x), T.constant(kern), T.constant(bias))
        ref = naive_conv2d(x, kern, bias, 1, k // 2)
        assert out.data.shape == (c_out, h, w)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    assert small >= 10
    assert layouts.count(T._SHIFTED) >= 10 and layouts.count(T._IM2COL) >= 10


def test_conv_random_3x5x5_case_close_to_reference():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5, 5))
    k = rng.standard_normal((2, 3, 3, 3))
    out = T.conv2d(T.constant(x), T.constant(k))
    np.testing.assert_allclose(out.data, naive_conv2d(x, k, None, 1, 1),
                               rtol=1e-12, atol=1e-12)


def test_conv_shape_errors():
    x = T.constant(np.zeros((2, 4, 4)))
    with pytest.raises(ShapeError):
        T.conv2d(x, T.constant(np.zeros((1, 3, 3, 3))), None)  # channel mismatch
    with pytest.raises(ShapeError):
        T.conv2d(x, T.constant(np.zeros((1, 2, 2, 2))), None)  # even kernel


def test_conv_parts_and_cell_shape_errors():
    a = T.constant(np.zeros((2, 4, 4)))
    m = T.constant(np.ones((1, 4, 4)))
    kern = T.constant(np.zeros((8, 4, 3, 3)))
    bias = T.constant(np.zeros(8))
    with pytest.raises(ShapeError, match="differ in size"):
        T.conv2d([a, T.constant(np.zeros((2, 4, 3)))], kern)
    with pytest.raises(ShapeError, match="3 channels"):
        T.conv2d([a, T.constant(np.zeros((1, 4, 4)))], kern)
    assert T.convlstm_cell(m, a, a, kern, bias, a).data.shape == (4, 4, 4)
    with pytest.raises(ShapeError, match="state"):
        T.convlstm_cell(m, a, a, kern, bias, T.constant(np.zeros((3, 4, 4))))
    with pytest.raises(ShapeError, match="4c rows"):
        T.convlstm_cell(m, a, a, T.constant(np.zeros((6, 4, 3, 3))), T.constant(np.zeros(6)), a)
    with pytest.raises(ShapeError, match="bias"):
        T.convlstm_cell(m, a, a, kern, None, a)
    with pytest.raises(ShapeError, match="attention map must be"):
        T.convlstm_cell(a, a, a, kern, bias, a)
    with pytest.raises(ShapeError, match="differ in size"):
        T.convlstm_cell(T.constant(np.ones((1, 4, 3))), a, a, kern, bias, a)


def test_conv_pure_same_inputs_same_bits():
    rng = np.random.default_rng(3)
    x = T.constant(rng.standard_normal((2, 6, 6)))
    k = T.constant(rng.standard_normal((3, 2, 3, 3)))
    a = T.conv2d(x, k).data
    b = T.conv2d(x, k).data
    assert np.array_equal(a, b)


def test_conv_bias_adds_exactly_and_stays_unchanged():
    rng = np.random.default_rng(6)
    x = T.constant(rng.standard_normal((3, 7, 7)))
    k = T.constant(rng.standard_normal((4, 3, 3, 3)))
    bias = rng.standard_normal(4)
    kept = bias.copy()
    out = T.conv2d(x, k, T.constant(bias)).data
    assert np.array_equal(out, T.conv2d(x, k).data + bias[:, None, None])
    assert np.array_equal(bias, kept)


# one case per branch of conv2d's layout rule: (c_out, c_in, k, h, w, layout)
CONV_BRANCHES = [
    (1, 3, 3, 4, 5, "shifted"),      # c_out < c_in
    (2, 4, 5, 2, 3, "shifted"),      # map smaller than the kernel
    (2, 3, 5, 1, 1, "shifted"),
    (3, 2, 3, 4, 3, "im2col"),       # c_out > c_in
    (2, 2, 3, 3, 4, "im2col"),       # c_out == c_in
    (3, 1, 5, 1, 3, "im2col"),
    (2, 3, 1, 3, 4, "im2col"),       # k = 1: one GEMM on the map itself
    (3, 2, 1, 2, 1, "im2col"),
]


@pytest.mark.parametrize("c_out,c_in,k,h,w,layout", CONV_BRANCHES,
                         ids=[f"{c[0]}x{c[1]}_k{c[2]}_{c[3]}x{c[4]}" for c in CONV_BRANCHES])
def test_conv_gradients_match_finite_diff_on_each_layout(c_out, c_in, k, h, w, layout):
    assert T._conv_layout(c_out, c_in, k) is {"shifted": T._SHIFTED, "im2col": T._IM2COL}[layout]
    rng = np.random.default_rng(c_out * 1000 + c_in * 100 + k * 10 + h + w)
    arrays = {"x": rng.standard_normal((c_in, h, w)),
              "kernel": rng.standard_normal((c_out, c_in, k, k)) * 0.5,
              "bias": rng.standard_normal(c_out)}
    weights = T.constant(rng.standard_normal((c_out, h, w)))

    def loss(x, kernel, bias):
        return T.sum_all(mul(tanh(T.conv2d(x, kernel, bias)), weights))

    grads = T.backward(loss(*(T.parameter(a, n) for n, a in arrays.items())))
    for name in arrays:
        def f(arr, name=name):
            return loss(*(T.constant(arr if n == name else a)
                          for n, a in arrays.items())).item()

        assert _max_rel_err(grads[name], T.finite_diff(f, arrays[name])) < 1e-6, name


# ---------------------------------------------------------------------------
# activations


def test_sigmoid_at_zero():
    assert T.sigmoid(T.constant([0.0])).data[0] == 0.5


SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 800.0, -800.0, 1e-320, -1e-320,
                 36.0, -36.0, np.inf, -np.inf, np.nan, -np.nan]


@pytest.mark.parametrize("shape", [(64, 24, 24), (7,), (3, 1, 5)])
def test_sigmoid_matches_masked_formula_bit_for_bit(shape):
    rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
    x = rng.standard_normal(shape) * rng.choice([1.0, 10.0, 800.0], size=shape)
    x.flat[:len(SIGMOID_EDGES)] = SIGMOID_EDGES[:x.size]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = T.sigmoid(T.constant(x)).data
        ref = masked_sigmoid(x)
    # integer views compare every bit, NaN signs included
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_tanh_at_zero():
    assert tanh(T.constant([0.0])).data[0] == 0.0


def test_sigmoid_symmetry_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64) * 5
    s = T.sigmoid(T.constant(x)).data + T.sigmoid(T.constant(-x)).data
    np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-15)


def test_activation_ranges_strict():
    # f64 rounds tanh to exactly 1.0 beyond |x|~18, so probe below saturation
    rng = np.random.default_rng(5)
    x = T.constant(rng.uniform(-15, 15, 1000))
    s = T.sigmoid(x).data
    t = tanh(x).data
    assert np.all((s > 0) & (s < 1))
    assert np.all((t > -1) & (t < 1))


def test_relu_zeroes_negatives():
    x = T.constant([1.0, -1.0])
    assert np.array_equal(T.relu(x).data, [1.0, 0.0])


# ---------------------------------------------------------------------------
# bilinear resize


def test_resize_constant_map_stays_constant():
    out = T.bilinear_resize(T.constant(np.full((2, 3, 5), 0.7)), 9, 2)
    np.testing.assert_allclose(out.data, 0.7, rtol=0, atol=1e-15)


def test_resize_identity_size():
    rng = np.random.default_rng(6)
    x = rng.random((1, 4, 6))
    out = T.bilinear_resize(T.constant(x), 4, 6)
    np.testing.assert_allclose(out.data, x, rtol=0, atol=1e-15)


def test_resize_2x2_to_1x4_hand_values():
    x = T.constant(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
    out = T.bilinear_resize(x, 1, 4)
    # centers at -0.25, 0.25, 0.75, 1.25 clamp to [0,1]
    np.testing.assert_allclose(out.data[0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)


# fixed upsamples: one pixel spread over every output sample, and a 4x
# upsample whose outer samples clamp at both edges
UPSAMPLES = [((1, 1), (9, 7)), ((3, 3), (12, 12))]


def test_resize_matches_per_pixel_reference():
    rng = np.random.default_rng(8)
    for _ in range(12):
        h, w = rng.integers(1, 9, size=2)
        h2, w2 = rng.integers(1, 13, size=2)
        a = rng.random((2, h, w))
        out = T.bilinear_resize(T.constant(a), int(h2), int(w2))
        np.testing.assert_allclose(out.data, naive_bilinear_resize(a, int(h2), int(w2)),
                                   rtol=1e-12, atol=1e-12)
    for (h, w), (h2, w2) in UPSAMPLES:
        a = rng.random((2, h, w))
        out = T.bilinear_resize(T.constant(a), h2, w2)
        np.testing.assert_allclose(out.data, naive_bilinear_resize(a, h2, w2),
                                   rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# elementwise


def _cell_inputs(rng, c, h, w, c_x=None):
    """x, h_prev, kernel, bias and s_prev of a convlstm_cell over c_x + c
    input channels (c_x defaults to c)."""
    c_x = c if c_x is None else c_x
    return (rng.standard_normal((c_x, h, w)), rng.standard_normal((c, h, w)),
            rng.standard_normal((4 * c, c_x + c, 3, 3)) * 0.4, rng.standard_normal(4 * c) * 0.5,
            rng.standard_normal((c, h, w)))


def test_cell_with_a_ones_map_reads_x_itself():
    """The all-ones map, attention off, multiplies x into itself bit for
    bit: the cell equals the composed update on [x, h_prev]."""
    rng = np.random.default_rng(9)
    x, h, k, b, s = (T.constant(v) for v in _cell_inputs(rng, 4, 5, 5))
    x.data.flat[:2] = [-0.0, np.inf]
    ones = T.constant(np.ones((1, 5, 5)))
    h_ref, s_ref = composed_convlstm_cell([x, h], k, b, s)
    got = T.convlstm_cell(ones, x, h, k, b, s).data
    want = np.concatenate([h_ref.data, s_ref.data])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_concat_channel_counts():
    a = T.constant(np.zeros((3, 4, 4)))
    b = T.constant(np.ones((2, 4, 4)))
    assert concat([a, b]).data.shape == (5, 4, 4)
    assert concat([T.constant(np.zeros((2, 5))), T.constant(np.ones((1, 5)))]
                  ).data.shape == (3, 5)
    with pytest.raises(ShapeError):
        concat([a, T.constant(np.zeros((2, 4, 3)))])


def test_mul_equals_loop_product():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 3, 3))
    b = rng.standard_normal((2, 3, 3))
    out = mul(T.constant(a), T.constant(b)).data
    for c in range(2):
        for i in range(3):
            for j in range(3):
                assert out[c, i, j] == a[c, i, j] * b[c, i, j]


def test_elementwise_shape_errors():
    a = T.constant(np.zeros((2, 3, 3)))
    b = T.constant(np.zeros((2, 3, 3)))
    assert T.add(a, b).data.shape == (2, 3, 3)
    with pytest.raises(ShapeError):
        T.add(a, T.constant(np.zeros((2, 3, 4))))
    with pytest.raises(ShapeError):
        mul(a, T.constant(np.zeros((1, 3, 3))))


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_is_ones():
    x = T.parameter(np.arange(6.0).reshape(2, 3), "x")
    grads = T.backward(T.sum_all(x))
    np.testing.assert_array_equal(grads["x"], np.ones((2, 3)))


def test_backward_of_sum_sigmoid_closed_form():
    rng = np.random.default_rng(11)
    x = T.parameter(rng.standard_normal((3, 4)), "x")
    grads = T.backward(T.sum_all(T.sigmoid(x)))
    s = 1 / (1 + np.exp(-x.data))
    np.testing.assert_allclose(grads["x"], s * (1 - s), rtol=1e-12, atol=0)


def test_backward_rejects_nonscalar():
    x = T.parameter(np.ones(3), "x")
    with pytest.raises(ShapeError):
        T.backward(T.relu(x))


def test_backward_diamond_graph_accumulates():
    x = T.parameter([2.0], "x")
    y = T.add(T.scale(x, 3.0), T.scale(x, 4.0))
    grads = T.backward(T.sum_all(y))
    assert grads["x"][0] == 7.0


def test_first_gradient_is_copied_not_shared_between_parents():
    """add hands one adjoint array to both of its parents. Here both take it
    as their first contribution and x gets a second one afterwards, which
    must not reach y's gradient."""
    rng = np.random.default_rng(23)
    x0, y0, w, v = rng.standard_normal((4, 3))
    for swap in (False, True):
        x, y = T.parameter(x0, "x"), T.parameter(y0, "y")
        s = T.add(y, x) if swap else T.add(x, y)
        loss = T.add(T.sum_all(mul(s, T.constant(w))),
                     T.sum_all(mul(x, T.constant(v))))
        for sweep in (T.backward, retaining_backward):
            grads = sweep(loss)
            assert np.array_equal(grads["x"], w + v), (swap, sweep)
            assert np.array_equal(grads["y"], w), (swap, sweep)


def assert_sweep_matches_retaining_oracle(loss):
    """backward gives the oracle's gradients bit for bit, and afterwards no
    node, leaves included, holds a gradient."""
    expect = retaining_backward(loss)
    grads = T.backward(loss)
    assert sorted(grads) == sorted(expect) != []
    for name, g in expect.items():
        assert np.array_equal(grads[name], g), name
    for node in graph_nodes(loss):
        assert node.grad is None, node


def test_backward_matches_retaining_oracle_on_the_aclstm_case():
    from seqdet.train import build_aclstm_case

    assert_sweep_matches_retaining_oracle(build_aclstm_case(frames=4).build_loss())


def _sweep_memory(monkeypatch, step):
    """Bytes held after, and peak bytes during, T.backward and the retaining
    oracle on one unrolled recurrent graph built with the given step; and
    the graph's leaf and interior bytes."""
    from seqdet import net
    from seqdet.train import build_aclstm_case

    monkeypatch.setattr(net, "attention_convlstm_step", step)
    held, peak = {}, {}
    for sweep in (T.backward, retaining_backward):
        case = build_aclstm_case(frames=8, channels=16, size=12)
        loss = case.build_loss()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grads = sweep(loss)
            now, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held[sweep], peak[sweep] = now - base, top - base
        assert grads
    leaf_bytes = sum(p.data.nbytes for p in case.params.values())
    interior_bytes = sum(n.data.nbytes for n in graph_nodes(loss) if n.parents)
    return held, peak, leaf_bytes, interior_bytes


def test_backward_releases_interior_gradients(monkeypatch):
    """On an unrolled recurrent graph, what the sweep leaves allocated is
    the leaf gradients once (the returned dict owns them), and its peak is
    well under that of a sweep that keeps every node's gradient.

    The peak is compared on the composed step (refimpl.composed_aclstm_step),
    whose interior gradients outweigh the one conv backward transient that
    both sweeps share. The fused cell keeps too little interior for a peak
    ratio to show the release, so on net's own step the held bytes are
    checked: the leaf gradients here, more than every interior node's data
    in the oracle."""
    from seqdet import net

    fused_step = net.attention_convlstm_step
    held, peak, leaf_bytes, _ = _sweep_memory(monkeypatch, composed_aclstm_step)
    assert held[T.backward] < leaf_bytes + 64 * 1024, (held, leaf_bytes)
    assert held[retaining_backward] > 8 * leaf_bytes, (held, leaf_bytes)
    assert peak[T.backward] < 0.5 * peak[retaining_backward], peak

    held, _, leaf_bytes, interior_bytes = _sweep_memory(monkeypatch, fused_step)
    assert interior_bytes > 4 * leaf_bytes, (interior_bytes, leaf_bytes)
    assert held[T.backward] < leaf_bytes + 64 * 1024, (held, leaf_bytes)
    assert held[retaining_backward] > interior_bytes, (held, interior_bytes)


def test_unrolled_graph_holds_what_each_step_keeps():
    """Bytes an unrolled recurrent graph holds after its forward, against a
    closed-form count. A step over c-channel S x S maps, attention and
    dropout on, keeps these float64 maps: att1 and its relu (c/2 channels
    each), att2 and its relu (c/4 each), att3 and the attention map (1
    each), and the cell's [h; s] (2c) and gate activations (4c); plus the
    dropout mask as c channels of booleans. Each frame adds the 3-channel
    head map; the zero start state is 2c channels. What is left is the
    graph's Python objects and few-entry loss vectors, the same for any S,
    so it is measured on 1 x 1 maps (the attention target is 8 x 8 at every
    S, and bce_mean keeps no resized copy of it, see
    test_bce_mean_keeps_no_copy_of_the_prediction). A float64 dropout mask
    (7c more bytes per pixel and step), a.x or tanh(s) (8c each), a
    concatenated [x, h_prev] copy (16c) or the raw gate map (32c) breaks
    the bound."""
    from seqdet.train import build_aclstm_case

    frames, c = 6, 16

    def kept(size):
        px = size * size
        step = px * (8 * (c // 2 * 2 + c // 4 * 2 + 2 + 2 * c + 4 * c) + c)
        return 8 * 2 * c * px + frames * (step + 8 * 3 * px)

    def held(size):
        case = build_aclstm_case(frames=frames, channels=c, size=size, dropout=0.2)
        case.build_loss()                   # caches the resize matrices
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = case.build_loss()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            del loss
            tracemalloc.stop()

    objects = held(1) - kept(1)
    got = held(12) - objects
    assert kept(12) - 8 * 1024 <= got <= kept(12) + 8 * 1024, (got, kept(12), objects)
    assert 8 * 1024 < frames * 7 * c * 144 / 4      # the smallest regression shows


def test_slice_channels_is_a_view_with_the_slice_gradient():
    rng = np.random.default_rng(17)
    x = T.parameter(rng.standard_normal((5, 3, 4)), "x")
    w = rng.standard_normal((2, 3, 4))
    out = T.slice_channels(x, 1, 3)
    assert np.shares_memory(out.data, x.data)
    np.testing.assert_array_equal(out.data, x.data[1:3])
    grads = T.backward(T.sum_all(mul(out, T.constant(w))))
    expect = np.zeros((5, 3, 4))
    expect[1:3] = w
    np.testing.assert_array_equal(grads["x"], expect)


def test_finite_diff_sum_is_ones():
    g = T.finite_diff(lambda a: a.sum(), np.array([1.0, -2.0, 3.0]))
    np.testing.assert_allclose(g, 1.0, atol=1e-9)


def test_finite_diff_quadratic_closed_form():
    g = T.finite_diff(lambda a: (a ** 2).sum(), np.array([1.0, 2.0]))
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-6)


def _max_rel_err(ga, gn):
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-4)
    return float(np.max(np.abs(ga - gn) / denom))


OPS = [
    ("conv2d", lambda rng: _conv_case(rng)),
    ("conv2d_input", lambda rng: _conv_input_case(rng)),
    ("sigmoid", lambda rng: _unary_case(rng, T.sigmoid)),
    ("tanh", lambda rng: _unary_case(rng, tanh)),
    ("relu", lambda rng: _unary_case(rng, T.relu)),
    ("resize", lambda rng: _resize_case(rng)),
    ("resize_1x1_to_9x7", lambda rng: _resize_case(rng, (2, 1, 1), 9, 7)),
    ("resize_3x3_to_12x12", lambda rng: _resize_case(rng, (2, 3, 3), 12, 12)),
    ("add", lambda rng: _binary_case(rng, T.add)),
    ("sub", lambda rng: _binary_case(rng, T.sub)),
    ("mul", lambda rng: _binary_case(rng, mul)),
    ("concat", lambda rng: _concat_case(rng)),
    ("gather", lambda rng: _gather_case(rng)),
    ("absolute", lambda rng: _unary_case(rng, T.absolute)),
    ("dropout", lambda rng: _dropout_case(rng, "x")),
    ("dropout_map", lambda rng: _dropout_case(rng, "map")),
    ("smooth_l1", lambda rng: _smooth_l1_case(rng)),
    ("softmax_ce_rows", lambda rng: _softmax_ce_rows_case(rng)),
    ("softmax_prob_rows", lambda rng: _softmax_prob_rows_case(rng)),
    ("bce_mean", lambda rng: _bce_case(rng)),
    ("gather_rows", lambda rng: _gather_rows_case(rng)),
    ("conv2d_split", lambda rng: _conv_split_case(rng)),
    ("conv2d_parts_first", lambda rng: _conv_parts_case(rng, 0, 6)),     # im2col
    ("conv2d_parts_second", lambda rng: _conv_parts_case(rng, 1, 2)),    # shifted
    ("slice_channels", lambda rng: _slice_case(rng)),
    ("convlstm_cell_part", lambda rng: _cell_case(rng, "part")),
    ("convlstm_cell_map", lambda rng: _cell_case(rng, "map")),
    ("convlstm_cell_kernel", lambda rng: _cell_case(rng, "kernel")),
    ("convlstm_cell_bias", lambda rng: _cell_case(rng, "bias")),
    ("convlstm_cell_s_prev", lambda rng: _cell_case(rng, "s_prev")),
    ("conv_gather_input", lambda rng: _conv_gather_case(rng, "x1")),
    ("conv_gather_kernel", lambda rng: _conv_gather_case(rng, "k0")),
    ("conv_gather_bias", lambda rng: _conv_gather_case(rng, "b1")),
]


def _unary_case(rng, op):
    x0 = rng.standard_normal((2, 3, 3)) + 0.1  # keep clear of relu/abs kinks
    return x0, lambda x: T.sum_all(mul(op(x), op(x)))


def _binary_case(rng, op):
    x0 = rng.standard_normal((2, 3, 3))
    other = T.constant(rng.standard_normal((2, 3, 3)))
    return x0, lambda x: T.sum_all(tanh(op(x, other)))


def _concat_case(rng):
    x0 = rng.standard_normal((2, 3, 3))
    other = T.constant(rng.standard_normal((1, 3, 3)))
    return x0, lambda x: T.sum_all(tanh(concat([x, other])))


def _conv_case(rng):
    # a 5x5 kernel over a map shorter than the kernel: every output row
    # reads the zero padding
    x0 = rng.standard_normal((2, 2, 5, 5))
    inp = T.constant(rng.standard_normal((2, 3, 6)))
    return x0, lambda k: T.sum_all(tanh(T.conv2d(inp, k)))


def _conv_input_case(rng):
    x0 = rng.standard_normal((2, 4, 2))
    kern = T.constant(rng.standard_normal((3, 2, 5, 5)) * 0.5)
    return x0, lambda x: T.sum_all(tanh(T.conv2d(x, kern)))


def _resize_case(rng, shape=(2, 3, 4), h2=7, w2=5):
    x0 = rng.standard_normal(shape)
    return x0, lambda x: T.sum_all(T.sigmoid(T.bilinear_resize(x, h2, w2)))


def _gather_case(rng):
    x0 = rng.standard_normal((3, 4))
    idx = np.array([[0, 5, 5], [11, 3, 0]])
    return x0, lambda x: T.sum_all(tanh(T.gather(x, idx)))


def _dropout_case(rng, leaf):
    # dropout on a.x inside convlstm_cell, the same mask on every
    # evaluation; the leaf is the multi-channel input or the one-channel map
    return _cell_case(rng, {"x": "part"}.get(leaf, leaf), rate=0.3)


def _smooth_l1_case(rng):
    x0 = rng.standard_normal(8) * 2
    tgt = rng.standard_normal(8)
    return x0, lambda x: T.smooth_l1_sum(x, tgt)


# row ops: several rows, a row id repeated, uneven weights per output row
ROW_IDS = np.array([3, 0, 3, 2])
ROW_WEIGHTS = T.constant([1.0, -0.5, 2.0, 0.7])


def _softmax_ce_rows_case(rng):
    x0 = rng.standard_normal((4, 5))
    targets = np.array([2, 0, 4, 2])
    return x0, lambda x: T.sum_all(mul(
        T.softmax_ce_rows(T.gather_rows(x, ROW_IDS), targets), ROW_WEIGHTS))


def _softmax_prob_rows_case(rng):
    x0 = rng.standard_normal((4, 5))
    return x0, lambda x: T.sum_all(mul(
        T.softmax_prob_rows(T.gather_rows(x, ROW_IDS), 1), ROW_WEIGHTS))


def _bce_case(rng):
    # the prediction is read resized to the target's 5 x 4 inside the node
    x0 = rng.uniform(0.05, 0.95, (1, 3, 3))
    tgt = (rng.random((1, 5, 4)) > 0.5).astype(float)
    return x0, lambda x: T.bce_mean(x, tgt)


def _gather_rows_case(rng):
    x0 = rng.standard_normal((4, 3))
    other = T.constant(rng.standard_normal((2, 3)))
    return x0, lambda x: T.sum_all(tanh(concat([T.gather_rows(x, ROW_IDS), other])))


def _conv_split_case(rng):
    # one stacked kernel whose output blocks feed different ops, as the
    # ConvLSTM gates do
    x0 = rng.standard_normal((5, 2, 3, 3))
    inp = T.constant(rng.standard_normal((2, 5, 5)))
    bias = T.constant(rng.standard_normal(5))

    def build(k):
        out = T.conv2d(inp, k, bias)
        return T.add(T.sum_all(T.sigmoid(T.slice_channels(out, 0, 2))),
                     T.sum_all(tanh(T.slice_channels(out, 2, 5))))
    return x0, build


def _conv_parts_case(rng, at, c_out):
    # the leaf is part `at` of a two-part input read as its concatenation
    x0 = rng.standard_normal((2, 4, 3))
    other = T.constant(rng.standard_normal((3, 4, 3)))
    kern = T.constant(rng.standard_normal((c_out, 5, 3, 3)) * 0.5)

    def build(x):
        parts = [x, other] if at == 0 else [other, x]
        return T.sum_all(tanh(T.conv2d(parts, kern)))
    return x0, build


def _cell_case(rng, leaf, rate=0.0):
    # c = 2 channels of state, gates from a 3 + 2 channel input [a.x, h_prev]
    # (with dropout at rate, the same mask on every evaluation); the loss
    # reads both h and s
    c, h, w = 2, 3, 4
    x, h_prev, kernel, bias, s_prev = _cell_inputs(rng, c, h, w, c_x=3)
    arrays = {"part": x, "map": rng.uniform(0.1, 0.9, (1, h, w)), "kernel": kernel,
              "bias": bias, "s_prev": s_prev}
    h_prev = T.constant(h_prev)
    weights = T.constant(rng.standard_normal((2 * c, h, w)))

    def build(v):
        t = {n: v if n == leaf else T.constant(a) for n, a in arrays.items()}
        cell = T.convlstm_cell(t["map"], t["part"], h_prev, t["kernel"], t["bias"], t["s_prev"],
                               rate, np.random.default_rng(99))
        hs = concat([tanh(T.slice_channels(cell, 0, c)), T.slice_channels(cell, c, 2 * c)])
        return T.sum_all(mul(hs, weights))
    return arrays[leaf], build


def _conv_gather_case(rng, leaf):
    # two convs (a 3 x 3 over a 4 x 3 map, a 1 x 1 over a 2 x 2 one) read
    # through two index arrays that repeat some entries and skip others
    arrays = {"x0": rng.standard_normal((2, 4, 3)), "k0": rng.standard_normal((3, 2, 3, 3)) * 0.5,
              "b0": rng.standard_normal(3), "x1": rng.standard_normal((3, 2, 2)),
              "k1": rng.standard_normal((2, 3, 1, 1)), "b1": rng.standard_normal(2)}
    indices = [np.array([[0, 5, 5], [35, 36, 42]]), np.array([43, 1, 36, 20])]
    weights = [T.constant(rng.standard_normal(i.shape)) for i in indices]

    def build(v):
        t = {n: v if n == leaf else T.constant(a) for n, a in arrays.items()}
        outs = T.conv_gather([t["x0"], t["x1"]], [t["k0"], t["k1"]], [t["b0"], t["b1"]],
                             indices)
        return T.add_n([T.sum_all(mul(tanh(o), w)) for o, w in zip(outs, weights)])
    return arrays[leaf], build


def _slice_case(rng):
    x0 = rng.standard_normal((4, 3, 3))
    return x0, lambda x: T.sum_all(mul(T.slice_channels(x, 1, 3),
                                       T.slice_channels(x, 2, 4)))


@pytest.mark.parametrize("name,case", OPS, ids=[n for n, _ in OPS])
def test_op_gradient_matches_finite_diff(name, case):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x0, build = case(rng)
    leaf = T.Tensor(x0.copy(), name="leaf", requires_grad=True)
    grads = T.backward(build(leaf))
    ga = grads["leaf"]

    def f(arr):
        t = T.Tensor(arr.copy(), name="leaf", requires_grad=True)
        return build(t).item()

    gn = T.finite_diff(f, x0)
    assert _max_rel_err(ga, gn) < 1e-4


def test_backward_matches_finite_diff_on_random_composites():
    # deeper random graphs mixing several op kinds
    for seed in range(6):
        rng = np.random.default_rng(200 + seed)
        x0 = rng.standard_normal((2, 4, 4)) * 0.5
        w = T.constant(rng.standard_normal((2, 2, 3, 3)) * 0.4)
        b = T.constant(rng.standard_normal(2) * 0.1)
        att = T.constant(rng.random((2, 4, 4)))
        tgt = (rng.random((2, 2, 2)) > 0.5).astype(float)

        def build(x):
            y = T.conv2d(x, w, b)
            y = T.add(tanh(y), mul(att, T.sigmoid(y)))
            z = T.bilinear_resize(y, 3, 3)
            loss = T.bce_mean(T.sigmoid(z), tgt)
            vec = T.gather(y, np.array([[1, 7, 12]]))
            return T.add(loss, T.scale(T.softmax_ce_rows(vec, [0]), 0.3))

        leaf = T.Tensor(x0.copy(), name="x", requires_grad=True)
        ga = T.backward(build(leaf))["x"]

        def f(arr):
            return build(T.Tensor(arr.copy(), name="x", requires_grad=True)).item()

        gn = T.finite_diff(f, x0)
        assert _max_rel_err(ga, gn) < 1e-4


# ---------------------------------------------------------------------------
# misc ops


def test_gather_values_and_scatter_grad():
    x = T.parameter(np.arange(12.0).reshape(3, 4), "x")
    out = T.gather(x, np.array([0, 5, 5]))
    np.testing.assert_array_equal(out.data, [0, 5, 5])
    grads = T.backward(T.sum_all(out))
    expect = np.zeros(12)
    expect[0] = 1
    expect[5] = 2
    np.testing.assert_array_equal(grads["x"].reshape(-1), expect)
    assert T.gather(x, np.array([[0, 5], [5, 11]])).data.tolist() == [[0, 5], [5, 11]]
    rows = T.gather_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(rows.data, x.data[[2, 0, 2]])
    with pytest.raises(ShapeError):
        T.gather_rows(x, [3])


def _pass_through_cell(a, x, rate, rng):
    """s of a cell whose gates read a.x straight through: i = sigmoid(40),
    which is 1.0, c = the a.x channel, and s_prev = 0, so s = tanh(a.x)."""
    c = x.data.shape[0]
    kern = np.zeros((4 * c, 2 * c, 3, 3))
    kern[3 * c + np.arange(c), np.arange(c), 1, 1] = 1.0
    bias = np.zeros(4 * c)
    bias[:c] = 40.0
    zero = T.constant(np.zeros(x.data.shape))
    cell = T.convlstm_cell(a, x, zero, T.constant(kern), T.constant(bias), zero, rate, rng)
    return cell.data[c:]


def test_dropout_zero_rate_is_identity():
    """convlstm_cell at rate 0 reads the plain product a*x and draws
    nothing."""
    rng = np.random.default_rng(0)
    a = T.constant(rng.random((1, 3, 3)))
    x, h, k, b, s = (T.constant(v) for v in _cell_inputs(rng, 2, 3, 3))
    state = rng.bit_generator.state
    h_ref, s_ref = composed_convlstm_cell([T.constant(a.data * x.data), h], k, b, s)
    got = T.convlstm_cell(a, x, h, k, b, s, 0.0, rng).data
    assert np.array_equal(got, np.concatenate([h_ref.data, s_ref.data]))
    assert rng.bit_generator.state == state
    assert np.array_equal(_pass_through_cell(a, x, 0.0, rng), np.tanh(a.data * x.data))


def test_dropout_scales_surviving_entries():
    rng = np.random.default_rng(12)
    s = _pass_through_cell(T.constant(np.ones((1, 50, 50))), T.constant(np.ones((3, 50, 50))),
                           0.2, rng)
    assert set(np.unique(s)) == {0.0, np.tanh(1 / 0.8)}


def test_dropout_matches_the_float_mask_form_bit_for_bit():
    """Dropout inside convlstm_cell, with its boolean mask and scale, gives
    the bits of the composed graph: the map product (refimpl.
    attention_product), then a product with the float mask (rng draw >=
    rate) / (1 - rate) (refimpl.composed_dropout), then the composed update,
    in its data and in every operand's gradient."""
    rng = np.random.default_rng(13)
    a0 = rng.random((1, 6, 6))
    arrays = dict(zip(("x", "h", "kernel", "bias", "s"), _cell_inputs(rng, 4, 6, 6)))
    arrays["x"].flat[:2] = [-0.0, 0.0]        # a dropped negative entry is -0.0 too
    g = rng.standard_normal((8, 6, 6))
    for rate in (0.2, 0.5, 0.9):
        results = []
        for fold in (True, False):
            a = T.parameter(a0, "a")
            x, h, k, b, s = (T.parameter(v, n) for n, v in arrays.items())
            if fold:
                out = T.convlstm_cell(a, x, h, k, b, s, rate, np.random.default_rng(8))
            else:
                ax = composed_dropout(attention_product(a, x), rate, np.random.default_rng(8))
                out = concat(composed_convlstm_cell([ax, h], k, b, s))
            grads = T.backward(T.sum_all(mul(out, T.constant(g))))
            results.append([out.data] + [grads[n] for n in ("a", *arrays)])
        for got, want in zip(*results):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), rate


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.1, 1.0])
def test_dropout_rejects_a_rate_outside_zero_to_one(rate):
    ones = T.constant(np.ones((1, 2, 2)))
    x, h, k, b, s = (T.constant(v) for v in _cell_inputs(np.random.default_rng(0), 1, 2, 2))
    with pytest.raises(ValueError, match="dropout rate"):
        T.convlstm_cell(ones, x, h, k, b, s, rate, np.random.default_rng(0))


def test_smooth_l1_values():
    out = T.smooth_l1_sum(T.constant([0.5, 2.0]), np.zeros(2))
    assert out.item() == pytest.approx(0.5 * 0.25 + 1.5)


def test_softmax_ce_perfect_prediction_near_zero():
    logits = T.constant([[50.0, 0.0, 0.0], [0.0, 0.0, 50.0]])
    assert np.all(T.softmax_ce_rows(logits, [0, 2]).data < 1e-9)
    assert np.all(T.softmax_ce_rows(logits, [1, 1]).data > 49)
    with pytest.raises(ShapeError):
        T.softmax_ce_rows(logits, [0, 3])


def test_bce_mean_keeps_no_copy_of_the_prediction():
    """The node reads an 8 x 8 prediction resized to the 64 x 64 target but
    holds only the prediction node, the caller's target and the cached
    resize matrix, not the resized map or its clamp: its backward recomputes
    both. Value and gradient are the composed graph's, a bilinear_resize
    node and then bce_mean at the target's size (refimpl.composed_bce), bit
    for bit, and the value is the per-pixel formula's."""
    rng = np.random.default_rng(22)
    pred = T.parameter(rng.uniform(0.01, 0.99, (1, 8, 8)), "p")
    pred.data[0, :2, :2] = 0.0          # clamped across its whole footprint:
    pred.data[0, -2:, -2:] = 1.0        # no gradient at the corner pixels
    tgt = (rng.random((1, 64, 64)) > 0.5).astype(float)
    T.bce_mean(pred, tgt)               # caches the resize matrix
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        node = T.bce_mean(pred, tgt)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 1024, held            # the resized map alone is 32 KiB
    kept = [c.cell_contents for c in node._backward.__closure__]
    assert all(v is tgt or v is T._resize_matrix(8, 64) for v in kept
               if isinstance(v, np.ndarray))
    ref = composed_bce(pred, tgt)
    assert np.array_equal(node.data.view(np.uint64), ref.data.view(np.uint64))
    grad, want = T.backward(node)["p"], T.backward(ref)["p"]
    assert np.array_equal(grad.view(np.uint64), want.view(np.uint64))
    assert grad[0, 0, 0] == 0.0 and grad[0, -1, -1] == 0.0 and np.all(grad[0, 3:5, 3:5] != 0)
    p = np.clip(naive_bilinear_resize(pred.data, 64, 64), 1e-7, 1 - 1e-7)
    assert node.item() == pytest.approx(np.mean(-tgt * np.log(p) - (1 - tgt) * np.log(1 - p)),
                                        rel=1e-12)


def test_bce_mean_at_half_is_ln2():
    pred = T.constant(np.full((3, 3), 0.5))
    tgt = np.zeros((3, 3))
    assert T.bce_mean(pred, tgt).item() == pytest.approx(np.log(2), rel=1e-12)


# ---------------------------------------------------------------------------
# TNSR files


def test_tnsr_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((2, 3, 4)).astype(np.float32)
    p = tmp_path / "x.tnsr"
    T.save_tnsr(p, a)
    back = T.load_tnsr(p)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, a.astype(np.float64))


def test_tnsr_layout_bytes(tmp_path):
    p = tmp_path / "y.tnsr"
    T.save_tnsr(p, np.array([[1.0, 2.0]], dtype=np.float32))
    raw = p.read_bytes()
    assert raw[:4] == b"TNSR"
    assert raw[4] == 2
    assert raw[5:13] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    assert np.frombuffer(raw[13:], "<f4").tolist() == [1.0, 2.0]


def test_tnsr_bad_magic(tmp_path):
    p = tmp_path / "bad.tnsr"
    p.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ParseError):
        T.load_tnsr(p)


def test_tnsr_dims_whose_product_overflows_int64_are_a_parse_error(tmp_path):
    # 65536**4 == 2**64 wraps to 0 in int64, which matched the empty payload
    p = tmp_path / "huge.tnsr"
    p.write_bytes(b"TNSR" + bytes([4]) + (65536).to_bytes(4, "little") * 4)
    with pytest.raises(ParseError, match=r"huge\.tnsr: payload size 0 != 73786976294838206464"):
        T.load_tnsr(p)


def test_tnsr_every_truncation_is_a_parse_error(tmp_path):
    good = tmp_path / "good.tnsr"
    T.save_tnsr(good, np.arange(6.0).reshape(2, 3))
    raw = good.read_bytes()
    cut = tmp_path / "cut.tnsr"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ParseError, match="cut.tnsr"):
            T.load_tnsr(cut)
