import warnings
import zlib

import numpy as np
import pytest

from seqdet import tensor as T
from seqdet.errors import ParseError, ShapeError

from refimpl import masked_sigmoid, naive_bilinear_resize, naive_conv2d


def rand_t(rng, shape, name=None):
    return T.Tensor(rng.standard_normal(shape), name=name, requires_grad=True)


# ---------------------------------------------------------------------------
# conv2d


def test_conv_1x1_kernel_scales():
    x = T.constant([[[1.0, 2.0], [3.0, 4.0]]])
    k = T.constant(np.full((1, 1, 1, 1), 2.0))
    out = T.conv2d(x, k, T.constant([0.0]))
    assert np.array_equal(out.data, [[[2, 4], [6, 8]]])


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = T.constant(rng.random((3, 7, 7)))
    k = np.zeros((3, 3, 3, 3))
    for c in range(3):
        k[c, c, 1, 1] = 1.0
    out = T.conv2d(x, T.constant(k), None, stride=1, pad=1)
    assert np.array_equal(out.data, x.data)


def test_conv_matches_naive_loops_many_cases():
    rng = np.random.default_rng(1)
    for _ in range(110):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, k // 2 + 1))
        h = k - 2 * pad + stride * int(rng.integers(1, 5))
        w = k - 2 * pad + stride * int(rng.integers(1, 5))
        x = rng.standard_normal((c_in, h, w))
        kern = rng.standard_normal((c_out, c_in, k, k))
        bias = rng.standard_normal(c_out)
        out = T.conv2d(T.constant(x), T.constant(kern), T.constant(bias), stride, pad)
        ref = naive_conv2d(x, kern, bias, stride, pad)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


def test_conv_random_3x5x5_case_close_to_reference():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5, 5))
    k = rng.standard_normal((2, 3, 3, 3))
    out = T.conv2d(T.constant(x), T.constant(k), None, 1, 0)
    np.testing.assert_allclose(out.data, naive_conv2d(x, k), rtol=1e-12, atol=1e-12)


def test_conv_shape_errors():
    x = T.constant(np.zeros((2, 4, 4)))
    with pytest.raises(ShapeError):
        T.conv2d(x, T.constant(np.zeros((1, 3, 3, 3))), None)  # channel mismatch
    with pytest.raises(ShapeError):
        T.conv2d(x, T.constant(np.zeros((1, 2, 2, 2))), None)  # even kernel
    with pytest.raises(ShapeError):
        T.conv2d(x, T.constant(np.zeros((1, 2, 3, 3))), None, stride=2)  # not integral


def test_conv_pure_same_inputs_same_bits():
    rng = np.random.default_rng(3)
    x = T.constant(rng.standard_normal((2, 6, 6)))
    k = T.constant(rng.standard_normal((3, 2, 3, 3)))
    a = T.conv2d(x, k, None, 1, 1).data
    b = T.conv2d(x, k, None, 1, 1).data
    assert np.array_equal(a, b)


def test_conv_bias_adds_exactly_and_stays_unchanged():
    rng = np.random.default_rng(6)
    x = T.constant(rng.standard_normal((3, 7, 7)))
    k = T.constant(rng.standard_normal((4, 3, 3, 3)))
    bias = rng.standard_normal(4)
    kept = bias.copy()
    out = T.conv2d(x, k, T.constant(bias), 1, 1).data
    assert np.array_equal(out, T.conv2d(x, k, None, 1, 1).data + bias[:, None, None])
    assert np.array_equal(bias, kept)


# ---------------------------------------------------------------------------
# activations


def test_sigmoid_at_zero():
    assert T.sigmoid(T.constant([0.0])).data[0] == 0.5


SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e-320, -1e-320, 36.0, -36.0,
                 np.inf, -np.inf, np.nan, -np.nan]


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
    assert T.tanh(T.constant([0.0])).data[0] == 0.0


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
    t = T.tanh(x).data
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


def test_chanwise_mul_ones_is_identity():
    rng = np.random.default_rng(9)
    x = T.constant(rng.random((4, 5, 5)))
    ones = T.constant(np.ones((1, 5, 5)))
    assert np.array_equal(T.chanwise_mul(ones, x).data, x.data)


def test_concat_channel_counts():
    a = T.constant(np.zeros((3, 4, 4)))
    b = T.constant(np.ones((2, 4, 4)))
    assert T.concat([a, b]).data.shape == (5, 4, 4)
    assert T.concat([T.constant(np.zeros((2, 5))), T.constant(np.ones((1, 5)))]
                    ).data.shape == (3, 5)
    with pytest.raises(ShapeError):
        T.concat([a, T.constant(np.zeros((2, 4, 3)))])


def test_mul_equals_loop_product():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 3, 3))
    b = rng.standard_normal((2, 3, 3))
    out = T.mul(T.constant(a), T.constant(b)).data
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
        T.chanwise_mul(a, b)  # first operand not single-channel


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_is_ones():
    x = T.parameter(np.arange(6.0).reshape(2, 3), "x")
    grads = T.backward(T.sum_all(x))
    np.testing.assert_array_equal(grads["x"], np.ones((2, 3)))


def test_backward_of_sum_sigmoid_closed_form():
    rng = np.random.default_rng(11)
    x = T.parameter(rng.standard_normal((3, 4)), "x")
    T.backward(T.sum_all(T.sigmoid(x)))
    s = 1 / (1 + np.exp(-x.data))
    np.testing.assert_allclose(x.grad, s * (1 - s), rtol=1e-12, atol=0)


def test_backward_rejects_nonscalar():
    x = T.parameter(np.ones(3), "x")
    with pytest.raises(ShapeError):
        T.backward(T.relu(x))


def test_backward_diamond_graph_accumulates():
    x = T.parameter([2.0], "x")
    y = T.add(T.scale(x, 3.0), T.scale(x, 4.0))
    grads = T.backward(T.sum_all(y))
    assert grads["x"][0] == 7.0


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
    ("sigmoid", lambda rng: _unary_case(rng, T.sigmoid)),
    ("tanh", lambda rng: _unary_case(rng, T.tanh)),
    ("relu", lambda rng: _unary_case(rng, T.relu)),
    ("resize", lambda rng: _resize_case(rng)),
    ("resize_1x1_to_9x7", lambda rng: _resize_case(rng, (2, 1, 1), 9, 7)),
    ("resize_3x3_to_12x12", lambda rng: _resize_case(rng, (2, 3, 3), 12, 12)),
    ("add", lambda rng: _binary_case(rng, T.add)),
    ("sub", lambda rng: _binary_case(rng, T.sub)),
    ("mul", lambda rng: _binary_case(rng, T.mul)),
    ("chanwise_mul", lambda rng: _chanwise_case(rng)),
    ("concat", lambda rng: _concat_case(rng)),
    ("gather", lambda rng: _gather_case(rng)),
    ("absolute", lambda rng: _unary_case(rng, T.absolute)),
    ("dropout", lambda rng: _dropout_case(rng)),
    ("smooth_l1", lambda rng: _smooth_l1_case(rng)),
    ("softmax_ce_rows", lambda rng: _softmax_ce_rows_case(rng)),
    ("softmax_prob_rows", lambda rng: _softmax_prob_rows_case(rng)),
    ("bce_mean", lambda rng: _bce_case(rng)),
    ("gather_rows", lambda rng: _gather_rows_case(rng)),
    ("conv2d_split", lambda rng: _conv_split_case(rng)),
    ("slice_channels", lambda rng: _slice_case(rng)),
]


def _unary_case(rng, op):
    x0 = rng.standard_normal((2, 3, 3)) + 0.1  # keep clear of relu/abs kinks
    return x0, lambda x: T.sum_all(T.mul(op(x), op(x)))


def _binary_case(rng, op):
    x0 = rng.standard_normal((2, 3, 3))
    other = T.constant(rng.standard_normal((2, 3, 3)))
    return x0, lambda x: T.sum_all(T.tanh(op(x, other)))


def _chanwise_case(rng):
    x0 = rng.standard_normal((1, 4, 4))
    other = T.constant(rng.standard_normal((3, 4, 4)))
    return x0, lambda x: T.sum_all(T.sigmoid(T.chanwise_mul(x, other)))


def _concat_case(rng):
    x0 = rng.standard_normal((2, 3, 3))
    other = T.constant(rng.standard_normal((1, 3, 3)))
    return x0, lambda x: T.sum_all(T.tanh(T.concat([x, other])))


def _conv_case(rng):
    x0 = rng.standard_normal((2, 2, 3, 3))
    inp = T.constant(rng.standard_normal((2, 5, 5)))
    return x0, lambda k: T.sum_all(T.tanh(T.conv2d(inp, k, None, 2, 1)))


def _resize_case(rng, shape=(2, 3, 4), h2=7, w2=5):
    x0 = rng.standard_normal(shape)
    return x0, lambda x: T.sum_all(T.sigmoid(T.bilinear_resize(x, h2, w2)))


def _gather_case(rng):
    x0 = rng.standard_normal((3, 4))
    idx = np.array([[0, 5, 5], [11, 3, 0]])
    return x0, lambda x: T.sum_all(T.tanh(T.gather(x, idx)))


def _dropout_case(rng):
    x0 = rng.standard_normal((3, 4, 4))
    masks = [np.random.default_rng(99)]  # fixed mask stream per evaluation
    return x0, lambda x: T.sum_all(T.dropout(x, 0.3, np.random.default_rng(99)))


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
    return x0, lambda x: T.sum_all(T.mul(
        T.softmax_ce_rows(T.gather_rows(x, ROW_IDS), targets), ROW_WEIGHTS))


def _softmax_prob_rows_case(rng):
    x0 = rng.standard_normal((4, 5))
    return x0, lambda x: T.sum_all(T.mul(
        T.softmax_prob_rows(T.gather_rows(x, ROW_IDS), 1), ROW_WEIGHTS))


def _bce_case(rng):
    x0 = rng.uniform(0.05, 0.95, (1, 4, 4))
    tgt = (rng.random((1, 4, 4)) > 0.5).astype(float)
    return x0, lambda x: T.bce_mean(x, tgt)


def _gather_rows_case(rng):
    x0 = rng.standard_normal((4, 3))
    other = T.constant(rng.standard_normal((2, 3)))
    return x0, lambda x: T.sum_all(T.tanh(T.concat([T.gather_rows(x, ROW_IDS), other])))


def _conv_split_case(rng):
    # one stacked kernel whose output blocks feed different ops, as the
    # ConvLSTM gates do
    x0 = rng.standard_normal((5, 2, 3, 3))
    inp = T.constant(rng.standard_normal((2, 5, 5)))
    bias = T.constant(rng.standard_normal(5))

    def build(k):
        out = T.conv2d(inp, k, bias, 1, 1)
        return T.add(T.sum_all(T.sigmoid(T.slice_channels(out, 0, 2))),
                     T.sum_all(T.tanh(T.slice_channels(out, 2, 5))))
    return x0, build


def _slice_case(rng):
    x0 = rng.standard_normal((4, 3, 3))
    return x0, lambda x: T.sum_all(T.mul(T.slice_channels(x, 1, 3),
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
        att = T.constant(rng.random((1, 4, 4)))
        tgt = (rng.random((2, 2, 2)) > 0.5).astype(float)

        def build(x):
            y = T.conv2d(x, w, b, 1, 1)
            y = T.add(T.tanh(y), T.chanwise_mul(att, T.sigmoid(y)))
            z = T.bilinear_resize(y, 2, 2)
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
    T.backward(T.sum_all(out))
    expect = np.zeros(12)
    expect[0] = 1
    expect[5] = 2
    np.testing.assert_array_equal(x.grad.reshape(-1), expect)
    assert T.gather(x, np.array([[0, 5], [5, 11]])).data.tolist() == [[0, 5], [5, 11]]
    rows = T.gather_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(rows.data, x.data[[2, 0, 2]])
    with pytest.raises(ShapeError):
        T.gather_rows(x, [3])


def test_dropout_zero_rate_is_identity():
    x = T.constant(np.ones((2, 2)))
    assert T.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_scales_surviving_entries():
    rng = np.random.default_rng(12)
    x = T.constant(np.ones((50, 50)))
    out = T.dropout(x, 0.2, rng).data
    vals = np.unique(out)
    assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.8, 12)}


def test_smooth_l1_values():
    out = T.smooth_l1_sum(T.constant([0.5, 2.0]), np.zeros(2))
    assert out.item() == pytest.approx(0.5 * 0.25 + 1.5)


def test_softmax_ce_perfect_prediction_near_zero():
    logits = T.constant([[50.0, 0.0, 0.0], [0.0, 0.0, 50.0]])
    assert np.all(T.softmax_ce_rows(logits, [0, 2]).data < 1e-9)
    assert np.all(T.softmax_ce_rows(logits, [1, 1]).data > 49)
    with pytest.raises(ShapeError):
        T.softmax_ce_rows(logits, [0, 3])


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
