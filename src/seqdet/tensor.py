"""Minimal dense-tensor autodiff engine.

Float64 arrays of rank 1..4 carrying the forward operations a small
convolutional recurrent detector needs, reverse-mode gradient
accumulation over the recorded op graph, a central finite-difference
oracle for cross-checking gradients, and the TNSR binary file format
used by fixtures and checkpoints.

Feature maps use channels-first layout [C, H, W]; convolution kernels
are [C_out, C_in, k, k]. Everything computes in float64; float32 appears
only inside TNSR files.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import ParseError, ShapeError


class Tensor:
    """One node of the computation graph.

    Wraps a float64 ndarray. A tensor produced by an op that a trainable
    leaf feeds remembers its parent nodes and a closure that scatters the
    output adjoint back onto them, which is all reverse mode needs; a node
    built only from constants keeps neither, so inference records no tape.
    Leaf tensors created with ``requires_grad=True`` collect their gradient
    in ``.grad`` after :func:`backward` runs.
    """

    __slots__ = ("data", "parents", "name", "requires_grad", "grad", "_backward")

    def __init__(self, data, parents=(), backward=None, name=None, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if not 1 <= arr.ndim <= 4:
            raise ShapeError(f"tensor rank must be 1..4, got {arr.ndim}")
        self.data = arr
        self.name = name
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.parents = tuple(parents) if self.requires_grad else ()
        self.grad = None
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def parameter(data, name):
    """Named trainable leaf."""
    return Tensor(np.array(data, dtype=np.float64), name=name, requires_grad=True)


def constant(data):
    """Leaf that does not receive gradients."""
    return Tensor(data)


def _toposort(root):
    # Iterative DFS; parents end up before children, skipping branches
    # that cannot reach a trainable leaf.
    visited = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Populates ``.grad`` on every reachable node and returns the gradients
    of the named leaves keyed by parameter name. Leaves that do not feed
    the loss are absent from the result.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return {}
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    leaves = {}
    for node in reversed(order):
        if node.grad is None:
            continue
        if node._backward is not None:
            node._backward(node.grad)
        elif node.name is not None and not node.parents:
            leaves[node.name] = node.grad.copy()
    return leaves


# ---------------------------------------------------------------------------
# elementwise ops


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a, b):
    _check_same_shape(a, b, "add")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return Tensor(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return Tensor(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_same_shape(a, b, "mul")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return Tensor(a.data * b.data, (a, b), bwd)


def chanwise_mul(a, b):
    """Multiply a one-channel map [1,H,W] into each channel of b [C,H,W]."""
    if a.data.ndim != 3 or a.data.shape[0] != 1:
        raise ShapeError(f"chanwise_mul: first operand must be [1,H,W], got {a.data.shape}")
    if b.data.ndim != 3 or a.data.shape[1:] != b.data.shape[1:]:
        raise ShapeError(
            f"chanwise_mul: spatial mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate((g * b.data).sum(axis=0, keepdims=True))
        if b.requires_grad:
            b._accumulate(g * a.data)

    return Tensor(a.data * b.data, (a, b), bwd)


def concat(tensors):
    """Join tensors along axis 0 (channels of [C,H,W] maps, rows of [N,W]
    tables); the other dimensions must agree."""
    tail = tensors[0].data.shape[1:]
    for t in tensors:
        if t.data.shape[1:] != tail:
            raise ShapeError(f"concat: shape {t.data.shape} does not extend {tail}")
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi])

    return Tensor(np.concatenate([t.data for t in tensors]), tuple(tensors), bwd)


def scale(x, c):
    """Multiply by a python scalar."""
    c = float(c)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * c)

    return Tensor(x.data * c, (x,), bwd)


def sum_all(x):
    """Sum of all entries, as a length-1 tensor."""

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g[0]))

    return Tensor(np.array([x.data.sum()]), (x,), bwd)


def absolute(x):
    """|x| elementwise; subgradient 0 at exactly 0."""

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * np.sign(x.data))

    return Tensor(np.abs(x.data), (x,), bwd)


def add_n(tensors):
    """Sum a non-empty list of same-shaped tensors."""
    out = tensors[0]
    for t in tensors[1:]:
        out = add(out, t)
    return out


# ---------------------------------------------------------------------------
# activations


def sigmoid(x):
    # e = exp(-|d|) never overflows: 1/(1+e) for d >= 0, e/(1+e) below.
    # min(d, -d) is -|d| that keeps a NaN's sign, so every bit matches the
    # sign-split evaluation (tests/refimpl.py).
    d = x.data
    e = np.exp(np.minimum(d, -d))
    out = np.where(d >= 0, 1.0, e)
    out /= 1.0 + e

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * out * (1.0 - out))

    return Tensor(out, (x,), bwd)


def tanh(x):
    out = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - out * out))

    return Tensor(out, (x,), bwd)


def relu(x):
    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return Tensor(np.maximum(x.data, 0.0), (x,), bwd)


def dropout(x, rate, rng):
    """Inverted dropout; identity when rate == 0. Mask drawn once from rng."""
    if rate < 0 or rate >= 1:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor(x.data * mask, (x,), bwd)


# ---------------------------------------------------------------------------
# convolution


def _pad_chw(a, pad):
    if pad == 0:
        return a
    c, h, w = a.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=a.dtype)
    out[:, pad:pad + h, pad:pad + w] = a
    return out


def _im2col(a, k, stride, pad):
    c, h, w = a.shape
    h2 = (h + 2 * pad - k) // stride + 1
    w2 = (w + 2 * pad - k) // stride + 1
    ap = _pad_chw(a, pad)
    cols = np.empty((c, k, k, h2, w2), dtype=a.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = ap[:, ki:ki + stride * h2:stride, kj:kj + stride * w2:stride]
    return cols.reshape(c * k * k, h2 * w2), h2, w2


def _col2im(dcols, shape, k, stride, pad):
    c, h, w = shape
    h2 = (h + 2 * pad - k) // stride + 1
    w2 = (w + 2 * pad - k) // stride + 1
    dp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    dcols = dcols.reshape(c, k, k, h2, w2)
    for ki in range(k):
        for kj in range(k):
            dp[:, ki:ki + stride * h2:stride, kj:kj + stride * w2:stride] += dcols[:, ki, kj]
    return dp[:, pad:pad + h, pad:pad + w] if pad else dp


def _check_conv_args(x, kernel, bias, stride, pad):
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d: input must be [C,H,W], got {x.data.shape}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be [C_out,C_in,k,k], got {kernel.data.shape}")
    c_out, c_in, k, k2 = kernel.data.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"conv2d: kernel must be odd square, got {k}x{k2}")
    if c_in != x.data.shape[0]:
        raise ShapeError(
            f"conv2d: input has {x.data.shape[0]} channels, kernel expects {c_in}")
    h, w = x.data.shape[1:]
    if (h + 2 * pad - k) % stride or (w + 2 * pad - k) % stride:
        raise ShapeError(
            f"conv2d: size {h}x{w} with k={k} pad={pad} stride={stride} is not integral")
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias must be [{c_out}], got {bias.data.shape}")
    return c_out, k


def conv2d(x, kernel, bias=None, stride=1, pad=0):
    """2-D cross-correlation of [C_in,H,W] with [C_out,C_in,k,k] kernels.

    Odd square kernels only; the output extent (H + 2*pad - k)/stride + 1
    must be integral. The im2col buffer is kept for the backward pass.
    """
    c_out, k = _check_conv_args(x, kernel, bias, stride, pad)
    cols, h2, w2 = _im2col(x.data, k, stride, pad)
    out = kernel.data.reshape(c_out, -1) @ cols
    if bias is not None:
        out += bias.data[:, None]
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bwd(g):
        # im2col is rebuilt here: caching it across an unrolled sequence
        # costs far more memory locality than the recompute costs time
        gm = g.reshape(c_out, -1)
        if kernel.requires_grad or x.requires_grad:
            cols_b, _, _ = _im2col(x.data, k, stride, pad)
            if kernel.requires_grad:
                kernel._accumulate((gm @ cols_b.T).reshape(kernel.data.shape))
            if x.requires_grad:
                x._accumulate(_col2im(kernel.data.reshape(c_out, -1).T @ gm,
                                      x.data.shape, k, stride, pad))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gm.sum(axis=1))

    return Tensor(out.reshape(c_out, h2, w2), parents, bwd)


def slice_channels(x, lo, hi):
    """Contiguous channel slice of a [C,H,W] tensor."""
    if x.data.ndim != 3:
        raise ShapeError(f"slice_channels: input must be [C,H,W], got {x.data.shape}")
    c = x.data.shape[0]
    if not 0 <= lo < hi <= c:
        raise ShapeError(f"slice_channels: [{lo},{hi}) outside 0..{c}")

    def bwd(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[lo:hi] += g

    return Tensor(x.data[lo:hi].copy(), (x,), bwd)


# ---------------------------------------------------------------------------
# bilinear sampling


def bilinear_weights(coords, n):
    """[len(coords), n] matrix of bilinear weights for samples at `coords`
    (pixel units, pixel i centred at i) along an axis of length n. Samples
    clamp to [0, n-1], so the edge pixels extend outward. Every bilinear
    sample in the package is this matrix applied along each axis."""
    src = np.clip(np.asarray(coords, dtype=np.float64), 0.0, n - 1.0)
    lo = np.floor(src).astype(np.intp)
    frac = src - lo
    rows = np.arange(len(src))
    w = np.zeros((len(src), n))
    w[rows, lo] = 1.0 - frac
    w[rows, np.minimum(lo + 1, n - 1)] += frac
    return w


@functools.cache
def _resize_matrix(n, n2):
    """Weights resizing an axis of length n to n2, sample i at
    (i + 0.5) * n/n2 - 0.5 (half-pixel centres)."""
    return bilinear_weights((np.arange(n2) + 0.5) * (n / n2) - 0.5, n)


def bilinear_resize(x, h2, w2):
    """Differentiable bilinear resize of a [C,H,W] tensor to [C,h2,w2]:
    Ry @ x @ Rx^T per channel, so the backward is Ry^T @ g @ Rx."""
    if x.data.ndim != 3:
        raise ShapeError(f"bilinear_resize: input must be [C,H,W], got {x.data.shape}")
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"bilinear_resize: target {h2}x{w2} invalid")
    _, h, w = x.data.shape
    ry = _resize_matrix(h, h2)
    rx = _resize_matrix(w, w2)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(ry.T @ g @ rx)

    return Tensor(ry @ x.data @ rx.T, (x,), bwd)


# ---------------------------------------------------------------------------
# indexing and loss kernels


def gather(x, indices):
    """Pick entries of the flattened tensor; the result has the shape of
    the index array and the gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    flat = x.data.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
        raise ShapeError(f"gather: index out of range for size {flat.size}")

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.bincount(idx.reshape(-1), weights=g.reshape(-1),
                                      minlength=flat.size).reshape(x.data.shape))

    return Tensor(flat[idx], (x,), bwd)


def gather_rows(x, rows):
    """Rows of an [N,W] tensor as an [len(rows),W] tensor; rows may repeat."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows: input must be [N,W], got {x.data.shape}")
    w = x.data.shape[1]
    return gather(x, np.asarray(rows, dtype=np.intp).reshape(-1, 1) * w + np.arange(w))


def smooth_l1_sum(pred, target):
    """Summed smooth-L1 between a tensor and a constant target array."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ShapeError(f"smooth_l1_sum: target {t.shape} vs pred {pred.data.shape}")
    d = pred.data - t
    ad = np.abs(d)
    val = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5).sum()

    def bwd(g):
        if pred.requires_grad:
            pred._accumulate(g[0] * np.clip(d, -1.0, 1.0))

    return Tensor(np.array([val]), (pred,), bwd)


def softmax_rows(logits):
    """Row-wise softmax of an [N,K] array (plain numpy)."""
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _check_rows(logits, columns, op):
    if logits.data.ndim != 2:
        raise ShapeError(f"{op}: logits must be [N,K], got {logits.data.shape}")
    cols = np.asarray(columns, dtype=np.intp)
    if cols.size and (cols.min() < 0 or cols.max() >= logits.data.shape[1]):
        raise ShapeError(f"{op}: class index out of range for {logits.data.shape[1]}")
    return cols


def softmax_ce_rows(logits, targets):
    """Per-row softmax cross entropy of [N,K] logits against one target
    class per row, as an [N] tensor."""
    t = _check_rows(logits, targets, "softmax_ce_rows")
    v = logits.data
    if t.shape != (v.shape[0],):
        raise ShapeError(f"softmax_ce_rows: {t.shape} targets for {v.shape[0]} rows")
    rows = np.arange(v.shape[0])
    m = v.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(v - m).sum(axis=1))

    def bwd(g):
        if logits.requires_grad:
            gl = softmax_rows(v)
            gl[rows, t] -= 1.0
            logits._accumulate(g[:, None] * gl)

    return Tensor(lse - v[rows, t], (logits,), bwd)


def softmax_prob_rows(logits, class_index):
    """Softmax probability of one class in each row of [N,K] logits, as an
    [N] tensor."""
    c = int(_check_rows(logits, class_index, "softmax_prob_rows"))
    p = softmax_rows(logits.data)
    pc = p[:, c]

    def bwd(g):
        if logits.requires_grad:
            gl = -p * pc[:, None]
            gl[:, c] += pc
            logits._accumulate(g[:, None] * gl)

    return Tensor(pc.copy(), (logits,), bwd)


def bce_mean(pred, target, eps=1e-7):
    """Mean binary cross entropy with the prediction clamped to [eps, 1-eps].

    The clamp kills the gradient outside the open interval, matching the
    derivative of the clipped composite.
    """
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ShapeError(f"bce_mean: target {t.shape} vs pred {pred.data.shape}")
    p = np.clip(pred.data, eps, 1.0 - eps)
    val = float(np.mean(-t * np.log(p) - (1.0 - t) * np.log(1.0 - p)))
    n = p.size

    def bwd(g):
        if pred.requires_grad:
            inside = (pred.data > eps) & (pred.data < 1.0 - eps)
            pred._accumulate(g[0] * inside * (p - t) / (p * (1.0 - p)) / n)

    return Tensor(np.array([val]), (pred,), bwd)


# ---------------------------------------------------------------------------
# finite differences


def finite_diff(f, x, h=1e-5):
    """Central-difference gradient of a scalar function at x.

    f must be pure; it receives the same array object with one coordinate
    displaced at a time.
    """
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# TNSR file format: magic "TNSR", u8 rank, rank x u32 LE dims, LE f32 payload

_MAGIC = b"TNSR"


def save_tnsr(path, array):
    a = np.ascontiguousarray(np.asarray(array), dtype="<f4")
    if not 1 <= a.ndim <= 4:
        raise ShapeError(f"TNSR rank must be 1..4, got {a.ndim}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", a.ndim))
        fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
        fh.write(a.tobytes())


def load_tnsr(path):
    """Read a TNSR file back as a float64 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ParseError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 5:
        raise ParseError(f"{path}: truncated header, no rank byte")
    rank = raw[4]
    if not 1 <= rank <= 4:
        raise ParseError(f"{path}: bad rank {rank}")
    off = 5 + 4 * rank
    if len(raw) < off:
        raise ParseError(f"{path}: truncated header, {len(raw)} bytes for rank {rank}")
    dims = struct.unpack_from(f"<{rank}I", raw, 5)
    n = math.prod(dims)
    if len(raw) - off != 4 * n:
        raise ParseError(f"{path}: payload size {len(raw) - off} != {4 * n}")
    return np.frombuffer(raw, dtype="<f4", count=n, offset=off).astype(np.float64).reshape(dims)
