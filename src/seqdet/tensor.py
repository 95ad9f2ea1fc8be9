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

import struct

import numpy as np

from .errors import ParseError, ShapeError


class Tensor:
    """One node of the computation graph.

    Wraps a float64 ndarray. A tensor produced by an op remembers its
    parent nodes and a closure that scatters the output adjoint back onto
    them, which is all reverse mode needs. Leaf tensors created with
    ``requires_grad=True`` collect their gradient in ``.grad`` after
    :func:`backward` runs.
    """

    __slots__ = ("data", "parents", "name", "requires_grad", "grad", "_backward")

    def __init__(self, data, parents=(), backward=None, name=None, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if not 1 <= arr.ndim <= 4:
            raise ShapeError(f"tensor rank must be 1..4, got {arr.ndim}")
        self.data = arr
        self.parents = tuple(parents)
        self.name = name
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in self.parents)
        self.grad = None
        self._backward = backward

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


def concat_channels(a, b):
    """Stack two [C,H,W] maps along the channel axis."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[1:] != b.data.shape[1:]:
        raise ShapeError(
            f"concat_channels: spatial mismatch {a.data.shape} vs {b.data.shape}")
    ca = a.data.shape[0]

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g[:ca])
        if b.requires_grad:
            b._accumulate(g[ca:])

    return Tensor(np.concatenate([a.data, b.data], axis=0), (a, b), bwd)


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


def concat_vec(tensors):
    """Concatenate rank-1 tensors into one vector."""
    for t in tensors:
        if t.data.ndim != 1:
            raise ShapeError(f"concat_vec: rank-1 tensors only, got {t.data.shape}")
    sizes = [t.data.size for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi])

    return Tensor(np.concatenate([t.data for t in tensors]), tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# activations


def sigmoid(x):
    # Split by sign to avoid overflow in exp.
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)

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
        out = out + bias.data[:, None]
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


def conv2d_multi(x, kernels, biases, stride=1, pad=0):
    """Several same-geometry convolutions of one input, fused into a
    single im2col + GEMM. Returns the stacked [sum(C_out),H',W'] tensor;
    use slice_channels to split. Gradients land on each kernel/bias."""
    c_outs = []
    k0 = kernels[0].data.shape[2]
    for kern, b in zip(kernels, biases):
        c_out, k = _check_conv_args(x, kern, b, stride, pad)
        if k != k0:
            raise ShapeError("conv2d_multi: all kernels must share one size")
        c_outs.append(c_out)
    cols, h2, w2 = _im2col(x.data, k0, stride, pad)
    km = np.concatenate([kern.data.reshape(c, -1)
                         for kern, c in zip(kernels, c_outs)], axis=0)
    out = km @ cols
    bvec = np.concatenate([np.zeros(c) if b is None else b.data
                           for b, c in zip(biases, c_outs)])
    out += bvec[:, None]
    offs = np.cumsum([0] + c_outs)
    parents = (x,) + tuple(kernels) + tuple(b for b in biases if b is not None)

    def bwd(g):
        gm = g.reshape(sum(c_outs), -1)
        cols_b, _, _ = _im2col(x.data, k0, stride, pad)
        gk = gm @ cols_b.T
        for kern, b, lo, hi in zip(kernels, biases, offs[:-1], offs[1:]):
            if kern.requires_grad:
                kern._accumulate(gk[lo:hi].reshape(kern.data.shape))
            if b is not None and b.requires_grad:
                b._accumulate(gm[lo:hi].sum(axis=1))
        if x.requires_grad:
            km_b = np.concatenate([kern.data.reshape(hi - lo, -1)
                                   for kern, lo, hi in zip(kernels, offs[:-1], offs[1:])],
                                  axis=0)
            x._accumulate(_col2im(km_b.T @ gm, x.data.shape, k0, stride, pad))

    return Tensor(out.reshape(sum(c_outs), h2, w2), parents, bwd)


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
# bilinear resize

_RESIZE_PLANS = {}


def _resize_plan(n, n2):
    key = (n, n2)
    plan = _RESIZE_PLANS.get(key)
    if plan is None:
        # Sample centers at (i + 0.5) * n/n2 - 0.5, clamped to the map.
        src = np.clip((np.arange(n2) + 0.5) * (n / n2) - 0.5, 0.0, n - 1.0)
        lo = np.floor(src).astype(np.intp)
        frac = src - lo
        hi = np.minimum(lo + 1, n - 1)
        plan = (lo, hi, frac)
        _RESIZE_PLANS[key] = plan
    return plan


def bilinear_resize_array(a, h2, w2):
    """Resize [C,H,W] (or [H,W]) ndarray with half-pixel centers and edge clamp."""
    squeeze = a.ndim == 2
    if squeeze:
        a = a[None]
    c, h, w = a.shape
    y0, y1, wy = _resize_plan(h, h2)
    x0, x1, wx = _resize_plan(w, w2)
    top = a[:, y0][:, :, x0] * (1 - wx) + a[:, y0][:, :, x1] * wx
    bot = a[:, y1][:, :, x0] * (1 - wx) + a[:, y1][:, :, x1] * wx
    out = top * (1 - wy)[:, None] + bot * wy[:, None]
    return out[0] if squeeze else out


def bilinear_resize(x, h2, w2):
    """Differentiable bilinear resize of a [C,H,W] tensor to [C,h2,w2]."""
    if x.data.ndim != 3:
        raise ShapeError(f"bilinear_resize: input must be [C,H,W], got {x.data.shape}")
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"bilinear_resize: target {h2}x{w2} invalid")
    c, h, w = x.data.shape
    y0, y1, wy = _resize_plan(h, h2)
    x0, x1, wx = _resize_plan(w, w2)
    out = bilinear_resize_array(x.data, h2, w2)

    def bwd(g):
        if not x.requires_grad:
            return
        ga = np.zeros_like(x.data)
        cc = np.arange(c)[:, None, None]
        wy2 = wy[None, :, None]
        wx2 = wx[None, None, :]
        np.add.at(ga, (cc, y0[None, :, None], x0[None, None, :]), g * (1 - wy2) * (1 - wx2))
        np.add.at(ga, (cc, y0[None, :, None], x1[None, None, :]), g * (1 - wy2) * wx2)
        np.add.at(ga, (cc, y1[None, :, None], x0[None, None, :]), g * wy2 * (1 - wx2))
        np.add.at(ga, (cc, y1[None, :, None], x1[None, None, :]), g * wy2 * wx2)
        x._accumulate(ga)

    return Tensor(out, (x,), bwd)


# ---------------------------------------------------------------------------
# indexing and loss kernels


def gather(x, indices):
    """Pick entries of the flattened tensor; gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather: indices must be rank 1, got {idx.shape}")
    flat = x.data.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
        raise ShapeError(f"gather: index out of range for size {flat.size}")

    def bwd(g):
        if x.requires_grad:
            ga = np.zeros(flat.size)
            np.add.at(ga, idx, g)
            x._accumulate(ga.reshape(x.data.shape))

    return Tensor(flat[idx], (x,), bwd)


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


def _softmax(v):
    z = np.exp(v - v.max())
    return z / z.sum()


def softmax_ce(logits, target_index):
    """Cross entropy of a rank-1 logit vector against one target class."""
    if logits.data.ndim != 1:
        raise ShapeError(f"softmax_ce: logits must be rank 1, got {logits.data.shape}")
    t = int(target_index)
    if not 0 <= t < logits.data.size:
        raise ShapeError(f"softmax_ce: target {t} out of range")
    v = logits.data
    m = v.max()
    lse = m + np.log(np.exp(v - m).sum())
    val = lse - v[t]
    p = _softmax(v)

    def bwd(g):
        if logits.requires_grad:
            gl = p.copy()
            gl[t] -= 1.0
            logits._accumulate(g[0] * gl)

    return Tensor(np.array([val]), (logits,), bwd)


def softmax_prob(logits, class_index):
    """Softmax probability of one class, as a differentiable scalar."""
    if logits.data.ndim != 1:
        raise ShapeError(f"softmax_prob: logits must be rank 1, got {logits.data.shape}")
    c = int(class_index)
    p = _softmax(logits.data)

    def bwd(g):
        if logits.requires_grad:
            e = np.zeros_like(p)
            e[c] = 1.0
            logits._accumulate(g[0] * p[c] * (e - p))

    return Tensor(np.array([p[c]]), (logits,), bwd)


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
    n = int(np.prod(dims))
    if len(raw) - off != 4 * n:
        raise ParseError(f"{path}: payload size {len(raw) - off} != {4 * n}")
    return np.frombuffer(raw, dtype="<f4", count=n, offset=off).astype(np.float64).reshape(dims)
