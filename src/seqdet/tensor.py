"""Minimal dense-tensor autodiff engine.

Float64 arrays of rank 1..4 carrying the forward operations a small
convolutional recurrent detector needs, reverse-mode gradient
accumulation over the recorded op graph, a central finite-difference
oracle for cross-checking gradients, and the TNSR binary file format
used by fixtures and checkpoints.

Feature maps use channels-first layout [C, H, W]; convolution kernels
are [C_out, C_in, k, k]. Everything computes in float64; float32 appears
only inside TNSR files.

Three fused nodes hold less than the ops they replace would, and give
the same bits (tests/refimpl.py composes each from primitive ops). What
each keeps for its backward, besides its parent nodes:
- convlstm_cell: the [h; s] data, the gate activations and the dropout
  mask as booleans; a.x, tanh(s) and the gate map are recomputed or not
  needed.
- conv_gather: the index arrays and the picked entries (its data); no
  conv output.
- bce_mean: the target and the cached resize matrices; the resized
  prediction and its clamp are recomputed.
"""

from __future__ import annotations

import functools
import math
import os
import struct

import numpy as np

from .errors import ParseError, ShapeError


class Tensor:
    """One node of the computation graph.

    Wraps a float64 ndarray. A tensor produced by an op that a trainable
    leaf feeds remembers its parent nodes and a closure that scatters the
    output adjoint back onto them, which is all reverse mode needs; a node
    built only from constants keeps neither, so inference records no tape.
    ``.grad`` holds an adjoint only while :func:`backward` runs; afterwards
    it is None on every node, leaves included, and a named leaf's gradient
    lives only in the dict that backward returns.
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
        # the first contribution is copied, not kept: add hands one adjoint
        # array to both parents, and a later += on one would reach the other
        if self.grad is None:
            self.grad = g.copy()
        else:
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

    Returns the gradients of the named leaves keyed by parameter name;
    leaves that do not feed the loss are absent from the result. The dict
    owns each leaf's accumulated array: no node keeps a ``.grad`` after the
    sweep. An interior node's gradient is dropped as soon as its backward
    closure has handed it to the parents, so the sweep holds the adjoints
    of its frontier, not one per node of the graph.
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
            leaves[node.name] = node.grad
        node.grad = None
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


def _sigmoid(d):
    # e = exp(-|d|) never overflows: 1/(1+e) for d >= 0, e/(1+e) below.
    # min(d, -d) is -|d| that keeps a NaN's sign, so every bit matches the
    # sign-split evaluation (tests/refimpl.py). The numerator max(e, d >= 0)
    # is 1 for d >= 0 (e <= 1) and e below; a NaN passes through from e.
    e = np.exp(np.minimum(d, -d))
    out = np.maximum(e, d >= 0)
    out /= 1.0 + e
    return out


def sigmoid(x):
    out = _sigmoid(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * out * (1.0 - out))

    return Tensor(out, (x,), bwd)


def relu(x):
    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return Tensor(np.maximum(x.data, 0.0), (x,), bwd)


# ---------------------------------------------------------------------------
# convolution
#
# A conv input is a list of [C_i,H,W] maps read as their channel
# concatenation. Both layouts copy the input into a fresh zero-padded buffer
# anyway, so they fill it from the parts, and no concatenated copy is made or
# kept. The backward computes dX only over the channels of the parts that
# need a gradient.


def _pad(parts, p, below=0):
    """The parts' concatenation zero-padded by p on every side, with `below`
    more zero rows at the bottom."""
    _, h, w = parts[0].shape
    buf = np.zeros((sum([a.shape[0] for a in parts]), h + 2 * p + below, w + 2 * p))
    lo = 0
    for a in parts:
        buf[lo:lo + a.shape[0], p:p + h, p:p + w] = a
        lo += a.shape[0]
    return buf


def _im2col(parts, k):
    """[C*k*k, H*W] columns of the k x k windows centred on every pixel of
    the parts' concatenation (zero padding k // 2); for k = 1, that map
    itself, with no copy when there is one part."""
    _, h, w = parts[0].shape
    if k == 1:
        a = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return a.reshape(a.shape[0], h * w)
    ap = _pad(parts, k // 2)
    c = ap.shape[0]
    cols = np.empty((c, k, k, h, w))
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = ap[:, ki:ki + h, kj:kj + w]
    return cols.reshape(c * k * k, h * w)


def _col2im(dcols, shape, k):
    if k == 1:
        return dcols.reshape(shape)
    c, h, w = shape
    pad = k // 2
    dp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    dcols = dcols.reshape(c, k, k, h, w)
    for ki in range(k):
        for kj in range(k):
            dp[:, ki:ki + h, kj:kj + w] += dcols[:, ki, kj]
    return dp[:, pad:pad + h, pad:pad + w]


def _im2col_forward(parts, kern):
    c_out, _, k, _ = kern.shape
    out = kern.reshape(c_out, -1) @ _im2col(parts, k)
    return out.reshape((c_out,) + parts[0].shape[1:])


def _im2col_dk(parts, g, k):
    # the columns are rebuilt here: caching them across an unrolled sequence
    # costs far more memory locality than the recompute costs time
    c_out = g.shape[0]
    return (g.reshape(c_out, -1) @ _im2col(parts, k).T).reshape(c_out, -1, k, k)


def _im2col_dx(kern, g):
    c_out, c_in, k, _ = kern.shape
    return _col2im(kern.reshape(c_out, -1).T @ g.reshape(c_out, -1),
                   (c_in,) + g.shape[1:], k)


# The shifted layout works on the map zero-padded by p = k // 2 and flattened
# row-major with row length wp = W + 2p. Output pixel (i, j) reads tap
# (ki, kj) at flat index i*wp + j + ki*wp + kj, so each tap is one product
# [c_out, c_in] @ [c_in, H*wp] on a contiguous slice starting at ki*wp + kj.
# Columns j >= W of each output row are wrap-around garbage and are dropped.


def _padded_rows(parts, k):
    """The parts' concatenation zero-padded by k // 2 on every side, plus one
    zero row below that keeps the last tap's slice inside, as
    [C, (H+k)*(W+k-1)]."""
    buf = _pad(parts, k // 2, 1)
    return buf.reshape(buf.shape[0], -1)


def _taps(kern):
    """Kernel as k*k contiguous [c_out, c_in] matrices, tap (ki, kj) at
    ki*k + kj."""
    c_out, c_in, k, _ = kern.shape
    return np.ascontiguousarray(kern.transpose(2, 3, 0, 1)).reshape(k * k, c_out, c_in)


def _tap_offsets(k, wp):
    return [ki * wp + kj for ki in range(k) for kj in range(k)]


def _shifted_forward(parts, kern):
    c_out, _, k, _ = kern.shape
    _, h, w = parts[0].shape
    wp = w + k - 1
    n = h * wp
    flat = _padded_rows(parts, k)
    taps = _taps(kern)
    out = np.zeros((c_out, n))
    part = np.empty((c_out, n))
    for t, off in enumerate(_tap_offsets(k, wp)):
        out += np.matmul(taps[t], flat[:, off:off + n], out=part)
    return np.ascontiguousarray(out.reshape(c_out, h, wp)[:, :, :w])


def _widened(g, k):
    """g [c_out,H,W] as [c_out, H*(W+k-1)] rows with zero garbage columns,
    which add nothing to dW or dX."""
    c_out, h, w = g.shape
    gw = np.zeros((c_out, h, w + k - 1))
    gw[:, :, :w] = g
    return gw.reshape(c_out, -1)


def _shifted_dk(parts, g, k):
    c_out, h, w = g.shape
    wp = w + k - 1
    n = h * wp
    gw = _widened(g, k)
    flat = _padded_rows(parts, k)
    dtaps = np.empty((k * k, c_out, flat.shape[0]))
    for t, off in enumerate(_tap_offsets(k, wp)):
        np.matmul(gw, flat[:, off:off + n].T, out=dtaps[t])
    return dtaps.reshape(k, k, c_out, -1).transpose(2, 3, 0, 1)


def _shifted_dx(kern, g):
    _, c_in, k, _ = kern.shape
    _, h, w = g.shape
    wp = w + k - 1
    n = h * wp
    gw = _widened(g, k)
    taps = _taps(kern)
    dflat = np.zeros((c_in, (h + k) * wp))
    part = np.empty((c_in, n))
    for t, off in enumerate(_tap_offsets(k, wp)):
        dflat[:, off:off + n] += np.matmul(taps[t].T, gw, out=part)
    p = k // 2
    return dflat.reshape(c_in, h + k, wp)[:, p:p + h, p:p + w]


_IM2COL = (_im2col_forward, _im2col_dk, _im2col_dx)
_SHIFTED = (_shifted_forward, _shifted_dk, _shifted_dx)


def _conv_layout(c_out, c_in, k):
    """The (forward, dk, dx) functions conv2d runs for a [c_out, c_in, k, k]
    kernel."""
    return _SHIFTED if k > 1 and c_out < c_in else _IM2COL


def _check_conv_args(data, kernel, bias, op):
    channels = 0
    for a in data:
        if a.ndim != 3:
            raise ShapeError(f"{op}: input must be [C,H,W], got {a.shape}")
        if a.shape[1:] != data[0].shape[1:]:
            raise ShapeError(f"{op}: input parts {data[0].shape} and "
                             f"{a.shape} differ in size")
        channels += a.shape[0]
    if kernel.data.ndim != 4:
        raise ShapeError(f"{op}: kernel must be [C_out,C_in,k,k], got {kernel.data.shape}")
    c_out, c_in, k, k2 = kernel.data.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"{op}: kernel must be odd square, got {k}x{k2}")
    if c_in != channels:
        raise ShapeError(f"{op}: input has {channels} channels, kernel expects {c_in}")
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError(f"{op}: bias must be [{c_out}], got {bias.data.shape}")
    return c_out, c_in, k


def _conv_forward(data, kernel, bias, op):
    """The conv of the part arrays `data` and the layout that computed it."""
    layout = _conv_layout(*_check_conv_args(data, kernel, bias, op))
    out = layout[0](data, kernel.data)
    if bias is not None:
        out += bias.data[:, None, None]
    return out, layout


def _sinks(parts):
    """Per part node, the function that takes its block of dX, or None when
    it needs no gradient."""
    return [x._accumulate if x.requires_grad else None for x in parts]


def _conv_backward(data, sinks, kernel, bias, layout, g):
    """Hand the conv's output adjoint g to the kernel, the parts and the
    bias: data holds the parts' arrays, sinks per part the function that
    takes its block of dX, or None. dW is handed on before dX is computed,
    so the two and their buffers are never live together. dX is one product
    over the channels from the first part with a sink to the last, so a
    part that needs no gradient costs no dX."""
    _, dk, dx = layout
    if kernel.requires_grad:
        kernel._accumulate(dk(data, g, kernel.data.shape[2]))
    need = [i for i, sink in enumerate(sinks) if sink is not None]
    if need:
        bounds = np.cumsum([0] + [a.shape[0] for a in data])
        lo, hi = bounds[need[0]], bounds[need[-1] + 1]
        d = dx(kernel.data[:, lo:hi], g)
        for i in need:
            sinks[i](d[bounds[i] - lo:bounds[i + 1] - lo])
    if bias is not None and bias.requires_grad:
        bias._accumulate(g.reshape(g.shape[0], -1).sum(axis=1))


def conv2d(x, kernel, bias=None):
    """Same-size 2-D cross-correlation of [C_in,H,W] with [C_out,C_in,k,k]
    kernels: stride 1, zero padding k // 2, so the output is [C_out,H,W].
    Odd square kernels only. x is one map or a list of [C_i,H,W] maps that
    the conv reads as their channel concatenation, without making it. The
    backward computes dX only for the parts that need a gradient: one
    product over the kernel columns from the first such part to the last,
    so a constant part (the backbone map att1 reads, the zero state at a
    sequence's first frame) costs none, and when every part needs dX it
    stays one product.

    The GEMM layout follows the kernel shape; the two agree to float64
    rounding (the tests compare them on every model shape). Timings are
    forward plus backward at level 0, best of 30, one BLAS thread on a
    2-core x86 host:
    - k > 1 and C_out < C_in: shifted. k*k products [C_out, C_in] @
      [C_in, H*(W+k-1)] on slices of the padded, flattened map; the
      backward runs the matching k*k products for dW and shifted adds for
      dX. An im2col column buffer of C_in*k*k*H*W would move more memory
      than such a narrow product computes: att1 (32 <- 128) takes 4.1 ms
      here against 5.6 ms with im2col, a head (18 <- 64) 1.5 against 2.1 ms.
    - k = 1: one GEMM on x reshaped to [C_in, H*W], with no copy for a
      single map.
    - otherwise im2col: one [C_out, C_in*k*k] product on the column buffer.
      The wide gate convs (256 <- 128) run it near GEMM peak, 18.3 ms;
      shifted they take 23.8 ms.
    """
    parts = list(x) if isinstance(x, (list, tuple)) else [x]
    out, layout = _conv_forward([p.data for p in parts], kernel, bias, "conv2d")
    parents = (*parts, kernel) if bias is None else (*parts, kernel, bias)
    return Tensor(out, parents, lambda g: _conv_backward([p.data for p in parts], _sinks(parts),
                                                         kernel, bias, layout, g))


def conv_gather(xs, kernels, biases, indices):
    """Entries of several same-size convolutions, conv l being
    conv2d(xs[l], kernels[l], biases[l]) on one map. Their outputs are read
    flattened and concatenated in order, and the result is one node per
    index array, of that array's shape, entry e being the entry at flat
    position indices[k][e]. The results are views of one node that keeps
    the inputs, weights and index arrays but no conv output: its backward
    scatter-adds the adjoint of the concatenated index arrays in one pass
    (as gather does) and runs each conv's backward on its block. The data
    and gradients are those of conv2d, gather and concat composed
    (tests/refimpl.py), the gradients bit for bit when no position is read
    by two index arrays, as for the heads' loc and conf."""
    layouts, shapes, flat = [], [], []
    for x, kernel, bias in zip(xs, kernels, biases, strict=True):
        out, layout = _conv_forward([x.data], kernel, bias, "conv_gather")
        layouts.append(layout)
        shapes.append(out.shape)
        flat.append(out.reshape(-1))
    flat = np.concatenate(flat)
    n = flat.size
    idx = [np.asarray(i, dtype=np.intp) for i in indices]
    for i in idx:
        if i.size and (i.min() < 0 or i.max() >= n):
            raise ShapeError(f"conv_gather: index out of range for size {n}")
    bounds = np.cumsum([0] + [i.size for i in idx])
    picked = np.concatenate([flat[i.reshape(-1)] for i in idx])

    def bwd(g):
        d = _scatter_add(np.concatenate([i.reshape(-1) for i in idx]), g, n)
        lo = 0
        for x, kernel, bias, layout, shape in zip(xs, kernels, biases, layouts, shapes):
            hi = lo + math.prod(shape)
            _conv_backward([x.data], _sinks([x]), kernel, bias, layout,
                           d[lo:hi].reshape(shape))
            lo = hi

    node = Tensor(picked, (*xs, *kernels, *biases), bwd)
    return [_block(node, lo, hi, i.shape) for i, lo, hi in zip(idx, bounds[:-1], bounds[1:])]


def convlstm_cell(a, x, h_prev, kernel, bias, s_prev, rate=0.0, rng=None):
    """One attention-gated ConvLSTM update as one node. The gate conv reads
    [a.x, h_prev] as channel parts (see conv2d). a.x is the one-channel map
    a [1,H,W] multiplied into every channel of x [C,H,W]; with rate > 0 it
    goes through inverted dropout, a mask drawn once from rng keeping an
    entry when its draw is >= rate and scaling it by 1/(1-rate), computed as
    (a*x)*(keep*scale) in that order. Kernel and bias rows are the blocks
    i, f, o, c of c channels:
        s = sigmoid(f)*s_prev + sigmoid(i)*tanh(c),   h = sigmoid(o)*tanh(s).
    The data is [h; s], 2c channels; read them with slice_channels.

    For its backward the node keeps sigmoid over the first 3c gate channels,
    tanh over the last c and the dropout mask as booleans, but not a.x, the
    raw gate map, f*s_prev, i*c or tanh(s): the backward recomputes a.x
    for dW (an elementwise product, so the same bits) and tanh(s) from the
    node's own s. It runs the operations of the composed graph (the map
    product, dropout, conv2d, slice_channels, sigmoid, tanh, mul, add) in
    their order, so both give the same bits (tests/refimpl.py keeps the
    composed step as the oracle).
    """
    if a.data.ndim != 3 or a.data.shape[0] != 1:
        raise ShapeError(f"convlstm_cell: attention map must be [1,H,W], got {a.data.shape}")
    if x.data.ndim != 3 or a.data.shape[1:] != x.data.shape[1:]:
        raise ShapeError(f"convlstm_cell: map {a.data.shape} and input {x.data.shape} "
                         f"differ in size")
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if bias is None:
        raise ShapeError("convlstm_cell: the gates need a bias")
    keep = scale = None
    if rate > 0.0:
        keep = rng.random(x.data.shape) >= rate
        scale = 1.0 / (1.0 - rate)

    def attended():
        ax = a.data * x.data
        if keep is not None:
            ax *= keep * scale
        return ax

    gates, layout = _conv_forward([attended(), h_prev.data], kernel, bias, "convlstm_cell")
    c = gates.shape[0] // 4
    if gates.shape[0] != 4 * c or s_prev.data.shape != (c,) + gates.shape[1:]:
        raise ShapeError(f"convlstm_cell: {gates.shape[0]} gate rows and state "
                         f"{s_prev.data.shape}; want 4c rows and a [c,H,W] state")
    act = _sigmoid(gates[:3 * c])        # i, f, o
    cc = np.tanh(gates[3 * c:])
    del gates
    i, f, o = act[:c], act[c:2 * c], act[2 * c:]
    out = np.empty((2 * c,) + cc.shape[1:])
    np.add(f * s_prev.data, i * cc, out=out[c:])
    np.multiply(o, np.tanh(out[c:]), out=out[:c])

    def attended_grad(d):
        if keep is not None:
            d = d * (keep * scale)
        if a.requires_grad:
            a._accumulate((d * x.data).sum(axis=0, keepdims=True))
        if x.requires_grad:
            x._accumulate(d * a.data)

    def bwd(g):
        ts = np.tanh(out[c:])
        dh = g[:c]
        ds = g[c:] + dh * o * (1.0 - ts * ts)
        dgates = np.empty((4 * c,) + ts.shape[1:])
        dact = dgates[:3 * c]
        np.multiply(ds, cc, out=dact[:c])
        np.multiply(ds, s_prev.data, out=dact[c:2 * c])
        np.multiply(dh, ts, out=dact[2 * c:])
        dact *= act
        dact *= 1.0 - act
        np.multiply(ds * i, 1.0 - cc * cc, out=dgates[3 * c:])
        if s_prev.requires_grad:
            s_prev._accumulate(ds * f)
        del ds, ts
        sinks = [attended_grad if a.requires_grad or x.requires_grad else None,
                 *_sinks([h_prev])]
        _conv_backward([attended(), h_prev.data], sinks, kernel, bias, layout, dgates)

    return Tensor(out, (a, x, h_prev, kernel, bias, s_prev), bwd)


def _block(x, lo, hi, shape):
    """Rows [lo, hi) of x's data as a view node of the given shape, whose
    backward adds into those rows of x's gradient (zero-filled first)."""

    def bwd(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[lo:hi] += g.reshape(x.grad[lo:hi].shape)

    return Tensor(x.data[lo:hi].reshape(shape), (x,), bwd)


def slice_channels(x, lo, hi):
    """Contiguous channel slice of a [C,H,W] tensor, as a view of x's data:
    only the optimizers write data in place, and only a parameter leaf's,
    after the sweep that read it."""
    if x.data.ndim != 3:
        raise ShapeError(f"slice_channels: input must be [C,H,W], got {x.data.shape}")
    c = x.data.shape[0]
    if not 0 <= lo < hi <= c:
        raise ShapeError(f"slice_channels: [{lo},{hi}) outside 0..{c}")
    return _block(x, lo, hi, x.data[lo:hi].shape)


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


def _scatter_add(idx, g, n):
    """The adjoint of reading flat positions idx out of n: g's entries
    summed per position, each sum in idx order and starting from 0.0."""
    return np.bincount(idx.reshape(-1), weights=g.reshape(-1), minlength=n)


def gather(x, indices):
    """Pick entries of the flattened tensor; the result has the shape of
    the index array and the gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    flat = x.data.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
        raise ShapeError(f"gather: index out of range for size {flat.size}")

    def bwd(g):
        if x.requires_grad:
            x._accumulate(_scatter_add(idx, g, flat.size).reshape(x.data.shape))

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


BCE_EPS = 1e-7           # bce_mean's clamp of the prediction away from 0 and 1


def bce_mean(pred, target):
    """Mean binary cross entropy between the prediction [..,h,w] read
    bilinearly resized to the target's [..,H,W] (Ry @ pred @ Rx^T, as
    bilinear_resize computes it; the identity for equal sizes) and the
    target, the resized prediction clamped to [BCE_EPS, 1-BCE_EPS].

    The clamp kills the gradient outside the open interval, matching the
    derivative of the clipped composite. The node keeps the prediction node
    and the target, not the resized map or its clamped copy: the backward
    recomputes both and hands on Ry^T @ g @ Rx, the adjoint of the resize.
    """
    t = np.asarray(target, dtype=np.float64)
    if (pred.data.ndim < 2 or t.ndim != pred.data.ndim or t.shape[:-2] != pred.data.shape[:-2]
            or t.size == 0):
        raise ShapeError(f"bce_mean: target {t.shape} vs pred {pred.data.shape}")
    ry = _resize_matrix(pred.data.shape[-2], t.shape[-2])
    rx = _resize_matrix(pred.data.shape[-1], t.shape[-1])
    p = np.clip(ry @ pred.data @ rx.T, BCE_EPS, 1.0 - BCE_EPS)
    val = float(np.mean(-t * np.log(p) - (1.0 - t) * np.log(1.0 - p)))

    def bwd(g):
        if pred.requires_grad:
            up = ry @ pred.data @ rx.T
            p = np.clip(up, BCE_EPS, 1.0 - BCE_EPS)
            inside = (up > BCE_EPS) & (up < 1.0 - BCE_EPS)
            pred._accumulate(ry.T @ (g[0] * inside * (p - t) / (p * (1.0 - p)) / t.size) @ rx)

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


def _tnsr_header(path, head, size):
    """(dims, payload offset) of the TNSR file path of size bytes, whose
    header is head: its first 5 + 4 * 4 bytes (rank 4), or all of it."""
    if head[:4] != _MAGIC:
        raise ParseError(f"{path}: bad magic {head[:4]!r}")
    if size < 5:
        raise ParseError(f"{path}: truncated header, no rank byte")
    rank = head[4]
    if not 1 <= rank <= 4:
        raise ParseError(f"{path}: bad rank {rank}")
    off = 5 + 4 * rank
    if size < off:
        raise ParseError(f"{path}: truncated header, {size} bytes for rank {rank}")
    dims = struct.unpack_from(f"<{rank}I", head, 5)
    n = math.prod(dims)
    if size - off != 4 * n:
        raise ParseError(f"{path}: payload size {size - off} != {4 * n}")
    return dims, off


def tnsr_shape(path):
    """The dims of a TNSR file, with its header and payload size checked
    as load_tnsr checks them; the payload is not read."""
    with open(path, "rb") as fh:
        head = fh.read(5 + 4 * 4)
        size = os.fstat(fh.fileno()).st_size
    return _tnsr_header(path, head, size)[0]


def load_tnsr(path):
    """Read a TNSR file back as a float64 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    dims, off = _tnsr_header(path, raw, len(raw))
    return np.frombuffer(raw, dtype="<f4", offset=off).astype(np.float64).reshape(dims)
