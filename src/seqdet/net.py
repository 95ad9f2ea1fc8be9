"""Toy detection network: pyramid backbone, attention-gated ConvLSTM
temporal units shared across pyramid levels, and multibox heads.

The backbone maps a [3,96,96] image to six feature maps
(32@24, 64@12, 32@6, 16@3, 16@2, 16@1). The three low-resolution "low
levels" are projected to a common 64-channel width by 1x1 convolutions so
one recurrent unit can serve all three; the high levels already share 16
channels. Each level keeps its own hidden/memory state at its own
resolution while the unit weights are shared within its group.

The recurrent step gates a ConvLSTM on an attention-weighted input: a
single-channel map in (0,1) produced by a three-layer conv stack over
[x, h_prev] multiplies every channel of x before the gates see it.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .postproc import PRIORS_PER_CELL, TOY_SIZES
from .tensor import Tensor

INPUT_SIZE = 96
TOY_CHANNELS = (32, 64, 32, 16, 16, 16)
C_LOW = 64
C_HIGH = 16
LOW_LEVELS = (0, 1, 2)           # the other three levels share the high unit

# Each stage resizes to its target extent, then applies a same-size 3x3 conv.
# Exact-division strided convs cannot reach odd extents from a 96px input,
# so downsampling is bilinear. name, in_ch, out_ch, size, input layer
_BACKBONE_LAYERS = (
    ("stem", 3, 16, 48, "image"),
    ("c0", 16, 32, 24, "stem"),     # level 0
    ("c1", 32, 64, 12, "c0"),       # level 1
    ("c2", 64, 32, 6, "c1"),        # level 2
    ("c3", 32, 16, 3, "c2"),        # level 3
    ("c4", 16, 16, 2, "c3"),        # level 4
    ("c5", 16, 16, 1, "c3"),        # level 5 (branches off level 3)
)


@dataclass
class ModelConfig:
    num_classes: int = 4
    attention_enabled: bool = True
    temporal: bool = True

    def to_meta(self):
        return {"num_classes": str(self.num_classes),
                "priors_per_cell": str(PRIORS_PER_CELL),
                "attention_enabled": str(int(self.attention_enabled)),
                "temporal": str(int(self.temporal))}

    @classmethod
    def from_meta(cls, meta):
        """Keys other than the three fields (priors_per_cell, which
        load_checkpoint checks, and the dropout_rate line of older
        checkpoints) are ignored."""
        return cls(num_classes=int(meta["num_classes"]),
                   attention_enabled=bool(int(meta["attention_enabled"])),
                   temporal=bool(int(meta["temporal"])))


@dataclass
class NetMode:
    """Per-call forward settings; dropout_rate > 0 only while training."""
    dropout_rate: float = 0.0
    rng: object = None


def unit_channels(level):
    return C_LOW if level in LOW_LEVELS else C_HIGH


def unit_of_level(level):
    return "low" if level in LOW_LEVELS else "high"


# ---------------------------------------------------------------------------
# parameter construction


def _conv_param(rng, params, name, c_out, c_in, k, bias=True, gain="relu"):
    fan_in = c_in * k * k
    std = np.sqrt(2.0 / fan_in) if gain == "relu" else np.sqrt(1.0 / fan_in)
    params[f"{name}.kernel"] = T.parameter(rng.normal(0, std, (c_out, c_in, k, k)),
                                           f"{name}.kernel")
    if bias:
        params[f"{name}.bias"] = T.parameter(np.zeros(c_out), f"{name}.bias")


# Every conv of the model as (name, c_out, c_in, k, bias, gain), in the
# order init_params draws their kernels.
def _backbone_convs():
    return ([(f"backbone.{name}", c_out, c_in, 3, True, "relu")
             for name, c_in, c_out, _size, _src in _BACKBONE_LAYERS]
            + [(f"unify.l{lvl}", C_LOW, TOY_CHANNELS[lvl], 1, True, "relu")
               for lvl in LOW_LEVELS])


def _lstm_convs():
    convs = []
    for unit, c in (("low", C_LOW), ("high", C_HIGH)):
        convs += [(f"lstm.{unit}.att1", c // 2, 2 * c, 3, False, "relu"),
                  (f"lstm.{unit}.att2", c // 4, c // 2, 3, False, "relu"),
                  (f"lstm.{unit}.att3", 1, c // 4, 3, False, "linear")]
        convs += [(f"lstm.{unit}.gate_{gate}", c, 2 * c, 3, True, "linear")
                  for gate in ("i", "f", "o", "c")]
    return convs


def _head_convs(cfg: ModelConfig):
    convs = []
    for lvl in range(6):
        c = unit_channels(lvl)
        convs += [(f"head.loc{lvl}", PRIORS_PER_CELL * 4, c, 3, True, "linear"),
                  (f"head.conf{lvl}", PRIORS_PER_CELL * (cfg.num_classes + 1), c, 3, True,
                   "linear")]
    return convs


def _model_convs(cfg: ModelConfig, with_lstm):
    return _backbone_convs() + (_lstm_convs() if with_lstm else []) + _head_convs(cfg)


def _init_convs(rng, convs, params):
    for name, c_out, c_in, k, bias, gain in convs:
        _conv_param(rng, params, name, c_out, c_in, k, bias, gain)
    return params


def init_lstm_params(rng, params=None):
    return _init_convs(rng, _lstm_convs(), {} if params is None else params)


def init_params(seed, cfg: ModelConfig, with_lstm=True):
    return _init_convs(np.random.default_rng((seed, 0x11)), _model_convs(cfg, with_lstm), {})


def param_shapes(cfg: ModelConfig, with_lstm):
    """Name -> shape of every tensor init_params creates, without drawing it."""
    shapes = {}
    for name, c_out, c_in, k, bias, _gain in _model_convs(cfg, with_lstm):
        shapes[f"{name}.kernel"] = (c_out, c_in, k, k)
        if bias:
            shapes[f"{name}.bias"] = (c_out,)
    return shapes


FROZEN_PREFIXES = ("backbone.", "unify.")
LSTM_PREFIX = "lstm."


# ---------------------------------------------------------------------------
# forward passes


def backbone_forward(image: Tensor, params):
    """Image [3,96,96] -> six raw pyramid maps."""
    if image.data.shape != (3, INPUT_SIZE, INPUT_SIZE):
        raise ShapeError(
            f"backbone expects (3,{INPUT_SIZE},{INPUT_SIZE}), got {image.data.shape}")
    taps = {"image": image}
    for name, _ci, _co, size, src in _BACKBONE_LAYERS:
        x = T.bilinear_resize(taps[src], size, size)
        taps[name] = T.relu(T.conv2d(x, params[f"backbone.{name}.kernel"],
                                     params[f"backbone.{name}.bias"], 1, 1))
    return [taps[f"c{lvl}"] for lvl in range(6)]


def unify_low_channels(pyramid, params):
    """Project the three low levels to the shared channel width."""
    out = []
    for lvl, fmap in enumerate(pyramid):
        if lvl in LOW_LEVELS:
            out.append(T.conv2d(fmap, params[f"unify.l{lvl}.kernel"],
                                params[f"unify.l{lvl}.bias"], 1, 0))
        else:
            out.append(fmap)
    return out


@dataclass
class ACLSTMWeights:
    """View over the parameter dict for one shared temporal unit."""
    att1: Tensor
    att2: Tensor
    att3: Tensor
    w_i: Tensor
    b_i: Tensor
    w_f: Tensor
    b_f: Tensor
    w_o: Tensor
    b_o: Tensor
    w_c: Tensor
    b_c: Tensor

    @classmethod
    def from_params(cls, params, unit):
        p = f"lstm.{unit}"
        return cls(params[f"{p}.att1.kernel"], params[f"{p}.att2.kernel"],
                   params[f"{p}.att3.kernel"],
                   params[f"{p}.gate_i.kernel"], params[f"{p}.gate_i.bias"],
                   params[f"{p}.gate_f.kernel"], params[f"{p}.gate_f.bias"],
                   params[f"{p}.gate_o.kernel"], params[f"{p}.gate_o.bias"],
                   params[f"{p}.gate_c.kernel"], params[f"{p}.gate_c.bias"])


def attention_convlstm_step(x, h_prev, s_prev, w: ACLSTMWeights,
                            dropout_rate=0.0, rng=None, attention_enabled=True):
    """One recurrent step.

    attention map   a = sigmoid(conv3(relu(conv2(relu(conv1([x, h]))))))
    gates           i,f,o = sigmoid(W * [a.x, h] + b), c = tanh(W_c * [a.x, h] + b_c)
    memory          s = f*s_prev + i*c
    hidden          h = o * tanh(s)

    With attention disabled the gates consume the raw x (identical to a
    plain ConvLSTM step) and the returned map is all ones. Dropout, when
    active, applies to the attention-weighted input only.
    """
    if x.data.shape != h_prev.data.shape or x.data.shape != s_prev.data.shape:
        raise ShapeError(f"state mismatch: x {x.data.shape}, h {h_prev.data.shape}, "
                         f"s {s_prev.data.shape}")
    if attention_enabled:
        xh = T.concat([x, h_prev])
        a = T.sigmoid(T.conv2d(
            T.relu(T.conv2d(T.relu(T.conv2d(xh, w.att1, None, 1, 1)),
                            w.att2, None, 1, 1)),
            w.att3, None, 1, 1))
        ax = T.chanwise_mul(a, x)
    else:
        a = T.constant(np.ones((1,) + x.data.shape[1:]))
        ax = x
    if dropout_rate > 0.0:
        ax = T.dropout(ax, dropout_rate, rng)
    gate_in = T.concat([ax, h_prev])
    cu = x.data.shape[0]
    fused = T.conv2d_multi(gate_in, [w.w_i, w.w_f, w.w_o, w.w_c],
                           [w.b_i, w.b_f, w.b_o, w.b_c], 1, 1)
    i = T.sigmoid(T.slice_channels(fused, 0, cu))
    f = T.sigmoid(T.slice_channels(fused, cu, 2 * cu))
    o = T.sigmoid(T.slice_channels(fused, 2 * cu, 3 * cu))
    c = T.tanh(T.slice_channels(fused, 3 * cu, 4 * cu))
    s = T.add(T.mul(f, s_prev), T.mul(i, c))
    h = T.mul(o, T.tanh(s))
    return h, s, a


def zero_state():
    """Per-level (h, s) pairs of zero maps: the state at sequence start."""
    return [(T.constant(np.zeros((unit_channels(lvl), s, s))),
             T.constant(np.zeros((unit_channels(lvl), s, s))))
            for lvl, s in enumerate(TOY_SIZES)]


def temporal_pyramid_forward(pyramid, state, params, cfg: ModelConfig, mode: NetMode):
    """Run the two shared recurrent units over all six (unified) levels.

    Levels 0-2 go through the low unit's single weight set, levels 3-5
    through the high unit's. Returns the six hidden maps, the new state,
    and the six attention maps. The state is a list of per-level (h, s)
    pairs (see zero_state).
    """
    if len(pyramid) != len(state):
        raise ShapeError(f"state has {len(state)} levels, pyramid {len(pyramid)}")
    weights = {u: ACLSTMWeights.from_params(params, u) for u in ("low", "high")}
    hidden, new_state, att_maps = [], [], []
    for lvl, fmap in enumerate(pyramid):
        h_prev, s_prev = state[lvl]
        if fmap.data.shape != h_prev.data.shape:
            raise ShapeError(f"level {lvl}: pyramid {fmap.data.shape} "
                             f"vs state {h_prev.data.shape}")
        h, s, a = attention_convlstm_step(
            fmap, h_prev, s_prev, weights[unit_of_level(lvl)],
            dropout_rate=mode.dropout_rate, rng=mode.rng,
            attention_enabled=cfg.attention_enabled)
        hidden.append(h)
        new_state.append((h, s))
        att_maps.append(a)
    return hidden, new_state, att_maps


def prior_major(maps):
    """One [P,W] node from per-level head maps: one row per prior, levels in
    order, cells row-major, the priors of a cell innermost (the order of
    make_priors). A level map [PRIORS_PER_CELL*W, s, s] packs channel
    prior*W + column."""
    parts = []
    for m in maps:
        c, s, _ = m.data.shape
        w = c // PRIORS_PER_CELL
        cell = np.arange(s * s)[:, None, None]
        prior = np.arange(PRIORS_PER_CELL)[None, :, None]
        column = np.arange(w)[None, None, :]
        parts.append(T.gather(m, ((prior * w + column) * s * s + cell).reshape(-1, w)))
    return T.concat(parts)


@dataclass
class HeadOut:
    """Box offsets loc [P,4] and class logits conf [P,K+1] as graph nodes,
    one row per prior (see prior_major)."""
    loc: Tensor
    conf: Tensor

    def deltas(self):
        return self.loc.data

    def logits(self):
        return self.conf.data


def head_forward(hidden_pyramid, params):
    loc_maps, conf_maps = [], []
    for lvl, fmap in enumerate(hidden_pyramid):
        loc_maps.append(T.conv2d(fmap, params[f"head.loc{lvl}.kernel"],
                                 params[f"head.loc{lvl}.bias"], 1, 1))
        conf_maps.append(T.conv2d(fmap, params[f"head.conf{lvl}.kernel"],
                                  params[f"head.conf{lvl}.bias"], 1, 1))
    return HeadOut(prior_major(loc_maps), prior_major(conf_maps))


def forward_static(image, params):
    """Single-frame path: backbone -> unify -> heads (no recurrence)."""
    pyramid = unify_low_channels(backbone_forward(image, params), params)
    return head_forward(pyramid, params)


def forward_temporal(image, state, params, cfg: ModelConfig, mode: NetMode):
    """One temporal frame: backbone -> unify -> recurrent units -> heads."""
    pyramid = unify_low_channels(backbone_forward(image, params), params)
    hidden, new_state, att_maps = temporal_pyramid_forward(pyramid, state, params, cfg,
                                                           mode)
    return head_forward(hidden, params), new_state, att_maps


# ---------------------------------------------------------------------------
# checkpoints: one TNSR file per parameter + manifest + meta


def save_checkpoint(ckpt_dir, params, meta):
    """Write the checkpoint into a sibling temporary directory and rename it
    into place, so a failed write leaves neither a partial checkpoint nor a
    changed one at ckpt_dir."""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = ckpt_dir.with_name(f".{ckpt_dir.name}.partial")
    old = ckpt_dir.with_name(f".{ckpt_dir.name}.old")
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir()
    try:
        lines = []
        for name in sorted(params):
            fname = f"{name}.tnsr"
            T.save_tnsr(tmp / fname, params[name].data)
            dims = "x".join(str(d) for d in params[name].data.shape)
            lines.append(f"{name}\t{fname}\t{dims}")
        (tmp / "manifest.txt").write_text("\n".join(lines) + "\n")
        (tmp / "meta.txt").write_text(
            "".join(f"{k} = {v}\n" for k, v in sorted(meta.items())))
        if ckpt_dir.exists():
            ckpt_dir.rename(old)
        tmp.rename(ckpt_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(ckpt_dir):
    """(params, meta) of a checkpoint. The tensors load as constants: a
    checkpoint is data, and a training stage promotes what it trains. The
    tensor names and shapes must be those of the model the meta describes
    (the temporal units only when it says temporal = 1)."""
    ckpt_dir = Path(ckpt_dir)
    manifest = ckpt_dir / "manifest.txt"
    if not manifest.exists():
        raise ConfigError(f"{ckpt_dir}: not a checkpoint (missing manifest.txt)")
    meta_path = ckpt_dir / "meta.txt"
    if not meta_path.exists():
        raise ConfigError(f"{ckpt_dir}: not a checkpoint (missing meta.txt)")
    meta = {}
    for line in meta_path.read_text().splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            meta[k] = v
    for key in ModelConfig().to_meta():
        if key not in meta:
            raise ConfigError(f"{meta_path}: missing key {key!r}")
        try:
            int(meta[key])
        except ValueError:
            raise ConfigError(f"{meta_path}: {key} = {meta[key]!r} is not an integer") from None
    if meta["priors_per_cell"] != str(PRIORS_PER_CELL):
        raise ConfigError(f"{meta_path}: priors_per_cell = {meta['priors_per_cell']}, "
                          f"but the prior grid has {PRIORS_PER_CELL} per cell")
    cfg = ModelConfig.from_meta(meta)
    expected = param_shapes(cfg, with_lstm=cfg.temporal)
    params = {}
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            name, fname, dims = line.split("\t")
            want = tuple(int(d) for d in dims.split("x"))
        except ValueError:
            raise ConfigError(f"{manifest}:{lineno}: expected name<TAB>file<TAB>dims, "
                              f"got {line!r}") from None
        if name not in expected:
            raise ConfigError(f"{manifest}:{lineno}: tensor {name} is not part of the model")
        if want != expected[name]:
            raise ConfigError(f"{manifest}:{lineno}: tensor {name} has shape {want}, "
                              f"the model expects {expected[name]}")
        arr = T.load_tnsr(ckpt_dir / fname)
        if arr.shape != want:
            raise ConfigError(f"{ckpt_dir}: {name} has shape {arr.shape}, manifest says {want}")
        params[name] = T.constant(arr)
    for name in expected:
        if name not in params:
            raise ConfigError(f"{manifest}: tensor {name} is missing")
    return params, meta
