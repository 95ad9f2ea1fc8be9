"""Staged training: static detector warm-up, recurrent training on
randomly skip-sampled sequences, and fine-tuning with the association
term. Also hosts the optimizers, the finite-difference gradient-check
driver, and the key=value config-file parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import loss as LS
from . import net
from . import tensor as T
from .errors import ConfigError, quoted
from .postproc import (decode, get_profile, make_priors,
                       select_class_candidates, softmax_rows)
from .synth import load_dataset_root

STAGE_LR = {1: 1e-3, 2: 1e-4, 3: 1e-5}
STAGE_EPOCHS = {1: 15, 2: 40, 3: 10}
LR_DECAY = 0.1               # stage-2 learning-rate factor after DECAY_EPOCH
DECAY_EPOCH = 30
LOSS_WEIGHTS = LS.LossWeights()
RMS_RHO = 0.9                # RMSProp accumulator decay
RMS_EPS = 1e-8               # RMSProp denominator floor


def random_skip_sample(v, seq_len, rng, sp=None):
    """Uniform-stride frame selection.

    Draws skip sp in [1, v // seq_len] and start sf in
    [1, v - seq_len * sp + 1] (both inclusive, 1-based), then returns the
    seq_len frame indices sf, sf+sp, ... as a range (its start is sf, its
    step sp). A fixed sp can be forced.
    """
    if v < seq_len:
        raise ValueError(f"video has {v} frames, need at least {seq_len}")
    if sp is None:
        sp = int(rng.integers(1, v // seq_len + 1))
    elif not 1 <= sp <= v // seq_len:
        raise ValueError(f"sp={sp} outside [1, {v // seq_len}]")
    sf = int(rng.integers(1, v - seq_len * sp + 2))
    return range(sf, sf + seq_len * sp, sp)


# ---------------------------------------------------------------------------
# optimizers


def sgd_step(params, grads, lr):
    for name, p in params.items():
        g = grads.get(name)
        if g is not None:
            p.data -= lr * g


def rmsprop_step(params, grads, lr, state):
    """Accumulator update acc = RMS_RHO*acc + (1-RMS_RHO)*g^2, kept in the
    caller's state dict, then p -= lr * g / (sqrt(acc) + RMS_EPS)."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        acc = state.get(name)
        if acc is None:
            acc = np.zeros_like(p.data)
        acc = RMS_RHO * acc + (1.0 - RMS_RHO) * g * g
        state[name] = acc
        p.data -= lr * g / (np.sqrt(acc) + RMS_EPS)


def global_norm(grads):
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def clip_gradients(grads, max_norm, norm):
    """Scale grads, whose global norm is norm, down to max_norm; no-op when
    max_norm <= 0."""
    if 0 < max_norm < norm:
        factor = max_norm / norm
        grads = {k: g * factor for k, g in grads.items()}
    return grads


# ---------------------------------------------------------------------------
# training configuration


@dataclass
class TrainConfig:
    seq_len: int = 8
    lr: float | None = None            # stage default when None
    epochs: int | None = None          # stage default when None
    theta: float = 0.1
    k: int = 75
    dropout: float = 0.2
    clip: float = 0.0                  # global grad-norm clip, 0 = off
    attention: bool = True
    profile: str = "vid"
    seed: int = 0

    def resolved(self, stage):
        """A copy with stage's lr and epochs defaults filled in; rejects an
        unknown stage and out-of-range settings."""
        if stage not in STAGE_LR:
            raise ConfigError(f"stage must be 1, 2 or 3, got {stage}")
        out = replace(self, lr=STAGE_LR[stage] if self.lr is None else self.lr,
                      epochs=STAGE_EPOCHS[stage] if self.epochs is None else self.epochs)
        for key, ok, rule in (
                ("seq_len", out.seq_len >= 1, ">= 1"),
                ("k", out.k >= 1, ">= 1"),
                ("lr", math.isfinite(out.lr) and out.lr > 0, "finite and > 0"),
                ("theta", 0 <= out.theta < 1, "in [0, 1)"),
                ("dropout", 0 <= out.dropout < 1, "in [0, 1)"),
                ("clip", math.isfinite(out.clip) and out.clip >= 0, "finite and >= 0"),
                ("epochs", out.epochs >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{key} = {getattr(out, key)!r}: must be {rule}")
        get_profile(out.profile)
        return out


# The settings a --config file may hold, with their types; each one but the
# global seed and profile is also a train flag (cli.build_parser).
CONFIG_KEYS = {
    "seq_len": int, "lr": float, "epochs": int, "theta": float, "k": int,
    "dropout": float, "seed": int, "clip": float, "profile": str,
}


def parse_config_file(path):
    """key = value lines; # starts a comment; unknown keys are rejected."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text(errors="replace").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {quoted(raw)}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {quoted(key)}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {quoted(value)}") from exc
    return out


# ---------------------------------------------------------------------------
# shared forward helpers


def frame_ground_truth(video, t):
    """(boxes_norm, classes) of 1-based frame t."""
    return video.boxes_norm[t - 1], video.classes[t - 1]


def detections_for_frame(head, priors, conf_thresh, profile, num_classes):
    """Numeric detection pipeline keeping prior indices (training + eval);
    profile is a resolved postproc.Profile."""
    boxes = decode(priors, head.loc.data)
    probs = softmax_rows(head.conf.data)
    out = []
    for c in range(1, num_classes + 1):
        out.extend(select_class_candidates(probs[:, c], boxes, c, conf_thresh, profile))
    return out


def score_list_profile(profile_name, k):
    """The NMS settings of the stage-3 score lists: the named profile with
    keep_top cut to k. Greedy NMS is prefix-stable (its first m kept boxes
    do not depend on where it stops), and score_list_nodes reads only the
    first k kept boxes of each class, so the score lists do not change."""
    profile = get_profile(profile_name)
    return replace(profile, keep_top=min(k, profile.keep_top))


def score_list_nodes(head, dets, k, num_classes):
    """Per-class top-k score sums as graph nodes, from kept detections."""
    nodes = []
    for c in range(1, num_classes + 1):
        rows = [d.prior_index for d in dets if d.class_id == c][:k]
        nodes.append(T.sum_all(T.softmax_prob_rows(T.gather_rows(head.conf, rows), c))
                     if rows else None)
    return nodes


def detect_video(params, model_cfg, video, conf_thresh, profile_name,
                 attach_av=True):
    """Run the detector over one video; returns [(frame_idx, dets), ...].
    Constant views of params keep trainable ones from recording a tape."""
    priors = make_priors()
    profile = get_profile(profile_name)
    params = {k: T.constant(p.data) for k, p in params.items()}
    out = []
    for t, (head, att) in enumerate(net.frame_outputs(video.frames, params, model_cfg),
                                    start=1):
        dets = detections_for_frame(head, priors, conf_thresh, profile,
                                    model_cfg.num_classes)
        if attach_av and att is not None and model_cfg.attention_enabled:
            from .tracker import attention_vector_for_box
            maps = [a.data for a in att]
            for d in dets:
                d.av = attention_vector_for_box(maps, d.box)
        out.append((t, dets))
    return out


# ---------------------------------------------------------------------------
# stage runner


def _step(build, update, clip, stage, epoch, step):
    """One optimizer step. build() returns (loss node, parts dict); a
    non-finite loss part or gradient norm stops the run before update(grads)
    applies the gradients, clipped to the global norm clip. The graph lives
    only inside this call, so the next step's forward starts without it."""
    loss, parts = build()
    where = f"stage {stage} epoch {epoch} step {step}"
    if not all(np.isfinite(v) for v in parts.values()):
        raise FloatingPointError(f"{where}: non-finite loss parts {parts}")
    grads = T.backward(loss)
    norm = global_norm(grads)
    if not math.isfinite(norm):
        raise FloatingPointError(f"{where}: non-finite gradient norm {norm}")
    update(clip_gradients(grads, clip, norm))
    return parts


def _train_sequence(params, video, indices, cfg, model_cfg, priors, rng, with_asso):
    """Build the loss graph over the 1-based frames `indices` of video, in
    order and scaled by 1/len(indices), and return (loss_node, parts dict).
    Dropout at cfg.dropout draws its masks from rng. A stage-1 step is one
    frame through the static model."""
    frame_nodes = []
    sl_nodes = []
    sl_profile = score_list_profile(cfg.profile, cfg.k)
    sums = {"L_loc": 0.0, "L_conf": 0.0, "L_att": 0.0}
    outputs = net.frame_outputs((video.frames[t - 1] for t in indices), params,
                                model_cfg, cfg.dropout, rng)
    for t, (head, att) in zip(indices, outputs):
        boxes, classes = frame_ground_truth(video, t)
        m = LS.match_priors(boxes, classes, priors)
        l_loc, l_conf = LS.loc_conf_loss(head, m)
        l_att = (LS.attention_loss(att, boxes)
                 if att is not None and model_cfg.attention_enabled else None)
        frame_nodes.append(LS.frame_loss_node(l_loc, l_conf, l_att,
                                              m.num_matched, LOSS_WEIGHTS))
        sums["L_loc"] += l_loc.item()
        sums["L_conf"] += l_conf.item()
        sums["L_att"] += l_att.item() if l_att is not None else 0.0
        if with_asso:
            dets = detections_for_frame(head, priors, cfg.theta, sl_profile,
                                        model_cfg.num_classes)
            sl_nodes.append(score_list_nodes(head, dets, cfg.k,
                                             model_cfg.num_classes))
    n = len(indices)
    total = T.scale(T.add_n(frame_nodes), 1.0 / n)
    l_asso = 0.0
    if with_asso:
        asso_node = LS.association_loss_node(sl_nodes, n)
        total = T.add(total, T.scale(asso_node, LOSS_WEIGHTS.xi))
        l_asso = asso_node.item()
    parts = {k: s / n for k, s in sums.items()}
    parts["L_asso"] = l_asso
    parts["L_total"] = total.item()
    return total, parts


def run_stage(stage, data_root, out_dir, config: TrainConfig, init_ckpt=None):
    """Train one stage and write checkpoint + loss CSV into out_dir;
    returns their paths as {"checkpoint": ..., "loss_csv": ...}.

    Stage 1 trains the static model on shuffled single frames with SGD.
    Stages 2 and 3 load the previous checkpoint, train only the temporal
    units and heads (backbone and unify stay constants) on skip-sampled
    sequences; temporal-unit parameters update with RMSProp, heads with
    SGD. Stage 3 adds the association term and forces sp = 1.
    """
    cfg = config.resolved(stage)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    videos = sorted(load_dataset_root(data_root), key=lambda v: v.name)
    rng = np.random.default_rng((cfg.seed, stage))
    priors = make_priors()

    if stage == 1:
        model_cfg = net.ModelConfig(attention_enabled=cfg.attention, temporal=False)
        params = net.init_params(cfg.seed, model_cfg, with_lstm=False)
    else:
        if init_ckpt is None:
            raise ConfigError(f"stage {stage} requires the previous stage's checkpoint")
        params, model_cfg = net.load_checkpoint(init_ckpt)
        params = {n: p if n.startswith(net.FROZEN_PREFIXES) else T.parameter(p.data, n)
                  for n, p in params.items()}
        model_cfg.temporal = True
        model_cfg.attention_enabled = cfg.attention
        if not any(name.startswith(net.LSTM_PREFIX) for name in params):
            net.init_lstm_params(np.random.default_rng((cfg.seed, 0x15)), params)

    for video in videos:
        top = max((int(c.max()) for c in video.classes if len(c)), default=0)
        if top > model_cfg.num_classes:
            raise ConfigError(f"{video.name}: gt class {top} exceeds the model's "
                              f"num_classes = {model_cfg.num_classes}")

    rms_params = {n: p for n, p in params.items() if n.startswith(net.LSTM_PREFIX)}
    sgd_params = {n: p for n, p in params.items()
                  if p.requires_grad and n not in rms_params}
    rms_state = {}

    def build(video, indices):
        if indices is None:
            indices = random_skip_sample(len(video.frames), cfg.seq_len, rng,
                                         sp=1 if stage == 3 else None)
        return _train_sequence(params, video, indices, cfg, model_cfg, priors, rng,
                               with_asso=(stage == 3))

    rows = ["epoch,step,L_loc,L_conf,L_att,L_asso,L_total\n"]
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr * (LR_DECAY if stage == 2 and epoch > DECAY_EPOCH else 1.0)

        def update(grads):
            sgd_step(sgd_params, grads, lr)
            rmsprop_step(rms_params, grads, lr, rms_state)

        if stage == 1:
            items = [(v, (t,)) for v in videos for t in range(1, len(v.frames) + 1)]
            rng.shuffle(items)
        else:
            items = [(v, None) for v in videos]
        for step, (video, indices) in enumerate(items, start=1):
            parts = _step(lambda: build(video, indices), update, cfg.clip, stage, epoch, step)
            att_asso = ("0,0" if stage == 1
                        else f"{parts['L_att']:.6f},{parts['L_asso']:.6f}")
            rows.append(f"{epoch},{step},{parts['L_loc']:.6f},{parts['L_conf']:.6f},"
                        f"{att_asso},{parts['L_total']:.6f}\n")

    (out_dir / "loss.csv").write_text("".join(rows))
    ckpt_dir = out_dir / "checkpoint"
    net.save_checkpoint(ckpt_dir, params, model_cfg.to_meta())
    return {"checkpoint": ckpt_dir, "loss_csv": out_dir / "loss.csv"}


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckRow:
    name: str
    max_rel_err: float


@dataclass
class GradCheckCase:
    """Named parameters plus a builder that assembles the scalar loss."""
    params: dict
    build_loss: callable


def grad_check(case: GradCheckCase):
    """Analytic vs central-difference gradients (tensor.finite_diff at its
    default step) for every parameter.

    Relative error per coordinate is |ga - gn| / max(|ga|, |gn|, 1e-4);
    the floor keeps near-zero gradients comparable at an absolute 1e-8.
    Returns rows sorted worst-first, one per parameter tensor.
    """
    analytic = T.backward(case.build_loss())
    rows = []
    for name in sorted(case.params):
        p = case.params[name]
        ga = analytic.get(name, np.zeros_like(p.data))

        def f(arr, _p=p):
            saved = _p.data
            _p.data = arr.reshape(saved.shape)
            try:
                return case.build_loss().item()
            finally:
                _p.data = saved

        gn = T.finite_diff(f, p.data.reshape(-1)).reshape(p.data.shape)
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-4)
        rows.append(GradCheckRow(name, float(np.max(np.abs(ga - gn) / denom))))
    rows.sort(key=lambda r: -r.max_rel_err)
    return rows


def build_linear_head_case(seed=0):
    """Purely linear conv + quadratic penalty; finite differences are exact."""
    rng = np.random.default_rng((seed, 0x61))
    x = T.constant(rng.standard_normal((3, 5, 5)) * 0.5)
    params = {"head.kernel": T.parameter(rng.standard_normal((2, 3, 3, 3)) * 0.2,
                                         "head.kernel"),
              "head.bias": T.parameter(rng.standard_normal(2) * 0.1, "head.bias")}
    target = rng.standard_normal(2 * 5 * 5) * 0.3

    def build():
        y = T.conv2d(x, params["head.kernel"], params["head.bias"])
        return T.smooth_l1_sum(T.gather(y, np.arange(2 * 5 * 5)), target)

    return GradCheckCase(params, build)


def build_aclstm_case(seed=0, frames=3, channels=4, size=5, dropout=0.0):
    """Unrolled recurrent steps plus a composite loss over heads, attention
    maps, and class scores; parameter count stays in the low thousands.
    With dropout, every build draws the same masks."""
    rng = np.random.default_rng((seed, 0x62))
    params = {}
    pr = np.random.default_rng((seed, 0x63))
    c = channels
    net._conv_param(pr, params, "lstm.u.att1", c // 2, 2 * c, 3, bias=False)
    net._conv_param(pr, params, "lstm.u.att2", c // 4, c // 2, 3, bias=False)
    net._conv_param(pr, params, "lstm.u.att3", 1, max(c // 4, 1), 3, bias=False,
                    gain="linear")
    net._conv_param(pr, params, "lstm.u.gates", 4 * c, 2 * c, 3, gain="linear")
    net._conv_param(pr, params, "head", 3, channels, 3, gain="linear")
    w = net.ACLSTMWeights.from_params(params, "u")
    xs = [T.constant(rng.standard_normal((channels, size, size)) * 0.8)
          for _ in range(frames)]
    att_target = (rng.random((1, 8, 8)) > 0.6).astype(float)
    loc_target = rng.standard_normal(6) * 0.5
    pick = np.array([0, 7, 11, 30, 44, 61]) % (3 * size * size)

    def build():
        h = T.constant(np.zeros((channels, size, size)))
        s = T.constant(np.zeros((channels, size, size)))
        terms = []
        masks = np.random.default_rng((seed, 0x64))
        for x in xs:
            h, s, a = net.attention_convlstm_step(x, h, s, w, dropout, masks)
            head = T.conv2d(h, params["head.kernel"], params["head.bias"])
            vec = T.gather(head, pick)
            terms.append(T.smooth_l1_sum(vec, loc_target))
            terms.append(T.bce_mean(a, att_target))
            terms.append(T.softmax_ce_rows(T.gather(head, pick[None, :4]), [1]))
        return T.scale(T.add_n(terms), 1.0 / frames)

    return GradCheckCase(params, build)


BUILTIN_CASES = {"linear": build_linear_head_case, "aclstm": build_aclstm_case}
