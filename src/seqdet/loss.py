"""Training objective: localization + confidence with hard negative
mining, attention-map supervision, and the self-supervised score-list
association term.

The composed objective is
    (alpha * L_loc + beta * L_conf) / M  +  gamma * L_att  +  xi * L_asso
with M the number of matched priors; the loc/conf part is defined as 0
when nothing matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .postproc import center_to_corner, encode, iou_matrix

BCE_EPS = 1e-7
NEG_POS_RATIO = 3           # mined background priors per matched prior


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.5
    xi: float = 2.0

    def validate(self):
        for k, v in (("alpha", self.alpha), ("beta", self.beta),
                     ("gamma", self.gamma), ("xi", self.xi)):
            if v < 0:
                raise ConfigError(f"loss weight {k} must be >= 0, got {v}")
        return self


@dataclass
class MatchResult:
    labels: np.ndarray          # per prior: 0 background, else class id
    deltas: np.ndarray          # per prior encoded offsets (rows valid where matched)
    matched: np.ndarray         # indices of non-background priors

    @property
    def num_matched(self):
        return int(len(self.matched))


def match_priors(gt_boxes, gt_classes, priors_cf, iou_match=0.5):
    """Assign priors to ground-truth boxes.

    A prior takes the class of its best-overlap box when IoU >= iou_match;
    additionally every box claims its single best prior regardless of the
    threshold. Zero-area boxes are ignored. Offsets are encoded against
    the matched box.
    """
    p = priors_cf.shape[0]
    labels = np.zeros(p, dtype=int)
    deltas = np.zeros((p, 4))
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_classes = np.asarray(gt_classes, dtype=int).reshape(-1)
    ok = (gt_boxes[:, 2] > gt_boxes[:, 0]) & (gt_boxes[:, 3] > gt_boxes[:, 1])
    gt_boxes, gt_classes = gt_boxes[ok], gt_classes[ok]
    if len(gt_boxes) == 0:
        return MatchResult(labels, deltas, np.empty(0, dtype=int))

    overlaps = iou_matrix(center_to_corner(priors_cf), gt_boxes)   # [P,G]
    best_gt = overlaps.argmax(axis=1)
    best_iou = overlaps[np.arange(p), best_gt]
    assigned = np.where(best_iou >= iou_match, best_gt, -1)
    # forced fallback: each box keeps its best prior, later boxes win ties
    for g in range(len(gt_boxes)):
        assigned[int(overlaps[:, g].argmax())] = g

    matched = np.nonzero(assigned >= 0)[0]
    labels[matched] = gt_classes[assigned[matched]]
    if len(matched):
        deltas[matched] = encode(gt_boxes[assigned[matched]], priors_cf[matched])
    return MatchResult(labels, deltas, matched)


def hard_negative_indices(logits, labels, num_matched):
    """Highest-loss background priors, NEG_POS_RATIO per matched prior."""
    neg_mask = labels == 0
    candidates = np.nonzero(neg_mask)[0]
    if len(candidates) == 0 or num_matched == 0:
        return np.empty(0, dtype=int)
    ce = T.softmax_ce_rows(T.constant(logits[candidates]),
                           np.zeros(len(candidates), dtype=int)).data
    want = min(NEG_POS_RATIO * num_matched, len(candidates))
    order = np.argsort(-ce, kind="stable")[:want]
    return candidates[order]


def loc_conf_loss(head_out, match: MatchResult):
    """Summed smooth-L1 over matched priors and summed cross entropy over
    matched priors plus the mined negatives. Both zero when M == 0."""
    if match.num_matched == 0:
        return T.constant(np.zeros(1)), T.constant(np.zeros(1))
    l_loc = T.smooth_l1_sum(T.gather_rows(head_out.loc, match.matched),
                            match.deltas[match.matched])
    negatives = hard_negative_indices(head_out.logits(), match.labels,
                                      match.num_matched)
    rows = np.concatenate([match.matched, negatives])
    l_conf = T.sum_all(T.softmax_ce_rows(T.gather_rows(head_out.conf, rows),
                                         match.labels[rows]))
    return l_loc, l_conf


def box_indicator_map(gt_boxes, size):
    """Binary map marking pixels whose centers fall inside any box."""
    target = np.zeros((1, size, size))
    for box in np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4):
        x1, y1, x2, y2 = box
        xs = np.nonzero(((np.arange(size) + 0.5) / size >= x1)
                        & ((np.arange(size) + 0.5) / size <= x2))[0]
        ys = np.nonzero(((np.arange(size) + 0.5) / size >= y1)
                        & ((np.arange(size) + 0.5) / size <= y2))[0]
        if len(xs) and len(ys):
            target[0, ys[0]:ys[-1] + 1, xs[0]:xs[-1] + 1] = 1.0
    return target


def attention_loss(att_maps, gt_boxes, input_size=96):
    """Sum over levels of the mean BCE between each upsampled attention map
    and the box-indicator target at input resolution."""
    target = box_indicator_map(gt_boxes, input_size)
    terms = [T.bce_mean(T.bilinear_resize(a, input_size, input_size), target, BCE_EPS)
             for a in att_maps]
    return T.add_n(terms)


def association_loss_node(sl_nodes, seq_len, form="running"):
    """Association term: L1 deviation of each frame's score list from the
    mean of its predecessors ("running") or from the whole-sequence mean
    ("global"), divided by seq_len; 0 for fewer than two frames.

    sl_nodes: per frame, a list of per-class scalar nodes (None for an
    empty class). Returns a scalar node.
    """
    zero = T.constant(np.zeros(1))
    frames = [[zero if s is None else s for s in sl] for sl in sl_nodes]
    if len(frames) < 2 or seq_len < 2:
        return zero
    num_classes = len(frames[0])
    terms = []
    if form == "running":
        for t in range(1, len(frames)):
            for c in range(num_classes):
                mean_prev = T.scale(T.add_n([frames[u][c] for u in range(t)]), 1.0 / t)
                terms.append(T.absolute(T.sub(frames[t][c], mean_prev)))
    elif form == "global":
        n = len(frames)
        for c in range(num_classes):
            mean_all = T.scale(T.add_n([frames[u][c] for u in range(n)]), 1.0 / n)
            for t in range(n):
                terms.append(T.absolute(T.sub(frames[t][c], mean_all)))
    else:
        raise ConfigError(f"unknown association form {form!r}")
    return T.scale(T.add_n(terms), 1.0 / seq_len)


def frame_loss_node(l_loc, l_conf, l_att, num_matched, weights):
    """Graph composition of one frame's detection + attention terms."""
    w = weights.validate()
    parts = []
    if num_matched > 0:
        det = T.add(T.scale(l_loc, w.alpha), T.scale(l_conf, w.beta))
        parts.append(T.scale(det, 1.0 / num_matched))
    if l_att is not None:
        parts.append(T.scale(l_att, w.gamma))
    if not parts:
        return T.constant(np.zeros(1))
    return T.add_n(parts)
