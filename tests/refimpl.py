"""Independent straight-line reference implementations used as oracles.

Everything here is deliberately naive (nested loops, exhaustive argmax
scans) and shares no code with the package under test, except three parts.
The renderer oracle returns synth's data classes, and the json-only
detections reader returns postproc's Detection. The composed graphs at
the end are built from the engine's primitive ops, plus the mul, concat and
tanh nodes defined here, as the oracles of its fused nodes: the recurrent step
of tensor.convlstm_cell, the heads of tensor.conv_gather and the attention
loss of tensor.bce_mean.
"""

import json
import math

import numpy as np

from seqdet import postproc as pp
from seqdet import synth
from seqdet import tensor as T
from seqdet.errors import ParseError, ShapeError


def naive_conv2d(x, kernel, bias=None, stride=1, pad=0):
    c_out, c_in, k, _ = kernel.shape
    _, h, w = x.shape
    h2 = (h + 2 * pad - k) // stride + 1
    w2 = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    out = np.zeros((c_out, h2, w2))
    for co in range(c_out):
        for i in range(h2):
            for j in range(w2):
                acc = 0.0
                for ci in range(c_in):
                    for ki in range(k):
                        for kj in range(k):
                            acc += xp[ci, i * stride + ki, j * stride + kj] * kernel[co, ci, ki, kj]
                out[co, i, j] = acc + (bias[co] if bias is not None else 0.0)
    return out


def masked_sigmoid(d):
    """Logistic function split by sign with boolean masks, so exp never
    sees a positive argument: 1/(1+exp(-d)) where d >= 0, exp(d)/(1+exp(d))
    elsewhere (NaN included)."""
    d = np.asarray(d, dtype=np.float64)
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def naive_bilinear_resize(a, h2, w2):
    """Per-pixel evaluation of the half-pixel-center formula with edge clamp."""
    c, h, w = a.shape
    out = np.zeros((c, h2, w2))
    for ch in range(c):
        for i in range(h2):
            sy = min(max((i + 0.5) * (h / h2) - 0.5, 0.0), h - 1.0)
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, h - 1)
            fy = sy - y0
            for j in range(w2):
                sx = min(max((j + 0.5) * (w / w2) - 0.5, 0.0), w - 1.0)
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, w - 1)
                fx = sx - x0
                out[ch, i, j] = ((1 - fy) * (1 - fx) * a[ch, y0, x0]
                                 + (1 - fy) * fx * a[ch, y0, x1]
                                 + fy * (1 - fx) * a[ch, y1, x0]
                                 + fy * fx * a[ch, y1, x1])
    return out


def naive_box_descriptor(maps, box, grid=7):
    """Per-sample evaluation of the box descriptor: each [1,S,S] map read at
    grid x grid points spread evenly over the box (half-pixel centres inside
    the box, edge clamp on the map), row-major, maps concatenated."""
    bx1, by1, bx2, by2 = (float(v) for v in box)
    out = []
    for m in maps:
        a = m[0]
        s = a.shape[0]
        for i in range(grid):
            sy = (by1 + (i + 0.5) / grid * (by2 - by1)) * s - 0.5
            sy = min(max(sy, 0.0), s - 1.0)
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, s - 1)
            fy = sy - y0
            for j in range(grid):
                sx = (bx1 + (j + 0.5) / grid * (bx2 - bx1)) * s - 0.5
                sx = min(max(sx, 0.0), s - 1.0)
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, s - 1)
                fx = sx - x0
                out.append((1 - fy) * (1 - fx) * a[y0, x0] + (1 - fy) * fx * a[y0, x1]
                           + fy * (1 - fx) * a[y1, x0] + fy * fx * a[y1, x1])
    return np.array(out)


def naive_iou(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def naive_nms(boxes, scores, iou_thresh, keep_top):
    """Repeated global-argmax suppression; ties broken by input order."""
    n = len(scores)
    alive = [True] * n
    kept = []
    while len(kept) < keep_top:
        best = -1
        for i in range(n):
            if alive[i] and (best < 0 or scores[i] > scores[best]):
                best = i
        if best < 0:
            break
        kept.append(best)
        alive[best] = False
        for i in range(n):
            if alive[i] and naive_iou(boxes[best], boxes[i]) > iou_thresh:
                alive[i] = False
    return kept


def naive_match(gt_boxes, priors_corner, iou_thresh=0.5):
    """Exhaustive prior/GT matching: threshold pass plus best-prior fallback.

    Returns per-prior GT index (-1 for background).
    """
    p = len(priors_corner)
    g = len(gt_boxes)
    assign = np.full(p, -1, dtype=int)
    if g == 0:
        return assign
    iou = np.zeros((p, g))
    for i in range(p):
        for j in range(g):
            iou[i, j] = naive_iou(priors_corner[i], gt_boxes[j])
    for i in range(p):
        j = int(np.argmax(iou[i]))
        if iou[i, j] >= iou_thresh:
            assign[i] = j
    for j in range(g):
        best = int(np.argmax(iou[:, j]))
        assign[best] = j
    return assign


def score_list(dets, k=75, theta=0.1, num_classes=4):
    """Per-class sum of the top-k scores strictly above theta."""
    out = np.zeros(num_classes)
    for c in range(1, num_classes + 1):
        scores = sorted((d.score for d in dets if d.class_id == c and d.score > theta),
                        reverse=True)
        out[c - 1] = float(sum(scores[:k]))
    return out


def association_loss(score_lists, seq_len):
    """L1 deviation of each frame's score list from the mean of its
    predecessors, divided by seq_len."""
    lists = [np.asarray(sl, dtype=np.float64) for sl in score_lists]
    if len(lists) < 2 or seq_len < 2:
        return 0.0
    total = 0.0
    for t in range(1, len(lists)):
        mean_prev = np.mean(lists[:t], axis=0)
        total += float(np.abs(lists[t] - mean_prev).sum())
    return total / seq_len


def naive_voc_map(dets_by_frame, gts_by_frame, iou_thresh=0.5, num_classes=4):
    """Greedy VOC matching one candidate at a time, and all-points AP.

    Per class, candidates go by descending score (ties: earlier frame, then
    earlier position in the frame's list). Each one scans every gt box of
    its class and frame with naive_iou; it is a true positive when the
    best-overlap box (the first of equal maxima) reaches iou_thresh and no
    earlier candidate claimed it. AP sums each recall step times the best
    precision at that recall or beyond. Classes without gt are skipped.
    """
    aps = {}
    for c in range(1, num_classes + 1):
        gt = {}
        for f, (boxes, classes) in gts_by_frame.items():
            boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
            gt[f] = [boxes[k] for k in range(len(boxes)) if int(classes[k]) == c]
        n_gt = sum(len(v) for v in gt.values())
        if n_gt == 0:
            continue
        cand = [(d.score, f, i, d.box) for f in dets_by_frame
                for i, d in enumerate(dets_by_frame[f]) if d.class_id == c]
        cand.sort(key=lambda r: (-r[0], r[1], r[2]))
        claimed = set()
        points = []                 # (recall, precision) after each candidate
        tp = 0
        for rank, (_score, f, _i, box) in enumerate(cand, 1):
            best, best_v = None, 0.0
            for k, g in enumerate(gt.get(f, [])):
                v = naive_iou(box, g)
                if best is None or v > best_v:
                    best, best_v = k, v
            if best is not None and best_v >= iou_thresh and (f, best) not in claimed:
                claimed.add((f, best))
                tp += 1
            points.append((tp / n_gt, tp / rank))
        ap = 0.0
        reached = 0.0
        for j, (recall, _p) in enumerate(points):
            if recall > reached:
                ap += (recall - reached) * max(p for _r, p in points[j:])
                reached = recall
        aps[c] = ap
    mean = sum(aps.values()) / len(aps) if aps else 0.0
    return aps, mean


class ReferenceTracker:
    """Online tubelet tracking restated one pair at a time, with its own
    tubelets, truncation, aging and id counter. step(frame_idx, dets)
    returns the ids of one frame's detections in input order.

    Per class (ascending), detections by descending score (ties: input
    order). A detection scores every tubelet of its class as exp(naive_iou
    with the newest member) times the mean over the members of the cosine
    of the two appearance vectors (0 when either is zero); in iou_only
    mode the factor is left out. It claims the first best-scoring tubelet
    when the score strictly exceeds the match threshold. A tubelet claimed
    several times goes to the highest score, the first one on a tie. A
    detection without a tubelet whose score strictly exceeds the generation
    score founds one with the next id. Claimed tubelets take their detection
    as newest member (keeping tub_len_max), tubelets unseen for more than
    max_miss frames go, and founded ones follow the survivors.
    """

    def __init__(self, match_threshold, generation_score, tub_len_max, max_miss,
                 similarity):
        self.match_threshold = match_threshold
        self.generation_score = generation_score
        self.tub_len_max = tub_len_max
        self.max_miss = max_miss
        self.similarity = similarity
        self.tubs = {}              # class id -> [[id, members newest first, last seen]]
        self.next_id = 0

    def _score(self, det, members):
        s = math.exp(naive_iou(det.box, members[0].box))
        if self.similarity == "iou_only":
            return s
        cos = []
        for m in members:
            na, nb = float(np.linalg.norm(det.av)), float(np.linalg.norm(m.av))
            cos.append(float(np.dot(det.av, m.av)) / (na * nb) if na > 0 and nb > 0 else 0.0)
        return s * (sum(cos) / len(cos))

    def step(self, frame_idx, dets):
        ids = [-1] * len(dets)
        for c in sorted({d.class_id for d in dets} | set(self.tubs)):
            tubs = self.tubs.get(c, [])
            order = sorted((i for i, d in enumerate(dets) if d.class_id == c),
                           key=lambda i: -dets[i].score)
            claims = {}             # tubelet index -> [(score, detection index)]
            for i in order:
                best, best_s = None, None
                for ti, (_tid, members, _seen) in enumerate(tubs):
                    s = self._score(dets[i], members)
                    if best is None or s > best_s:
                        best, best_s = ti, s
                if best is not None and best_s > self.match_threshold:
                    claims.setdefault(best, []).append((best_s, i))
            winners = {}
            for ti, lst in claims.items():
                top = max(s for s, _i in lst)
                winners[ti] = next(i for s, i in lst if s == top)
                ids[winners[ti]] = tubs[ti][0]
            born = []
            for i in order:
                if ids[i] == -1 and dets[i].score > self.generation_score:
                    ids[i] = self.next_id
                    born.append([self.next_id, [dets[i]], frame_idx])
                    self.next_id += 1
            kept = []
            for ti, (tid, members, seen) in enumerate(tubs):
                if ti in winners:
                    members = ([dets[winners[ti]]] + members)[:self.tub_len_max]
                    seen = frame_idx
                if frame_idx - seen <= self.max_miss:
                    kept.append([tid, members, seen])
            kept += born
            if kept:
                self.tubs[c] = kept
            else:
                self.tubs.pop(c, None)
        return ids


# ---------------------------------------------------------------------------
# the moving-shapes renderer, one meshgrid and one texture generator per
# object-frame


def _reference_texture_rgb(tex_seed, uu, vv):
    rng = np.random.default_rng(tex_seed)
    base = rng.uniform(0.35, 0.95, 3)
    fu, fv = rng.uniform(2.0, 6.0, 2)
    phase = rng.uniform(0, 2 * np.pi)
    wave = 0.65 + 0.35 * np.sin(2 * np.pi * (fu * uu + fv * vv) + phase)
    return base[:, None, None] * wave[None]


def _reference_shape_mask(class_id, uu, vv):
    du = uu - 0.5
    dv = vv - 0.5
    if class_id == 1:
        return (np.abs(du) <= 0.5) & (np.abs(dv) <= 0.5)
    if class_id == 2:
        return du * du + dv * dv <= 0.25
    if class_id == 3:
        return (vv >= 0.0) & (np.abs(du) <= vv / 2 + 1e-9) & (vv <= 1.0)
    return np.abs(du) + np.abs(dv) <= 0.5


def _reference_bounce(pos, vel, lo, hi):
    pos += vel
    if pos < lo:
        pos = 2 * lo - pos
        vel = -vel
    if pos > hi:
        pos = 2 * hi - pos
        vel = -vel
    return min(max(pos, lo), hi), vel


def gen_sequence_reference(spec):
    """synth.gen_sequence as first written: full meshgrids for the canvas
    and for every object box, a fresh texture generator seeded
    (seed, 0x7E, obj_id) for every object-frame, and a boolean-mask
    assignment of the texture."""
    spec.validate()
    s = synth.CANVAS
    rng_bg = np.random.default_rng((spec.seed, 0xB6))
    background = 0.1 + 0.08 * rng_bg.random((3, s, s))
    yy, xx = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    background += 0.04 * (yy / s)[None]

    state = [(o.cx, o.cy, o.vx, o.vy) for o in spec.objects]
    rng_flicker = np.random.default_rng((spec.seed, 0xF1))
    rng_blink = np.random.default_rng((spec.seed, 0xB7))
    frames = []
    gt = []
    for t in range(spec.length):
        frame = background.copy()
        if spec.flicker > 0:
            frame += spec.flicker * (rng_flicker.random((3, s, s)) - 0.5)
        boxes = []
        for k, obj in enumerate(spec.objects):
            cx, cy, vx, vy = state[k]
            size = obj.size
            if obj.size_end is not None and spec.length > 1:
                size = obj.size + (obj.size_end - obj.size) * t / (spec.length - 1)
            half = size / 2
            cx = min(max(cx, half), s - half)
            cy = min(max(cy, half), s - half)
            left, top = cx - half, cy - half
            x0, x1 = int(np.floor(left)), int(np.ceil(left + size))
            y0, y1 = int(np.floor(top)), int(np.ceil(top + size))
            x0, y0 = max(x0, 0), max(y0, 0)
            x1, y1 = min(x1, s), min(y1, s)
            px = np.arange(x0, x1)
            py = np.arange(y0, y1)
            u = (px + 0.5 - left) / size
            v = (py + 0.5 - top) / size
            uu, vv = np.meshgrid(u, v, indexing="xy")
            mask = (_reference_shape_mask(obj.class_id, uu, vv)
                    & (uu >= 0) & (uu <= 1) & (vv >= 0) & (vv <= 1))
            visible = t == 0 or spec.blink == 0.0 or rng_blink.random() >= spec.blink
            if mask.any() and visible:
                rgb = _reference_texture_rgb((spec.seed, 0x7E, obj.obj_id), uu, vv)
                region = frame[:, y0:y1, x0:x1]
                region[:, mask] = rgb[:, mask]
            boxes.append(synth.GtBox(obj.obj_id, obj.class_id,
                                     np.array([left, top, size, size], dtype=np.float64)))
            ncx, nvx = _reference_bounce(cx, vx, half, s - half)
            ncy, nvy = _reference_bounce(cy, vy, half, s - half)
            state[k] = (ncx, ncy, nvx, nvy)
        frames.append(np.clip(frame, 0.0, 1.0))
        gt.append(boxes)
    return synth.Sequence(frames, gt, spec)


def detections_jsonl_reference(frames):
    """The text postproc.write_detections_jsonl writes, built with one
    float() call per box and av element."""
    lines = []
    for fidx, dets in frames:
        for d in dets:
            rec = {"frame": int(fidx), "class": int(d.class_id), "score": float(d.score),
                   "box": [float(v) for v in d.box], "id": int(d.id)}
            if d.av is not None:
                rec["av"] = [float(v) for v in d.av]
            lines.append(json.dumps(rec) + "\n")
    return "".join(lines)


def _quoted(value):
    """repr(value), its first 32 characters and '...' when it is longer."""
    text = repr(value)
    if len(text) > 32:
        text = text[:32] + "..."
    return text


def _json_whole(rec, key, default=None):
    v = rec[key] if default is None else rec.get(key, default)
    w = None
    if type(v) is int or (type(v) is float and v.is_integer()):
        w = int(v) if -2**63 <= v < 2**63 else None
    if w is None:
        raise ValueError(f"{key} must be a whole number within 64 bits, got {_quoted(v)}")
    return w


def read_detections_jsonl_json(path):
    """The detections JSONL reader with json.loads as its only parser: what
    every accept/refuse decision, Detection and ParseError text of
    postproc.read_detections_jsonl must equal. Nesting deeper than the
    recursion limit is a ParseError here too."""
    frames = {}
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                box, av = rec["box"], rec.get("av", [])
                if not (isinstance(box, list) and len(box) == 4):
                    raise ValueError(f"box must hold 4 numbers, got {_quoted(box)}")
                if not isinstance(av, list):
                    raise ValueError(f"av must be a list of numbers, got {_quoted(av)}")
                try:
                    vals = np.asarray([rec["score"], *box, *av], dtype=np.float64)
                except ValueError:
                    raise ValueError("score, box and av must be numbers") from None
                if not np.isfinite(vals).all():
                    raise ValueError("score, box and av must be finite")
                det = pp.Detection(_json_whole(rec, "class"), float(vals[0]), vals[1:5],
                                   av=vals[5:] if "av" in rec else None,
                                   id=_json_whole(rec, "id", -1))
                frames.setdefault(_json_whole(rec, "frame"), []).append(det)
            except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise ParseError(f"{path}:{lineno}: bad detection record ({exc})") from exc
    return frames


def retaining_backward(loss):
    """Reverse-mode sweep that leaves every visited node's gradient in
    ``.grad``: the same depth-first post-order over the nodes that require
    grad and the same per-node closures as the engine, so gradients sum in
    the same order, but nothing is released until the graph is."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if p.requires_grad)
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


def graph_nodes(root):
    """Every distinct node reachable from root through parents."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def mul(a, b):
    """Elementwise product node of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return T.Tensor(a.data * b.data, (a, b), bwd)


def tanh(x):
    """Elementwise tanh node."""
    out = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - out * out))

    return T.Tensor(out, (x,), bwd)


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

    return T.Tensor(np.concatenate([t.data for t in tensors]), tuple(tensors), bwd)


def composed_convlstm_cell(parts, kernel, bias, s_prev):
    """The ConvLSTM update as a graph of primitive ops: concat the parts,
    one gate conv, channel slices i, f, o, c, then
    s = sigmoid(f)*s_prev + sigmoid(i)*tanh(c) and h = sigmoid(o)*tanh(s).
    Returns the nodes (h, s)."""
    c = s_prev.data.shape[0]
    fused = T.conv2d(concat(list(parts)), kernel, bias)
    i = T.sigmoid(T.slice_channels(fused, 0, c))
    f = T.sigmoid(T.slice_channels(fused, c, 2 * c))
    o = T.sigmoid(T.slice_channels(fused, 2 * c, 3 * c))
    cc = tanh(T.slice_channels(fused, 3 * c, 4 * c))
    s = T.add(mul(f, s_prev), mul(i, cc))
    return mul(o, tanh(s)), s


def attention_product(a, x):
    """The one-channel map a [1,H,W] multiplied into every channel of x
    [C,H,W] as its own node, whose backward sums a's adjoint over the
    channels."""

    def bwd(g):
        if a.requires_grad:
            a._accumulate((g * x.data).sum(axis=0, keepdims=True))
        if x.requires_grad:
            x._accumulate(g * a.data)

    return T.Tensor(a.data * x.data, (a, x), bwd)


def composed_dropout(x, rate, rng):
    """Inverted dropout as a product with a float mask: (rng draw >= rate)
    / (1 - rate), drawn once over x's shape."""
    return mul(x, T.constant((rng.random(x.data.shape) >= rate) / (1.0 - rate)))


def composed_aclstm_step(x, h_prev, s_prev, w, dropout_rate=0.0, rng=None,
                         attention_enabled=True):
    """net.attention_convlstm_step composed from primitive ops: the attention
    stack and the gates read concatenated [x, h_prev] and [a.x, h_prev]
    copies, a.x (attention_product) and dropout (composed_dropout) are
    nodes of their own, and the update is composed_convlstm_cell."""
    if attention_enabled:
        xh = concat([x, h_prev])
        a = T.sigmoid(T.conv2d(T.relu(T.conv2d(T.relu(T.conv2d(xh, w.att1)), w.att2)),
                               w.att3))
        ax = attention_product(a, x)
    else:
        a = T.constant(np.ones((1,) + x.data.shape[1:]))
        ax = x
    if dropout_rate > 0.0:
        ax = composed_dropout(ax, dropout_rate, rng)
    h, s = composed_convlstm_cell([ax, h_prev], w.gates, w.gates_bias, s_prev)
    return h, s, a


def prior_major_rows(maps, lo, width, priors_per_cell=2):
    """One [P,width] node from per-level [C,s,s] maps, one gather per level
    and a concat: row cell*priors_per_cell + prior of a level (levels in
    order) holds channels lo + prior*width + j, j < width, at that cell."""
    rows = []
    for m in maps:
        s = m.data.shape[1]
        index = [[(lo + prior * width + j) * s * s + cell for j in range(width)]
                 for cell in range(s * s) for prior in range(priors_per_cell)]
        rows.append(T.gather(m, np.array(index)))
    return concat(rows)


def composed_head_forward(hidden_pyramid, params, priors_per_cell=2):
    """net.head_forward composed from primitive ops: one conv2d node per
    level, then prior_major_rows for the loc and conf blocks. Returns the
    nodes (loc, conf)."""
    maps = [T.conv2d(h, params[f"head.l{lvl}.kernel"], params[f"head.l{lvl}.bias"])
            for lvl, h in enumerate(hidden_pyramid)]
    conf_width = maps[0].data.shape[0] // priors_per_cell - 4
    return (prior_major_rows(maps, 0, 4, priors_per_cell),
            prior_major_rows(maps, 4 * priors_per_cell, conf_width, priors_per_cell))


def composed_bce(pred, target):
    """bce_mean of pred read at the target's size through its own
    bilinear_resize node; the bce_mean node then resizes by the identity."""
    return T.bce_mean(T.bilinear_resize(pred, *target.shape[-2:]), target)
