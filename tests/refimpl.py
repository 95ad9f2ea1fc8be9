"""Independent straight-line reference implementations used as oracles.

Everything here is deliberately naive (nested loops, exhaustive argmax
scans) and shares no code with the package under test.
"""

import numpy as np


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


def association_loss(score_lists, seq_len, form="running"):
    """L1 deviation of each frame's score list from the mean of its
    predecessors (or from the whole-sequence mean), divided by seq_len."""
    lists = [np.asarray(sl, dtype=np.float64) for sl in score_lists]
    if len(lists) < 2 or seq_len < 2:
        return 0.0
    total = 0.0
    if form == "running":
        for t in range(1, len(lists)):
            mean_prev = np.mean(lists[:t], axis=0)
            total += float(np.abs(lists[t] - mean_prev).sum())
    elif form == "global":
        mean_all = np.mean(lists, axis=0)
        for sl in lists:
            total += float(np.abs(sl - mean_all).sum())
    else:
        raise ValueError(f"unknown association form {form!r}")
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
