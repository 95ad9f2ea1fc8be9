"""Detection mAP and CLEAR-MOT tracking metrics.

mAP follows the all-points convention: detections are matched greedily by
score against unmatched same-class boxes at IoU >= 0.5 within each frame,
and AP integrates the precision envelope over recall. Classes without any
ground truth are excluded from the mean.

The MOT evaluator keeps the last known track-to-hypothesis correspondence
and reuses it while still gated, matching the remaining pairs greedily by
IoU per frame. MOTA = 1 - (FP + FN + IDS) / num_gt; MOTP is the mean IoU
of matched pairs; MT/ML count trajectories tracked for >= 80% / < 20% of
their lifetime. An id switch is counted whenever a track's match
contradicts its last known correspondence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .postproc import iou_matrix
from .postproc import iou  # noqa: F401 (a lookup site perfbench's tracer tests wrap)


def _ap_all_points(recalls, precisions):
    mrec = np.concatenate([[0.0], recalls, [1.0]])
    mpre = np.concatenate([[0.0], precisions, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]      # the envelope: max of the tail
    idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def _check_iou_threshold(value):
    if not 0 < value <= 1:
        raise ConfigError(f"IoU threshold must be in (0, 1], got {value}")


FRAME_BUDGET = 2**16        # entries of one batched iou_matrix call


def _overlap_batches(a, a_counts, b, b_counts):
    """The IoU of each frame's boxes in a against its boxes in b, many
    frames to one iou_matrix call. a and b hold corner boxes grouped by
    frame, a_counts and b_counts (lists) each frame's number of them.
    Yields (lo, hi, ov) for the consecutive frames lo..hi-1, where
    ov[j - lo, :a_counts[j], :b_counts[j]] is frame j's IoU matrix. A batch
    is zero-padded to its largest frame and holds at most FRAME_BUDGET
    entries, unless one frame alone holds more. A zero box overlaps no box
    (IoU 0), so no padded entry passes a gate above 0."""
    a_at = np.cumsum([0] + a_counts)
    b_at = np.cumsum([0] + b_counts)
    lo = 0
    while lo < len(a_counts):
        n, m, hi = a_counts[lo], b_counts[lo], lo + 1
        while hi < len(a_counts):
            n2, m2 = max(n, a_counts[hi]), max(m, b_counts[hi])
            if (hi + 1 - lo) * max(n2, 1) * max(m2, 1) > FRAME_BUDGET:
                break
            n, m, hi = n2, m2, hi + 1
        yield lo, hi, iou_matrix(_padded(a, a_counts, a_at, lo, hi, n),
                                 _padded(b, b_counts, b_at, lo, hi, m))
        lo = hi


def _padded(boxes, counts, at, lo, hi, width):
    """Frames lo..hi-1 of the grouped boxes as [hi - lo, width, 4], zero-padded."""
    sizes = counts[lo:hi]
    out = np.zeros((hi - lo, width, 4))
    frame = np.repeat(np.arange(hi - lo), sizes)
    slot = np.arange(len(frame)) - np.repeat(at[lo:hi] - at[lo], sizes)
    out[frame, slot] = boxes[at[lo]:at[hi]]
    return out


def voc_map(dets_by_frame, gts_by_frame, iou_thresh=0.5):
    """dets_by_frame: {frame: [Detection]}; gts_by_frame: {frame: (boxes, classes)}.

    Returns (per-class AP dict, mAP) over every class the ground truth
    carries. A detection is a true positive when its best-IoU ground-truth
    box of the same class and frame reaches iou_thresh and is not yet
    matched; each box is creditable once.
    """
    _check_iou_threshold(iou_thresh)
    gts_by_frame = {f: (np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                        np.asarray(classes, dtype=int).reshape(-1))
                    for f, (boxes, classes) in gts_by_frame.items()}
    # one IoU matrix per frame, each detection against every gt box of its
    # frame, many frames to an iou_matrix call; a class reads its block of it
    frames = [f for f in sorted(dets_by_frame) if dets_by_frame[f]]
    dets = [dets_by_frame[f] for f in frames]
    no_gt = np.empty((0, 4))
    gt_boxes = [gts_by_frame[f][0] if f in gts_by_frame else no_gt for f in frames]
    det_boxes = np.array([d.box for ds in dets for d in ds], dtype=np.float64).reshape(-1, 4)
    scored = []         # (frame, detections, their classes, their IoU rows)
    for lo, hi, ov in _overlap_batches(det_boxes, list(map(len, dets)),
                                       np.concatenate([no_gt, *gt_boxes]),
                                       list(map(len, gt_boxes))):
        for j in range(lo, hi):
            scored.append((frames[j], dets[j], np.array([d.class_id for d in dets[j]]),
                           ov[j - lo, :len(dets[j]), :len(gt_boxes[j])]))
    aps = {}
    for c in sorted({int(c) for _b, classes in gts_by_frame.values() for c in classes}):
        gt_cols = {f: classes == c for f, (_b, classes) in gts_by_frame.items()}
        gt_count = sum(int(cols.sum()) for cols in gt_cols.values())
        used = {f: np.zeros(int(cols.sum()), dtype=bool) for f, cols in gt_cols.items()}
        cand = []           # (-score, frame, index within the frame's class c, IoU row)
        for f, dets, det_classes, ious in scored:
            rows = np.nonzero(det_classes == c)[0]
            block = ious[rows][:, gt_cols[f]] if f in gt_cols else ious[rows]
            cand += [(-dets[r].score, f, i, row) for i, (r, row) in enumerate(zip(rows, block))]
        cand.sort(key=lambda r: r[:3])
        tp = np.zeros(len(cand))
        for rank, (_s, f, _i, row) in enumerate(cand):
            if row.size:
                best = row.argmax()
                if row[best] >= iou_thresh and not used[f][best]:
                    used[f][best] = True
                    tp[rank] = 1
        ctp = np.cumsum(tp)
        cfp = np.cumsum(1 - tp)
        recalls = ctp / gt_count
        precisions = ctp / np.maximum(ctp + cfp, 1e-12)
        aps[c] = _ap_all_points(recalls, precisions) if len(cand) else 0.0
    mean = float(np.mean(list(aps.values()))) if aps else 0.0
    return aps, mean


# ---------------------------------------------------------------------------
# CLEAR-MOT


@dataclass
class MotReport:
    """CLEAR-MOT counts of one sequence or a pool; the rates derive from them."""
    fp: int
    fn: int
    ids: int
    num_gt: int
    num_tracks: int
    mt_count: int             # trajectories mostly tracked
    ml_count: int             # trajectories mostly lost
    num_matches: int
    motp_sum: float

    @property
    def mota(self):
        return 1.0 - (self.fp + self.fn + self.ids) / self.num_gt if self.num_gt else 0.0

    @property
    def motp(self):
        return self.motp_sum / self.num_matches if self.num_matches else 0.0

    @property
    def mt(self):
        return self.mt_count / self.num_tracks if self.num_tracks else 0.0

    @property
    def ml(self):
        return self.ml_count / self.num_tracks if self.num_tracks else 0.0


def _by_frame(cols, frames):
    """cols' ids (a list) and corner boxes in frame order, file order kept
    within a frame (a stable sort), and the row count of each of the sorted
    frames (a list), which hold every row of cols."""
    order = np.argsort(cols.frame, kind="stable")
    at = np.searchsorted(cols.frame[order], frames, side="right")
    return cols.id[order].tolist(), cols.corners()[order], np.diff(at, prepend=0).tolist()


def _gated_pairs(ov, iou_gate):
    """For each frame of a batch of overlaps ov [frames, N, M], the (gt
    index, hyp index, IoU) triples whose IoU reaches iou_gate, in greedy
    order: by -IoU, then gt index, then hyp index. A padded entry is 0 and
    never gated."""
    k, g, h = np.nonzero(ov >= iou_gate)        # by frame, then g, then h
    v = ov[k, g, h]
    order = np.lexsort((-v, k))                 # stable: ties keep (g, h) order
    pairs = list(zip(g[order].tolist(), h[order].tolist(), v[order].tolist()))
    ends = np.searchsorted(k, np.arange(len(ov) + 1)).tolist()
    return [pairs[a:b] for a, b in zip(ends, ends[1:])]


def mot_metrics(result, gt, iou_gate=0.5):
    """CLEAR-MOT of one sequence; result and gt are tracker.MotColumns.

    Both are grouped by frame with one stable sort, and the overlaps of
    many frames come from one batched iou_matrix call (_overlap_batches).
    Persistence and greedy matching then run frame by frame, in order."""
    _check_iou_threshold(iou_gate)
    frames = np.union1d(gt.frame, result.frame)
    gt_ids, gt_boxes, gt_counts = _by_frame(gt, frames)
    hyp_ids, hyp_boxes, hyp_counts = _by_frame(result, frames)
    gt_at = np.cumsum([0] + gt_counts).tolist()
    hyp_at = np.cumsum([0] + hyp_counts).tolist()
    corr = {}                       # gt id -> last matched hypothesis id
    ids = 0
    motp_sum = 0.0
    matched = []                    # the gt id of every match
    for lo, _hi, ov in _overlap_batches(gt_boxes, gt_counts, hyp_boxes, hyp_counts):
        for j, gated in enumerate(_gated_pairs(ov, iou_gate), start=lo):
            if not gated:
                continue
            gids = gt_ids[gt_at[j]:gt_at[j + 1]]
            hids = hyp_ids[hyp_at[j]:hyp_at[j + 1]]
            hyp_by_id = {hid: h for h, hid in enumerate(hids)}
            overlap = {(g, h): v for g, h, v in gated}
            matches = []
            used_g, used_h = set(), set()
            # persistence: keep an existing correspondence while still gated
            for g, gid in enumerate(gids):
                h = hyp_by_id.get(corr.get(gid))
                v = overlap.get((g, h))
                if v is not None and h not in used_h:
                    matches.append((g, h, v))
                    used_g.add(g)
                    used_h.add(h)
            # remaining pairs matched greedily
            for g, h, v in gated:
                if g not in used_g and h not in used_h:
                    matches.append((g, h, v))
                    used_g.add(g)
                    used_h.add(h)
            for g, h, v in matches:
                gid = gids[g]
                hid = hids[h]
                if gid in corr and corr[gid] != hid:
                    ids += 1
                corr[gid] = hid
                motp_sum += v
                matched.append(gid)
    num_matches = len(matched)
    track_matched = Counter(matched)
    track_ids, track_total = np.unique(gt.id, return_counts=True)
    mt_count = ml_count = 0
    for gid, total in zip(track_ids.tolist(), track_total.tolist()):
        ratio = track_matched[gid] / total
        if ratio >= 0.8:
            mt_count += 1
        elif ratio < 0.2:
            ml_count += 1
    return MotReport(len(result.id) - num_matches, len(gt.id) - num_matches, ids,
                     len(gt.id), len(track_ids), mt_count, ml_count, num_matches, motp_sum)


def aggregate_reports(reports):
    """Pool per-video reports: counts add, rates recompute over the pool."""
    return MotReport(*(sum(getattr(r, f.name) for r in reports)
                       for f in fields(MotReport)))


MOT_COLUMNS = ("MOTA", "MOTP", "MT", "ML", "FP", "FN", "IDS")


def format_mot_table(named_reports):
    """Aligned text table, one row per (name, MotReport)."""
    header = ["Video"] + list(MOT_COLUMNS)
    rows = [header]
    for name, r in named_reports:
        rows.append([name, f"{r.mota * 100:.1f}", f"{r.motp * 100:.1f}",
                     f"{r.mt * 100:.1f}%", f"{r.ml * 100:.1f}%",
                     str(r.fp), str(r.fn), str(r.ids)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def mot_report_csv(named_reports):
    lines = ["video," + ",".join(c.lower() for c in MOT_COLUMNS)]
    for name, r in named_reports:
        lines.append(f"{name},{r.mota:.6f},{r.motp:.6f},{r.mt:.6f},"
                     f"{r.ml:.6f},{r.fp},{r.fn},{r.ids}")
    return "\n".join(lines) + "\n"
