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

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .postproc import iou_matrix
from .postproc import iou  # noqa: F401 (a lookup site perfbench's tracer tests wrap)


def _ap_all_points(recalls, precisions):
    mrec = np.concatenate([[0.0], recalls, [1.0]])
    mpre = np.concatenate([[0.0], precisions, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    idx = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def _check_iou_threshold(value):
    if not 0 < value <= 1:
        raise ConfigError(f"IoU threshold must be in (0, 1], got {value}")


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
    # frame; a class reads its block of it
    scored = []         # (frame, detections, their classes, their IoU rows)
    for f in sorted(dets_by_frame):
        dets = dets_by_frame[f]
        if dets:
            boxes = gts_by_frame[f][0] if f in gts_by_frame else np.empty((0, 4))
            scored.append((f, dets, np.array([d.class_id for d in dets]),
                           iou_matrix([d.box for d in dets], boxes)))
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

    def row(self):
        return {"MOTA": self.mota, "MOTP": self.motp, "MT": self.mt, "ML": self.ml,
                "FP": self.fp, "FN": self.fn, "IDS": self.ids}


def _rows_by_frame(rows):
    frames = {}
    for r in rows:
        frame, tid, left, top, w, h = int(r[0]), int(r[1]), r[2], r[3], r[4], r[5]
        frames.setdefault(frame, []).append(
            (tid, np.array([left, top, left + w, top + h], dtype=np.float64)))
    return frames


def mot_metrics(result_rows, gt_rows, iou_gate=0.5):
    """CLEAR-MOT over one sequence of MOT-format rows."""
    _check_iou_threshold(iou_gate)
    gt_frames = _rows_by_frame(gt_rows)
    hyp_frames = _rows_by_frame(result_rows)
    corr = {}                       # gt id -> last matched hypothesis id
    fp = fn = ids = 0
    num_gt = sum(len(v) for v in gt_frames.values())
    motp_sum = 0.0
    num_matches = 0
    track_total = {}
    track_matched = {}
    for frame in sorted(set(gt_frames) | set(hyp_frames)):
        gts = gt_frames.get(frame, [])
        hyps = hyp_frames.get(frame, [])
        for gid, _ in gts:
            track_total[gid] = track_total.get(gid, 0) + 1
        ov = iou_matrix([b for _g, b in gts], [b for _h, b in hyps])
        gated = ov >= iou_gate
        hyp_by_id = {hid: i for i, (hid, _b) in enumerate(hyps)}
        matches = []
        # persistence: keep an existing correspondence while still gated
        for gi, (gid, _b) in enumerate(gts):
            hi = hyp_by_id.get(corr.get(gid))
            if hi is not None and gated[gi, hi]:
                matches.append((gi, hi))
                gated[gi, :] = False
                gated[:, hi] = False
        # remaining pairs matched greedily by (-IoU, gt index, hyp index)
        rows, cols = np.nonzero(gated)
        for k in np.argsort(-ov[rows, cols], kind="stable"):
            g, h = rows[k], cols[k]
            if gated[g, h]:
                matches.append((g, h))
                gated[g, :] = False
                gated[:, h] = False
        for g, h in matches:
            gid = gts[g][0]
            hid = hyps[h][0]
            if gid in corr and corr[gid] != hid:
                ids += 1
            corr[gid] = hid
            motp_sum += float(ov[g, h])
            num_matches += 1
            track_matched[gid] = track_matched.get(gid, 0) + 1
        fp += len(hyps) - len(matches)
        fn += len(gts) - len(matches)
    num_tracks = len(track_total)
    mt_count = ml_count = 0
    for gid, total in track_total.items():
        ratio = track_matched.get(gid, 0) / total
        if ratio >= 0.8:
            mt_count += 1
        elif ratio < 0.2:
            ml_count += 1
    return MotReport(fp, fn, ids, num_gt, num_tracks, mt_count, ml_count,
                     num_matches, motp_sum)


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
        d = r.row()
        rows.append([name, f"{d['MOTA'] * 100:.1f}", f"{d['MOTP'] * 100:.1f}",
                     f"{d['MT'] * 100:.1f}%", f"{d['ML'] * 100:.1f}%",
                     str(d["FP"]), str(d["FN"]), str(d["IDS"])])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def mot_report_csv(named_reports):
    lines = ["video," + ",".join(c.lower() for c in MOT_COLUMNS)]
    for name, r in named_reports:
        d = r.row()
        lines.append(f"{name},{d['MOTA']:.6f},{d['MOTP']:.6f},{d['MT']:.6f},"
                     f"{d['ML']:.6f},{d['FP']},{d['FN']},{d['IDS']}")
    return "\n".join(lines) + "\n"
