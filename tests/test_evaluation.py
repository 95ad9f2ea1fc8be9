import itertools

import numpy as np
import pytest

from seqdet import evaluation as EV
from seqdet.postproc import Detection

from refimpl import naive_iou, naive_voc_map


def det(score, box, cls=1):
    return Detection(cls, score, np.asarray(box, dtype=np.float64))


# ---------------------------------------------------------------------------
# mAP


def test_single_gt_single_overlapping_det_ap_one():
    dets = {1: [det(0.9, [0.1, 0.1, 0.5, 0.52])]}
    gts = {1: (np.array([[0.1, 0.1, 0.5, 0.5]]), [1])}
    aps, mean = EV.voc_map(dets, gts, num_classes=4)
    assert aps[1] == pytest.approx(1.0)
    assert mean == pytest.approx(1.0)


def test_no_detections_ap_zero():
    gts = {1: (np.array([[0.1, 0.1, 0.5, 0.5]]), [1])}
    aps, mean = EV.voc_map({}, gts, num_classes=4)
    assert aps[1] == 0.0
    assert mean == 0.0


def test_interleaved_tp_fp_hand_pr_area():
    # scores: TP 0.9, FP 0.8, TP 0.7 over two boxes -> AP = 5/6
    gts = {1: (np.array([[0.0, 0.0, 0.2, 0.2], [0.5, 0.5, 0.7, 0.7]]), [1, 1])}
    dets = {1: [det(0.9, [0.0, 0.0, 0.2, 0.2]),
                det(0.8, [0.8, 0.8, 0.9, 0.9]),
                det(0.7, [0.5, 0.5, 0.7, 0.7])]}
    aps, _ = EV.voc_map(dets, gts, num_classes=1)
    assert aps[1] == pytest.approx(5 / 6, rel=1e-12)


def test_each_gt_credited_once():
    gts = {1: (np.array([[0.0, 0.0, 0.4, 0.4]]), [1])}
    dets = {1: [det(0.9, [0.0, 0.0, 0.4, 0.4]), det(0.8, [0.01, 0.0, 0.41, 0.4])]}
    aps, _ = EV.voc_map(dets, gts, num_classes=1)
    # second det is a duplicate -> FP; precision envelope gives AP = 1
    assert aps[1] == pytest.approx(1.0)


def test_class_without_gt_excluded_from_mean():
    gts = {1: (np.array([[0.0, 0.0, 0.4, 0.4]]), [2])}
    dets = {1: [det(0.9, [0.0, 0.0, 0.4, 0.4], cls=2), det(0.5, [0.5, 0.5, 0.9, 0.9])]}
    aps, mean = EV.voc_map(dets, gts, num_classes=4)
    assert set(aps) == {2}
    assert mean == pytest.approx(1.0)


def _random_map_case(rng, num_classes=3):
    """Frames with 0-3 gt boxes (some frames absent from the gt), detections
    that copy or jitter a gt box of any class or land anywhere, and scores
    from a three-value set so that ties are common. Copies of one gt box
    make a best box that an earlier candidate already claimed."""
    gts, dets = {}, {}
    pool = []
    for f in range(1, int(rng.integers(1, 6)) + 1):
        n = int(rng.integers(0, 4))
        xy = rng.random((n, 2)) * 0.7
        boxes = np.hstack([xy, xy + rng.uniform(0.05, 0.3, (n, 2))])
        classes = rng.integers(1, num_classes + 1, n)
        if rng.random() < 0.8:
            gts[f] = (boxes, classes)
        pool += [(f, b, int(c)) for b, c in zip(boxes, classes)]
    frames = range(1, max([*gts, 1]) + 2)
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.random()
        if pool and kind < 0.7:
            f, box, cls = pool[int(rng.integers(len(pool)))]
            if kind < 0.25:
                box = box.copy()
            else:
                box = box + rng.normal(0, 0.03, 4)
            if rng.random() < 0.2:
                cls = int(rng.integers(1, num_classes + 1))
        else:
            f = int(rng.choice(frames))
            xy = rng.random(2) * 0.7
            box = np.concatenate([xy, xy + rng.uniform(0.05, 0.3, 2)])
            cls = int(rng.integers(1, num_classes + 1))
        dets.setdefault(f, []).append(det(float(rng.choice([0.3, 0.6, 0.9])), box, cls))
    return dets, gts


def test_voc_map_matches_per_candidate_oracle():
    rng = np.random.default_rng(12)
    for case in range(300):
        dets, gts = _random_map_case(rng)
        thresh = float(rng.choice([0.1, 0.5, 0.75, 1.0]))
        aps, mean = EV.voc_map(dets, gts, iou_thresh=thresh, num_classes=3)
        want_aps, want_mean = naive_voc_map(dets, gts, iou_thresh=thresh, num_classes=3)
        assert aps.keys() == want_aps.keys(), case
        for c in aps:
            assert aps[c] == pytest.approx(want_aps[c], rel=1e-12, abs=1e-15), (case, c)
        assert mean == pytest.approx(want_mean, rel=1e-12, abs=1e-15), case


# ---------------------------------------------------------------------------
# MOT fixtures


def gt_track(tid, frames, box):
    return [(f, tid, *box) for f in frames]


def test_perfect_tracking_fixture():
    gt = gt_track(1, range(1, 21), (10, 10, 20, 20)) \
        + gt_track(2, range(1, 21), (50, 50, 20, 20))
    rep = EV.mot_metrics(gt, gt)
    assert rep.mota == pytest.approx(1.0)
    assert rep.ids == 0 and rep.fp == 0 and rep.fn == 0
    assert rep.mt == pytest.approx(1.0)
    assert rep.motp == pytest.approx(1.0)


def test_hand_built_counts_fixture_mota_065():
    gt = gt_track(1, range(1, 101), (10, 10, 20, 20))
    hyp = []
    seg = 0
    for f in range(1, 81):
        if f in (17, 33, 49, 65, 78):
            seg += 1
        hyp.append((f, 1 + seg, 10, 10, 20, 20))
    hyp += gt_track(99, range(1, 11), (60, 60, 10, 10))    # spurious, far away
    rep = EV.mot_metrics(hyp, gt)
    assert (rep.fp, rep.fn, rep.ids, rep.num_gt) == (10, 20, 5, 100)
    assert rep.mota == pytest.approx(0.65)


def test_single_id_switch_fixture():
    gt = gt_track(1, range(1, 21), (10, 10, 20, 20))
    hyp = gt_track(1, range(1, 11), (10, 10, 20, 20)) \
        + gt_track(2, range(11, 21), (10, 10, 20, 20))
    rep = EV.mot_metrics(hyp, gt)
    assert rep.ids == 1
    assert rep.mota == pytest.approx(1.0 - 1 / 20)


def test_mostly_tracked_and_lost_thresholds():
    gt = gt_track(1, range(1, 11), (10, 10, 20, 20)) \
        + gt_track(2, range(1, 11), (50, 50, 20, 20)) \
        + gt_track(3, range(1, 11), (5, 60, 20, 20))
    hyp = gt_track(1, range(1, 9), (10, 10, 20, 20))       # 80% -> MT
    hyp += gt_track(2, range(1, 2), (50, 50, 20, 20))      # 10% -> ML
    hyp += gt_track(3, range(1, 6), (5, 60, 20, 20))       # 50% -> neither
    rep = EV.mot_metrics(hyp, gt)
    assert rep.mt_count == 1 and rep.ml_count == 1 and rep.num_tracks == 3
    assert rep.mt == pytest.approx(1 / 3)
    assert rep.ml == pytest.approx(1 / 3)


def test_persistence_prefers_previous_match():
    # two gated hypotheses; the one matched before should be kept
    gt = [(1, 1, 10, 10, 20, 20), (2, 1, 10, 10, 20, 20)]
    hyp = [(1, 7, 10, 10, 20, 20),
           (2, 7, 12, 10, 20, 20), (2, 8, 10, 10, 20, 20)]
    rep = EV.mot_metrics(hyp, gt)
    # hyp 8 overlaps better in frame 2, but 7 still gates -> keep 7, no switch
    assert rep.ids == 0
    assert rep.fp == 1


def test_spurious_hypothesis_increases_fp_never_mota():
    rng = np.random.default_rng(0)
    gt = gt_track(1, range(1, 11), (10, 10, 20, 20))
    hyp = gt_track(1, range(1, 11), (10, 10, 20, 20))
    base = EV.mot_metrics(hyp, gt)
    for _ in range(10):
        f = int(rng.integers(1, 11))
        extra = (f, 50, 60 + rng.random() * 20, 60 + rng.random() * 20, 8, 8)
        worse = EV.mot_metrics(hyp + [extra], gt)
        assert worse.fp == base.fp + 1
        assert worse.mota < base.mota


def test_metrics_invariant_to_id_relabeling():
    rng = np.random.default_rng(1)
    gt, hyp = _random_tracks(rng, n_tracks=3, frames=15)
    base = EV.mot_metrics(hyp, gt)
    remap = {tid: tid + 100 for tid in set(r[1] for r in hyp)}
    relabeled = [(f, remap[tid], *rest) for f, tid, *rest in hyp]
    rep = EV.mot_metrics(relabeled, gt)
    assert rep.motp == pytest.approx(base.motp)
    assert rep.mota == pytest.approx(base.mota)
    assert (rep.fp, rep.fn, rep.ids) == (base.fp, base.fn, base.ids)


def test_negative_mota_possible():
    gt = gt_track(1, range(1, 6), (10, 10, 20, 20))
    hyp = []
    for tid in range(2, 12):
        hyp += gt_track(tid, range(1, 6), (60, 60, 10, 10))
    rep = EV.mot_metrics(hyp, gt)
    assert rep.mota < 0


# ---------------------------------------------------------------------------
# exhaustive frame-matching reference


def _random_tracks(rng, n_tracks=4, frames=12, canvas=96.0):
    gt, hyp = [], []
    for tid in range(1, n_tracks + 1):
        x = rng.uniform(5, 60)
        y = rng.uniform(5, 60)
        vx, vy = rng.uniform(-2, 2, 2)
        hid = tid
        for f in range(1, frames + 1):
            x = min(max(x + vx, 0), canvas - 25)
            y = min(max(y + vy, 0), canvas - 25)
            gt.append((f, tid, x, y, 20 + rng.random(), 20 + rng.random()))
            if rng.random() < 0.85:     # dropout -> FNs
                jx, jy = rng.uniform(-4, 4, 2)
                if rng.random() < 0.07:
                    hid = 100 * tid + f     # id churn -> switches
                hyp.append((f, hid, x + jx, y + jy, 20 + rng.random(), 20 + rng.random()))
            if rng.random() < 0.08:     # clutter -> FPs
                hyp.append((f, 999 + f, rng.uniform(0, 70), rng.uniform(0, 70), 10, 10))
    return gt, hyp


def exhaustive_clearmot(result_rows, gt_rows, iou_gate=0.5):
    """Re-derivation that enumerates every injective gated matching per
    frame and takes the lexicographically best sorted-IoU vector, after
    forcing still-gated previous correspondences (IoUs assumed distinct)."""
    def by_frame(rows):
        out = {}
        for r in rows:
            out.setdefault(int(r[0]), []).append(
                (int(r[1]), np.array([r[2], r[3], r[2] + r[4], r[3] + r[5]])))
        return out

    gtf, hyf = by_frame(gt_rows), by_frame(result_rows)
    corr = {}
    fp = fn = ids = 0
    motp_sum = 0.0
    nm = 0
    num_gt = sum(len(v) for v in gtf.values())
    for f in sorted(set(gtf) | set(hyf)):
        gts = gtf.get(f, [])
        hyps = hyf.get(f, [])
        forced = []
        g_left = list(range(len(gts)))
        h_left = list(range(len(hyps)))
        for gi in list(g_left):
            gid = gts[gi][0]
            want = corr.get(gid)
            for hi in h_left:
                if hyps[hi][0] == want and naive_iou(gts[gi][1], hyps[hi][1]) >= iou_gate:
                    forced.append((gi, hi))
                    g_left.remove(gi)
                    h_left.remove(hi)
                    break
        best = None
        for k in range(min(len(g_left), len(h_left)), -1, -1):
            for gsub in itertools.combinations(g_left, k):
                for hperm in itertools.permutations(h_left, k):
                    vs = [naive_iou(gts[gi][1], hyps[hi][1])
                          for gi, hi in zip(gsub, hperm)]
                    if any(v < iou_gate for v in vs):
                        continue
                    key = sorted(vs, reverse=True)
                    cand = (key, list(zip(gsub, hperm)))
                    if best is None or _lex_better(cand[0], best[0]):
                        best = cand
        chosen = forced + (best[1] if best else [])
        for gi, hi in chosen:
            gid, hid = gts[gi][0], hyps[hi][0]
            if gid in corr and corr[gid] != hid:
                ids += 1
            corr[gid] = hid
            motp_sum += naive_iou(gts[gi][1], hyps[hi][1])
            nm += 1
        fp += len(hyps) - len(chosen)
        fn += len(gts) - len(chosen)
    mota = 1 - (fp + fn + ids) / num_gt if num_gt else 0.0
    return mota, fp, fn, ids, (motp_sum / nm if nm else 0.0)


def _lex_better(a, b):
    # longer-with-bigger-entries wins: compare entrywise, missing = -inf
    for x, y in itertools.zip_longest(a, b, fillvalue=-1.0):
        if x != y:
            return x > y
    return False


def test_matches_exhaustive_reference_on_small_cases():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        gt, hyp = _random_tracks(rng, n_tracks=int(rng.integers(2, 6)),
                                 frames=int(rng.integers(5, 21)))
        rep = EV.mot_metrics(hyp, gt)
        mota, fp, fn, ids, motp = exhaustive_clearmot(hyp, gt)
        assert (rep.fp, rep.fn, rep.ids) == (fp, fn, ids), seed
        assert rep.mota == pytest.approx(mota)
        assert rep.motp == pytest.approx(motp)


# ---------------------------------------------------------------------------
# aggregation and report formats


def test_aggregate_pools_counts():
    gt1 = gt_track(1, range(1, 11), (10, 10, 20, 20))
    hyp1 = gt_track(1, range(1, 9), (10, 10, 20, 20))
    gt2 = gt_track(1, range(1, 21), (30, 30, 20, 20))
    hyp2 = gt_track(4, range(1, 21), (30, 30, 20, 20))
    r1 = EV.mot_metrics(hyp1, gt1)
    r2 = EV.mot_metrics(hyp2, gt2)
    agg = EV.aggregate_reports([r1, r2])
    assert agg.num_gt == 30
    assert agg.fn == r1.fn + r2.fn
    assert agg.mota == pytest.approx(1 - (agg.fp + agg.fn + agg.ids) / 30)
    assert agg.num_tracks == 2


def test_report_table_and_csv_shapes():
    gt = gt_track(1, range(1, 11), (10, 10, 20, 20))
    rep = EV.mot_metrics(gt, gt)
    text = EV.format_mot_table([("video_a", rep), ("ALL", rep)])
    lines = text.strip().splitlines()
    assert lines[0].split()[:4] == ["Video", "MOTA", "MOTP", "MT"]
    assert len(lines) == 3
    csv_text = EV.mot_report_csv([("video_a", rep)])
    assert csv_text.splitlines()[0] == "video,mota,motp,mt,ml,fp,fn,ids"
    assert csv_text.splitlines()[1].startswith("video_a,1.000000")
