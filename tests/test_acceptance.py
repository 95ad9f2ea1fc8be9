"""Acceptance suite: every release criterion, one test per criterion,
each printing a PASS line (run with -s or -rA to see them inline)."""

import csv
import math
import time
import zlib
from dataclasses import replace
from filecmp import cmp

import numpy as np
import pytest

from seqdet import cli
from seqdet import evaluation as EV
from seqdet import loss as LS
from seqdet import net
from seqdet import postproc as pp
from seqdet import tensor as T
from seqdet import tracker as TK
from seqdet import train as TR
from seqdet.synth import crossing_pair, gen_sequence, oracle_detections, random_scene

from refimpl import concat, mul, naive_nms, tanh
from test_tensor import OPS, _max_rel_err
from test_tracker import ota_reference, tub


def report(tag, detail=""):
    print(f"[acceptance] {tag}: PASS {detail}")


def copy_detection(d):
    """d with its own box and av arrays."""
    return replace(d, box=d.box.copy(), av=None if d.av is None else d.av.copy())


# ---------------------------------------------------------------------------


def test_c01_gradient_suite_all_ops_and_unrolled_recurrence():
    t0 = time.time()
    for name, case in OPS:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x0, build = case(rng)
        leaf = T.Tensor(x0.copy(), name="leaf", requires_grad=True)
        ga = T.backward(build(leaf))["leaf"]

        def f(arr, _b=build):
            return _b(T.Tensor(arr.copy(), name="leaf", requires_grad=True)).item()

        gn = T.finite_diff(f, x0)
        assert _max_rel_err(ga, gn) < 1e-4, name

    case = TR.build_aclstm_case(frames=3)
    n_params = sum(p.data.size for p in case.params.values())
    assert n_params <= 5000
    rows = TR.grad_check(case)
    worst = max(r.max_rel_err for r in rows)
    assert worst < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 300
    report("C1 gradient suite",
           f"(worst rel err {worst:.2e} over {len(OPS)} ops + "
           f"{n_params}-param 3-frame recurrence, {elapsed:.0f}s)")


def test_c02_zero_weight_recurrent_step_closed_form():
    rng = np.random.default_rng(0)
    c, sz = 8, 6
    z = lambda shape: T.constant(np.zeros(shape))
    w = net.ACLSTMWeights(
        att1=z((c // 2, 2 * c, 3, 3)), att2=z((c // 4, c // 2, 3, 3)),
        att3=z((1, c // 4, 3, 3)), gates=z((4 * c, 2 * c, 3, 3)), gates_bias=z(4 * c))
    x = T.constant(rng.standard_normal((c, sz, sz)))
    h_prev = T.constant(np.zeros((c, sz, sz)))
    s_prev = T.constant(rng.standard_normal((c, sz, sz)))
    h, s, a = net.attention_convlstm_step(x, h_prev, s_prev, w)
    assert np.array_equal(a.data, np.full((1, sz, sz), 0.5))
    assert np.array_equal(s.data, 0.5 * s_prev.data)
    assert np.array_equal(h.data, 0.5 * np.tanh(0.5 * s_prev.data))
    report("C2 zero-weight closed form", "(a=0.5, s=0.5*s_prev, bitwise)")


def test_c03_attention_toggle_reproduces_plain_convlstm_bitwise():
    rng = np.random.default_rng(1)
    params = net.init_params(5, net.ModelConfig())
    for name in params:
        if ".att" in name:
            params[name].data[...] = np.nan   # must never be touched
    pyramid = [T.constant(rng.random((net.unit_channels(l), s, s)))
               for l, s in enumerate(net.TOY_SIZES)]
    cfg = net.ModelConfig(attention_enabled=False)
    state = net.zero_state()
    for _frame in range(3):
        hidden, state, att = net.temporal_pyramid_forward(pyramid, state, params, cfg)
        for a in att:
            assert np.all(a.data == 1.0)
    # independent plain-ConvLSTM unroll over the same gate primitive
    for lvl in (0, 3):
        cu = net.unit_channels(lvl)
        w = net.ACLSTMWeights.from_params(params, net.unit_of_level(lvl))
        h = T.constant(np.zeros((cu,) + pyramid[lvl].data.shape[1:]))
        s = T.constant(np.zeros_like(h.data))
        for _frame in range(3):
            gate_in = concat([pyramid[lvl], h])
            fused = T.conv2d(gate_in, w.gates, w.gates_bias)
            i = T.sigmoid(T.slice_channels(fused, 0, cu))
            f = T.sigmoid(T.slice_channels(fused, cu, 2 * cu))
            o = T.sigmoid(T.slice_channels(fused, 2 * cu, 3 * cu))
            cc = tanh(T.slice_channels(fused, 3 * cu, 4 * cu))
            s = T.add(mul(f, s), mul(i, cc))
            h = mul(o, tanh(s))
        assert np.array_equal(h.data, state[lvl][0].data)
        assert np.array_equal(s.data, state[lvl][1].data)
    report("C3 attention-off equals plain ConvLSTM", "(bitwise, 3 frames unrolled)")


def test_c04_nms_matches_brute_force_on_1000_cases():
    rng = np.random.default_rng(2)
    for case in range(1000):
        n = int(rng.integers(0, 51))
        dets = []
        for _ in range(n):
            x1, y1 = rng.random(2) * 0.6
            w, h = rng.random(2) * 0.4 + 0.01
            dets.append(pp.Detection(1, float(rng.random()),
                                     np.array([x1, y1, x1 + w, y1 + h])))
        thresh = float(rng.choice([0.3, 0.45, 0.5, 0.6]))
        top = int(rng.choice([3, 10, 50, 200]))
        kept = pp.nms(dets, thresh, top)
        ref = naive_nms([d.box for d in dets], [d.score for d in dets], thresh, top)
        assert [id(d) for d in kept] == [id(dets[i]) for i in ref], case
    report("C4 NMS brute-force oracle", "(1000 random cases up to 50 boxes)")


def test_c05_tracker_update_matches_exhaustive_reference_500_cases():
    rng = np.random.default_rng(3)
    for case in range(500):
        params = TK.TrackerParams(
            match_threshold=float(rng.uniform(0.5, 1.5)),
            generation_score=float(rng.uniform(0.15, 0.5)),
            tub_len_max=int(rng.integers(1, 6)),
            max_miss=int(rng.integers(0, 5)),
            similarity=str(rng.choice(["attention_iou", "iou_only"])))
        frame_idx = int(rng.integers(2, 15))
        tubs = []
        for ti in range(int(rng.integers(0, 7))):
            members = [pp.Detection(1, 0.9, np.sort(rng.random(4)),
                                    av=rng.random(147) + 0.01)
                       for _ in range(int(rng.integers(1, 4)))]
            tubs.append(tub(ti, members,
                            int(rng.integers(max(1, frame_idx - 6), frame_idx))))
        dets = [pp.Detection(1, float(rng.uniform(0.1, 1.0)), np.sort(rng.random(4)),
                             av=rng.random(147) + 0.01)
                for _ in range(int(rng.integers(0, 7)))]
        ref_ids, ref_tubs, _ = ota_reference(dets, tubs, params, frame_idx, 50)
        state = TK.TrackState(tubs={1: [tub(t.id, t.objs, t.last_seen)
                                        for t in tubs]} if tubs else {}, next_id=50)
        TK.update_tracks(list(dets), state, params, frame_idx)
        assert [d.id for d in dets] == ref_ids, case
        got = {t.id: (len(t.objs), t.last_seen) for t in state.tubs.get(1, [])}
        want = {tid: (len(m), seen) for tid, (m, seen) in ref_tubs.items()}
        assert got == want, case

    # id uniqueness per frame and class on generated tracking runs
    for seed in range(6):
        seq = gen_sequence(crossing_pair(seed) if seed % 2
                           else random_scene(seed, num_objects=3, length=20))
        frames = [(fidx, [copy_detection(d) for d in dets])
                  for fidx, dets in oracle_detections(seq)]
        for _fidx, out in TK.track_frames(frames):
            for cls in set(d.class_id for d in out):
                ids = [d.id for d in out if d.class_id == cls and d.id >= 0]
                assert len(ids) == len(set(ids))
    report("C5 tracker exhaustive oracle", "(500 cases + id uniqueness on runs)")


def _mot_rows_from_gt(seq):
    rows = []
    for f, boxes in enumerate(seq.gt, start=1):
        for b in boxes:
            l, t, w, h = b.box_px
            rows.append((f, b.obj_id + 1, l, t, w, h, 1))
    return rows


def _track_to_rows(seq, params):
    frames = [(f, [copy_detection(d) for d in ds]) for f, ds in oracle_detections(seq)]
    rows = []
    for f, dets in TK.track_frames(frames, params):
        for d in dets:
            if d.id >= 0:
                x1, y1, x2, y2 = d.box * 96
                rows.append((f, d.id + 1, x1, y1, x2 - x1, y2 - y1, d.score))
    return rows


def test_c06_crossing_pair_identity_switches_drop_with_appearance():
    seeds = list(range(20, 44))
    sequences = {s: gen_sequence(crossing_pair(s)) for s in seeds}
    # re-tune the IoU-only threshold with the same sweep machinery
    grid = [0.6, 0.8, 1.0, 1.2, 1.4, 1.7, 2.0]
    agg = {}
    for t_val in grid:
        params = TK.TrackerParams(match_threshold=t_val, similarity="iou_only")
        agg[t_val] = sum(
            EV.mot_metrics(_track_to_rows(seq, params), _mot_rows_from_gt(seq)).ids
            for seq in sequences.values())
    best_t = min(grid, key=lambda v: agg[v])
    wins = 0
    total_att = total_iou = 0
    for s, seq in sequences.items():
        ids_att = EV.mot_metrics(_track_to_rows(seq, TK.TrackerParams()),
                                 _mot_rows_from_gt(seq)).ids
        ids_iou = EV.mot_metrics(
            _track_to_rows(seq, TK.TrackerParams(match_threshold=best_t,
                                                 similarity="iou_only")),
            _mot_rows_from_gt(seq)).ids
        total_att += ids_att
        total_iou += ids_iou
        wins += ids_att < ids_iou
    assert len(seeds) >= 20
    assert wins >= 0.8 * len(seeds)
    assert total_att < total_iou
    report("C6 appearance vs IoU-only switches",
           f"(IDS {total_att} vs {total_iou} at tuned T={best_t}, "
           f"wins {wins}/{len(seeds)})")


@pytest.mark.slow
def test_c07_staged_training_improves_ordering(trained_pipeline):
    maps = trained_pipeline["maps"]
    assert trained_pipeline["train_seconds"] < 1800
    assert maps["stage3"] >= maps["stage2"] >= maps["convlstm"] >= maps["static"]
    assert maps["stage3"] > maps["static"]
    # stage-2 loss trend: first five epochs vs last five
    rows = list(csv.DictReader(
        open(trained_pipeline["runs"]["stage2"]["loss_csv"])))
    by_epoch = {}
    for r in rows:
        by_epoch.setdefault(int(r["epoch"]), []).append(float(r["L_total"]))
    means = [float(np.mean(v)) for _e, v in sorted(by_epoch.items())]
    assert np.mean(means[:5]) > np.mean(means[-5:])
    report("C7 staged-training ordering",
           "(mAP " + " >= ".join(f"{k}={maps[k]:.3f}"
                                 for k in ("stage3", "stage2", "convlstm", "static"))
           + f", trained in {trained_pipeline['train_seconds']:.0f}s)")


@pytest.mark.slow
def test_c08_theta_sweep_produces_wellformed_csv(trained_pipeline, tmp_path):
    root = trained_pipeline["root"]
    s2 = trained_pipeline["runs"]["stage2"]["checkpoint"]
    out = tmp_path / "theta_sweep.csv"
    code = cli.main(["sweep", "--param", "theta", "--values", "0.01,0.1,0.3,0.5",
                     "--data", str(root / "train"), "--val-data", str(root / "val"),
                     "--init", str(s2), "--epochs", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,final_total_loss,mAP"
    assert len(lines) == 5
    got_default = False
    for line in lines[1:]:
        theta, total, mean_ap = line.split(",")
        assert math.isfinite(float(total)) and math.isfinite(float(mean_ap))
        if float(theta) == 0.1:
            got_default = True
    assert got_default
    report("C8 theta sweep", f"(4 rows, finite losses, {out.name})")


def test_c09_mot_metric_fixtures():
    track = [(f, 1, 10, 10, 20, 20, 1) for f in range(1, 21)]
    rep = EV.mot_metrics(track, track)
    assert rep.mota == 1.0 and rep.ids == 0 and rep.mt == 1.0

    gt = [(f, 1, 10, 10, 20, 20, 1) for f in range(1, 101)]
    hyp = []
    seg = 0
    for f in range(1, 81):
        if f in (17, 33, 49, 65, 78):
            seg += 1
        hyp.append((f, 1 + seg, 10, 10, 20, 20, 1))
    hyp += [(f, 99, 60, 60, 10, 10, 1) for f in range(1, 11)]
    rep = EV.mot_metrics(hyp, gt)
    assert (rep.fp, rep.fn, rep.ids) == (10, 20, 5)
    assert rep.mota == pytest.approx(0.65)

    gt = [(f, 1, 10, 10, 20, 20, 1) for f in range(1, 21)]
    hyp = [(f, 1, 10, 10, 20, 20, 1) for f in range(1, 11)] \
        + [(f, 2, 10, 10, 20, 20, 1) for f in range(11, 21)]
    assert EV.mot_metrics(hyp, gt).ids == 1
    report("C9 MOT fixtures", "(perfect=1.0, hand counts=0.65, one switch)")


def test_c10_rss_property_sweep_10k():
    rng = np.random.default_rng(4)
    default_seq_len = TR.TrainConfig().seq_len
    assert default_seq_len == 8
    grid = [(8, 8), (16, 8), (31, 8), (64, 8), (64, 16), (9, 3), (100, 7)]
    draws = 0
    while draws < 10_000:
        for v, seq_len in grid:
            s = TR.random_skip_sample(v, seq_len, rng)
            assert 1 <= s.step <= v // seq_len
            assert 1 <= s.start <= v - seq_len * s.step + 1
            assert all(1 <= i <= v for i in s)
            diffs = {b - a for a, b in zip(s, s[1:])}
            assert diffs == {s.step}
            draws += 1
    report("C10 skip-sampling sweep", f"({draws} draws over {len(grid)} grid points)")


def test_c11_default_parameters_verbatim():
    w = LS.LossWeights()
    assert w.alpha == 1.0
    assert w.beta == 1.0
    assert w.gamma == 0.5
    assert w.xi == 2.0
    cfg = TR.TrainConfig()
    assert cfg.theta == 0.1
    assert cfg.k == 75
    assert cfg.seq_len == 8
    assert LS.NEG_POS_RATIO == 3
    assert TR.STAGE_LR[2] == 1e-4 and TR.STAGE_LR[3] == 1e-5
    assert TR.LR_DECAY == 0.1 and TR.DECAY_EPOCH == 30
    assert TR.LOSS_WEIGHTS == w
    assert TR.STAGE_EPOCHS[2] == 40 and TR.STAGE_EPOCHS[3] == 10
    tp = TK.TrackerParams()
    assert tp.match_threshold == 1.0
    assert tp.generation_score == 0.3
    assert tp.tub_len_max == 10
    assert pp.PROFILES["vid"].nms_iou == 0.45
    assert pp.PROFILES["vid"].keep_top == 200
    assert pp.PROFILES["mot"].nms_iou == 0.3
    assert pp.PROFILES["mot"].keep_top == 400
    assert LS.MATCH_IOU == 0.5
    assert TR.RMS_RHO == 0.9 and TR.RMS_EPS == 1e-8
    assert T.BCE_EPS == 1e-7
    assert cli.MAP_CONF == 0.02
    assert cli.GRAD_TOL == 1e-4
    report("C11 defaults",
           "(alpha=1 beta=1 gamma=0.5 xi=2 theta=0.1 k=75 T=1.0 G=0.3 "
           "tub_len=10 nms=0.45/0.3 top=200/400 seq_len=8 match_iou=0.5 "
           "rmsprop=0.9/1e-8 bce_eps=1e-7 map_conf=0.02 grad_tol=1e-4)")


# value-named default assertions, one knob each
def test_default_loss_weight_alpha_is_1():
    assert LS.LossWeights().alpha == 1.0


def test_default_loss_weight_beta_is_1():
    assert LS.LossWeights().beta == 1.0


def test_default_loss_weight_gamma_is_0p5():
    assert LS.LossWeights().gamma == 0.5


def test_default_loss_weight_xi_is_2():
    assert LS.LossWeights().xi == 2.0


def test_default_score_list_theta_is_0p1():
    assert TR.TrainConfig().theta == 0.1


def test_default_score_list_k_is_75():
    assert TR.TrainConfig().k == 75


def test_default_match_threshold_is_1p0():
    assert TK.TrackerParams().match_threshold == 1.0


def test_default_generation_score_is_0p3():
    assert TK.TrackerParams().generation_score == 0.3


def test_default_tubelet_length_is_10():
    assert TK.TrackerParams().tub_len_max == 10


def test_default_vid_profile_nms_0p45_top_200():
    assert (pp.PROFILES["vid"].nms_iou, pp.PROFILES["vid"].keep_top) == (0.45, 200)


def test_default_mot_profile_nms_0p3_top_400():
    assert (pp.PROFILES["mot"].nms_iou, pp.PROFILES["mot"].keep_top) == (0.3, 400)


def test_default_sequence_length_is_8():
    assert TR.TrainConfig().seq_len == 8


def _run_pipeline(base, seed=5):
    run = lambda *a: cli.main([str(x) for x in a])
    data = base / "data"
    assert run("--seed", seed, "gen", "--videos", 2, "--frames", 8,
               "--objects", 1, "--out", data) == 0
    assert run("train", "--stage", 1, "--data", data, "--out", base / "s1",
               "--epochs", 1) == 0
    assert run("train", "--stage", 2, "--data", data, "--out", base / "s2",
               "--epochs", 1, "--init", base / "s1" / "checkpoint") == 0
    assert run("train", "--stage", 3, "--data", data, "--out", base / "s3",
               "--epochs", 1, "--init", base / "s2" / "checkpoint") == 0
    assert run("detect", "--ckpt", base / "s3" / "checkpoint", "--data",
               data / "video_000", "--out", base / "dets", "--conf", 0.2) == 0
    assert run("track", "--dets", base / "dets" / "video_000.jsonl",
               "--out", base / "result.csv") == 0
    assert run("eval-mot", "--res", base / "result.csv",
               "--gt", data / "video_000" / "gt.csv",
               "--out", base / "report") == 0


def test_c12_pipeline_bitwise_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _run_pipeline(a)
    _run_pipeline(b)
    compared = 0
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        if rel.name == "run_config.txt":   # paths differ between runs by design
            continue
        fa, fb = a / rel, b / rel
        assert fb.exists(), rel
        assert fa.read_bytes() == fb.read_bytes(), rel
        compared += 1
    assert compared > 40
    report("C12 pipeline determinism", f"({compared} artifacts bitwise identical)")
