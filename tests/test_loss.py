import numpy as np
import pytest

from seqdet import loss as L
from seqdet import net
from seqdet import tensor as T
from seqdet.errors import ConfigError
from seqdet.postproc import center_to_corner, corner_to_center, get_profile, make_priors
from seqdet.train import detections_for_frame, score_list_nodes, score_list_profile

from refimpl import association_loss, concat, naive_match, prior_major_rows, score_list


def small_priors():
    """Ten hand-placed priors (8 on a 2x2 grid, 2 centered)."""
    rows = []
    for y in range(2):
        for x in range(2):
            for s in (0.3, 0.45):
                rows.append(((x + 0.5) / 2, (y + 0.5) / 2, s, s))
    rows.append((0.5, 0.5, 0.6, 0.6))
    rows.append((0.5, 0.5, 0.9, 0.9))
    return np.array(rows)


def head_from_maps(loc_maps, conf_maps):
    """HeadOut of per-level loc and conf maps, packed the way head_forward's
    one conv per level packs them: the loc channels, then the conf channels,
    read out in prior-major rows (refimpl.prior_major_rows)."""
    ppc = net.PRIORS_PER_CELL
    maps = [concat([loc, conf]) for loc, conf in zip(loc_maps, conf_maps)]
    conf_width = conf_maps[0].data.shape[0] // ppc
    return net.HeadOut(prior_major_rows(maps, 0, 4, ppc),
                       prior_major_rows(maps, ppc * 4, conf_width, ppc))


def head_from_arrays(loc, conf):
    return head_from_maps([T.constant(m) for m in loc], [T.constant(m) for m in conf])


def random_head(rng, sizes=(2, 1), num_classes=4, scale=1.0):
    loc = [rng.standard_normal((2 * 4, s, s)) * scale for s in sizes]
    conf = [rng.standard_normal((2 * (num_classes + 1), s, s)) * scale for s in sizes]
    return head_from_arrays(loc, conf)


# ---------------------------------------------------------------------------
# matching


def test_prior_equal_to_gt_matches_with_zero_deltas():
    priors = small_priors()
    gt = center_to_corner(priors[[3]])
    m = L.match_priors(gt, [2], priors)
    assert 3 in m.matched
    assert m.labels[3] == 2
    np.testing.assert_allclose(m.deltas[3], 0.0, atol=1e-12)


def test_no_gt_means_no_matches():
    m = L.match_priors(np.empty((0, 4)), [], small_priors())
    assert m.num_matched == 0
    assert np.all(m.labels == 0)


def test_every_gt_claims_best_prior_even_below_threshold():
    priors = small_priors()
    gt = np.array([[0.48, 0.48, 0.56, 0.56]])   # tiny box, all IoU < 0.5
    m = L.match_priors(gt, [1], priors)
    assert m.num_matched == 1


def test_matching_equals_exhaustive_reference():
    rng = np.random.default_rng(0)
    priors = make_priors()[rng.choice(1540, size=100, replace=False)]
    for trial in range(10):
        g = int(rng.integers(1, 6))
        boxes = []
        for _ in range(g):
            x1, y1 = rng.random(2) * 0.6
            boxes.append([x1, y1, x1 + rng.uniform(0.05, 0.4), y1 + rng.uniform(0.05, 0.4)])
        boxes = np.array(boxes)
        classes = rng.integers(1, 5, size=g)
        m = L.match_priors(boxes, classes, priors)
        ref = naive_match(boxes, center_to_corner(priors))
        expected_labels = np.where(ref >= 0, classes[np.clip(ref, 0, None)], 0)
        np.testing.assert_array_equal(m.labels, expected_labels)


# ---------------------------------------------------------------------------
# loc/conf


def test_perfect_predictions_drive_both_terms_to_zero():
    priors = small_priors()
    sizes = (2, 1)
    gt = center_to_corner(priors[[0]])
    m = L.match_priors(gt, [3], priors)
    loc = [np.zeros((8, 2, 2)), np.zeros((8, 1, 1))]
    conf = [np.full((10, 2, 2), 0.0), np.full((10, 1, 1), 0.0)]
    # one-hot with a wide margin: +60 on the right class everywhere
    for lvl, s in enumerate(sizes):
        for cell in range(s * s):
            y, x = divmod(cell, s)
            for j in range(2):
                conf[lvl][j * 5 + 0, y, x] = 60.0   # background by default
    conf[0][0 * 5 + 0, 0, 0] = 0.0
    conf[0][0 * 5 + 3, 0, 0] = 60.0                 # matched prior 0 -> class 3
    head = head_from_arrays(loc, conf)
    l_loc, l_conf = L.loc_conf_loss(head, m)
    assert l_loc.item() < 1e-20   # encode<->corner round trip leaves ~1e-15 deltas
    assert l_conf.item() < 1e-9


def test_zero_matches_convention():
    head = random_head(np.random.default_rng(1))
    m = L.match_priors(np.empty((0, 4)), [], small_priors())
    l_loc, l_conf = L.loc_conf_loss(head, m)
    assert l_loc.item() == 0.0 and l_conf.item() == 0.0


def test_loc_conf_matches_straight_line_reference():
    rng = np.random.default_rng(2)
    priors = small_priors()
    head = random_head(rng)
    gt = np.array([[0.05, 0.05, 0.48, 0.49], [0.5, 0.52, 0.95, 0.9]])
    m = L.match_priors(gt, [1, 4], priors)
    l_loc, l_conf = L.loc_conf_loss(head, m)

    deltas = head.loc.data
    logits = head.conf.data

    def smooth_l1(d):
        ad = abs(d)
        return 0.5 * d * d if ad < 1 else ad - 0.5

    ref_loc = sum(smooth_l1(deltas[p, c] - m.deltas[p, c])
                  for p in m.matched for c in range(4))

    def ce(row, t):
        z = np.exp(row - row.max())
        return -np.log(z[t] / z.sum())

    neg_ce = [(ce(logits[p], 0), i, p)
              for i, p in enumerate(np.nonzero(m.labels == 0)[0])]
    neg_ce.sort(key=lambda r: (-r[0], r[1]))
    picked = [p for _, _, p in neg_ce[:3 * m.num_matched]]
    ref_conf = sum(ce(logits[p], m.labels[p]) for p in m.matched)
    ref_conf += sum(ce(logits[p], 0) for p in picked)

    assert l_loc.item() == pytest.approx(ref_loc, rel=1e-12)
    assert l_conf.item() == pytest.approx(ref_conf, rel=1e-12)


# ---------------------------------------------------------------------------
# attention loss


def constant_maps(value, sizes=(4, 2)):
    return [T.constant(np.full((1, s, s), value)) for s in sizes] * 3


def test_attention_loss_at_half_is_levels_times_ln2():
    maps = [T.constant(np.full((1, s, s), 0.5)) for s in (24, 12, 6, 3, 2, 1)]
    out = L.attention_loss(maps, np.array([[0.2, 0.2, 0.6, 0.7]]))
    assert out.item() == pytest.approx(6 * np.log(2), rel=1e-12)


def test_attention_loss_perfect_prediction_near_zero():
    gt = np.array([[0.25, 0.25, 0.75, 0.75]])
    target = L.box_indicator_map(gt, L.CANVAS)
    maps = [T.constant(target.copy()) for _ in range(6)]
    out = L.attention_loss(maps, gt)
    assert out.item() < 1e-5


def test_attention_loss_equals_hand_rolled_bce():
    rng = np.random.default_rng(3)
    gt = np.array([[0.1, 0.3, 0.5, 0.8], [0.6, 0.1, 0.9, 0.4]])
    maps = [T.constant(rng.uniform(0.01, 0.99, (1, s, s))) for s in (5, 3, 2)]
    out = L.attention_loss(maps, gt)

    from refimpl import naive_bilinear_resize
    target = L.box_indicator_map(gt, L.CANVAS)[0]
    total = 0.0
    for m in maps:
        up = naive_bilinear_resize(m.data, L.CANVAS, L.CANVAS)[0]
        p = np.clip(up, 1e-7, 1 - 1e-7)
        total += np.mean(-target * np.log(p) - (1 - target) * np.log(1 - p))
    assert out.item() == pytest.approx(total, rel=1e-10)


def test_attention_target_permutation_and_nesting_invariance():
    boxes = np.array([[0.1, 0.1, 0.6, 0.6], [0.5, 0.5, 0.9, 0.95]])
    a = L.box_indicator_map(boxes, 32)
    b = L.box_indicator_map(boxes[::-1], 32)
    np.testing.assert_array_equal(a, b)
    inner = np.vstack([boxes, [[0.2, 0.2, 0.4, 0.4]]])
    np.testing.assert_array_equal(L.box_indicator_map(inner, 32), a)


def test_attention_loss_empty_gt_still_valid():
    maps = [T.constant(np.full((1, 3, 3), 0.5))]
    out = L.attention_loss(maps, np.empty((0, 4)))
    assert out.item() == pytest.approx(np.log(2), rel=1e-12)


# ---------------------------------------------------------------------------
# score lists and association


def score_list_of(class_scores, k=75, theta=0.1, num_classes=4):
    """Score list through the training path: one prior per (class, score)
    pair, placed apart from the others, whose softmax gives that class that
    score; detections_for_frame at the score-list NMS settings then
    score_list_nodes."""
    n = max(len(class_scores), 1)
    probs = np.full((n, num_classes + 1), 1e-9)
    for i, (c, score) in enumerate(class_scores):
        probs[i, c] = score
    probs[:, 0] = 1.0 - probs[:, 1:].sum(axis=1)
    head = net.HeadOut(T.constant(np.zeros((n, 4))), T.constant(np.log(probs)))
    priors = np.array([[(i + 0.5) / n, 0.5, 0.5 / n, 0.5] for i in range(n)])
    dets = detections_for_frame(head, priors, theta, score_list_profile("vid", k),
                                num_classes)
    nodes = score_list_nodes(head, dets, k, num_classes)
    return np.array([0.0 if s is None else s.item() for s in nodes])


def test_score_list_hand_trace():
    sl = score_list_of([(1, 0.9), (1, 0.5), (1, 0.05)], k=2, theta=0.1)
    np.testing.assert_allclose(sl, [1.4, 0, 0, 0])


def test_score_list_empty_and_k1():
    assert np.all(score_list_of([]) == 0)
    sl = score_list_of([(2, 0.4), (2, 0.7), (3, 0.05)], k=1, theta=0.1)
    np.testing.assert_allclose(sl, [0, 0.7, 0, 0])


def test_score_list_monotone_in_retained_scores():
    rng = np.random.default_rng(4)
    scores = [float(s) for s in rng.uniform(0.2, 0.8, 10)]
    base = score_list_of([(1, s) for s in scores], k=5, theta=0.1, num_classes=2)[0]
    scores[3] += 0.1
    assert score_list_of([(1, s) for s in scores], k=5, theta=0.1,
                         num_classes=2)[0] >= base


def test_score_list_nodes_match_reference_on_detections():
    """Score lists from NMS stopped at k equal the reference top-k sums over
    the detections of the full profile."""
    priors = small_priors()
    for seed in range(5):
        head = random_head(np.random.default_rng(seed), scale=2.0)
        full = detections_for_frame(head, priors, 0.1, get_profile("vid"), 4)
        for k in (1, 2, 75):
            dets = detections_for_frame(head, priors, 0.1, score_list_profile("vid", k), 4)
            nodes = score_list_nodes(head, dets, k, 4)
            got = [0.0 if s is None else s.item() for s in nodes]
            np.testing.assert_allclose(got, score_list(full, k, 0.1, 4), rtol=1e-12)


def association(lists, seq_len):
    nodes = [[T.constant([v]) for v in sl] for sl in lists]
    return L.association_loss_node(nodes, seq_len).item()


def test_association_identical_lists_zero():
    sl = [np.array([1.0, 2.0])] * 4
    assert association(sl, 4) == 0.0


def test_association_running_mean_hand_trace():
    sl = [np.array([1.0]), np.array([1.0]), np.array([4.0])]
    assert association(sl, 3) == pytest.approx(1.0)


def test_association_homogeneous_in_scale():
    rng = np.random.default_rng(5)
    sl = [rng.random(3) for _ in range(5)]
    base = association(sl, 5)
    scaled = association([2.5 * x for x in sl], 5)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_association_zero_iff_equal_lists():
    rng = np.random.default_rng(6)
    sl = [rng.random(3) for _ in range(4)]
    assert association(sl, 4) > 0
    assert association([sl[0]] * 4, 4) == 0.0


def test_association_invariant_to_uniform_class_permutation():
    rng = np.random.default_rng(7)
    sl = [rng.random(4) for _ in range(5)]
    perm = np.array([2, 0, 3, 1])
    a = association(sl, 5)
    b = association([x[perm] for x in sl], 5)
    assert a == pytest.approx(b, rel=1e-12)


def test_association_fewer_than_two_frames_zero():
    assert association([np.array([1.0])], 1) == 0.0


def test_association_node_matches_numeric():
    rng = np.random.default_rng(8)
    frames = [rng.random(3) for _ in range(4)]
    node = L.association_loss_node([[T.constant([v]) for v in sl] for sl in frames], 4)
    assert node.item() == pytest.approx(association_loss(frames, 4), rel=1e-12)


# ---------------------------------------------------------------------------
# loss composition


def frame_total(l_loc, l_conf, l_att, num_matched, weights=None):
    parts = [T.constant([float(v)]) for v in (l_loc, l_conf, l_att)]
    return L.frame_loss_node(*parts, num_matched, weights or L.LossWeights()).item()


def test_total_loss_zero_parts():
    assert frame_total(0, 0, 0, 0) == 0.0


def test_total_loss_weighted_arithmetic():
    # (alpha * 2 + beta * 4) / 2 + gamma * 1; xi * L_asso is added per sequence
    assert frame_total(2.0, 4.0, 1.0, 2) == pytest.approx(3.5)


def test_total_loss_xi_zero_drops_association(tmp_path, monkeypatch):
    from seqdet import train as TR
    from seqdet.synth import gen_sequence, load_video_dir, random_scene, write_dataset

    write_dataset(gen_sequence(random_scene(41, num_objects=2, length=4)), tmp_path / "v")
    video = load_video_dir(tmp_path / "v")
    model_cfg = net.ModelConfig()
    params = net.init_params(41, model_cfg)
    cfg = TR.TrainConfig(seq_len=2, dropout=0.0).resolved(3)
    monkeypatch.setattr(TR, "LOSS_WEIGHTS", L.LossWeights(xi=0.0))
    (plain, _), (total, parts) = [
        TR._train_sequence(params, video, (2, 3), cfg, model_cfg, make_priors(),
                           None, with_asso)
        for with_asso in (False, True)]
    assert parts["L_asso"] > 0
    assert total.item() == plain.item()


def test_total_loss_rejects_negative_weights():
    with pytest.raises(ConfigError):
        frame_total(1, 1, 1, 1, L.LossWeights(gamma=-0.5))


def test_default_weights():
    w = L.LossWeights()
    assert (w.alpha, w.beta, w.gamma, w.xi) == (1.0, 1.0, 0.5, 2.0)


# ---------------------------------------------------------------------------
# full-network gradient spot check (loc + conf + att through two frames)


def test_full_network_two_frame_gradients_match_finite_diff():
    from seqdet.synth import gen_sequence, random_scene

    cfg = net.ModelConfig()
    params = net.init_params(40, cfg)
    seq = gen_sequence(random_scene(40, num_objects=2, length=2))
    priors = make_priors()
    gts = [np.stack([g.corners_norm() for g in fb]) for fb in seq.gt]
    classes = [[g.class_id for g in fb] for fb in seq.gt]

    def build():
        terms = []
        for t, (head, att) in enumerate(net.frame_outputs(seq.frames, params, cfg)):
            m = L.match_priors(gts[t], classes[t], priors)
            l_loc, l_conf = L.loc_conf_loss(head, m)
            l_att = L.attention_loss(att, gts[t])
            terms.append(L.frame_loss_node(l_loc, l_conf, l_att, m.num_matched,
                                           L.LossWeights()))
        return T.scale(T.add_n(terms), 0.5)

    grads = T.backward(build())
    rng = np.random.default_rng(9)
    # (name, first row, end row): the fused tensors are probed inside one
    # block, e.g. rows [64, 128) of the low gates are the f gate and rows
    # [8, 18) of a head are its conf block; heads of levels with no matched
    # or mined prior legitimately get no grad
    c_low, c_high = net.C_LOW, net.C_HIGH
    wanted = [("backbone.c0.kernel", 0, 32), ("unify.l0.kernel", 0, 64),
              ("lstm.low.gates.kernel", c_low, 2 * c_low), ("lstm.low.att1.kernel", 0, 32),
              ("lstm.high.gates.bias", 0, c_high), ("head.l0.kernel", 0, 8),
              ("head.l1.kernel", 8, 18), ("lstm.low.gates.bias", 3 * c_low, 4 * c_low)]
    wanted = [w for w in wanted if w[0] in grads]
    assert len(wanted) >= 6
    picks = []
    for name, lo, hi in wanted:
        row = params[name].data[0].size
        picks.append((name, int(rng.integers(lo * row, hi * row))))

    h = 1e-5
    for name, idx in picks:
        flat = params[name].data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        fp = build().item()
        flat[idx] = orig - h
        fm = build().item()
        flat[idx] = orig
        gn = (fp - fm) / (2 * h)
        ga = grads[name].reshape(-1)[idx]
        denom = max(abs(ga), abs(gn), 1e-4)
        assert abs(ga - gn) / denom < 1e-4, (name, idx, ga, gn)


# ---------------------------------------------------------------------------
# stage-3 gradient spot check (loc + conf + att + xi * L_asso over three frames)


def test_stage3_objective_gradients_match_finite_diff():
    """The association term reaches the head parameters through the
    thresholded, NMS-kept detections of each frame: detections_for_frame ->
    score_list_nodes -> association_loss_node. The kept (class, prior) ids
    must not change between the +h and -h evaluations, so no threshold or
    NMS decision flips inside the finite difference."""
    from seqdet import train as TR

    rng = np.random.default_rng(12)
    priors = small_priors()
    sizes, frames, k, theta = (2, 1), 3, 2, 0.1
    params = {}
    for t in range(frames):
        for lvl, s in enumerate(sizes):
            for kind, ch, sc in (("loc", 8, 0.5), ("conf", 10, 1.5), ("att", 1, 1.0)):
                name = f"f{t}.{kind}{lvl}"
                params[name] = T.parameter(rng.standard_normal((ch, s, s)) * sc, name)
    base = np.array([[0.05, 0.05, 0.48, 0.49], [0.5, 0.52, 0.95, 0.9]])
    gts = [np.clip(base + rng.uniform(-0.03, 0.03, base.shape), 0, 1)
           for _ in range(frames)]
    kept = []

    def frame_head(t):
        return head_from_maps([params[f"f{t}.loc{l}"] for l in range(len(sizes))],
                              [params[f"f{t}.conf{l}"] for l in range(len(sizes))])

    def build():
        frame_nodes, sl_nodes, ids = [], [], []
        for t in range(frames):
            head = frame_head(t)
            m = L.match_priors(gts[t], [1, 4], priors)
            l_loc, l_conf = L.loc_conf_loss(head, m)
            att = [T.sigmoid(params[f"f{t}.att{l}"]) for l in range(len(sizes))]
            l_att = L.attention_loss(att, gts[t])
            frame_nodes.append(L.frame_loss_node(l_loc, l_conf, l_att, m.num_matched,
                                                 TR.LOSS_WEIGHTS))
            dets = detections_for_frame(head, priors, theta,
                                        score_list_profile("vid", k), 4)
            ids.append(tuple((d.class_id, d.prior_index) for d in dets))
            sl_nodes.append(score_list_nodes(head, dets, k, 4))
        kept.append(tuple(ids))
        asso = L.association_loss_node(sl_nodes, frames)
        total = T.scale(T.add_n(frame_nodes), 1.0 / frames)
        return T.add(total, T.scale(asso, TR.LOSS_WEIGHTS.xi)), asso

    _, asso = build()
    assert asso.item() > 0
    # the capped NMS keeps each class's first k kept ids of the full profile,
    # and some class has more than k there, so the keep_top = k cut is exercised
    cut = False
    for t, frame in enumerate(kept[0]):
        full = [(d.class_id, d.prior_index) for d in
                detections_for_frame(frame_head(t), priors, theta, get_profile("vid"), 4)]
        per_class = [[p for p in full if p[0] == cls] for cls in range(1, 5)]
        assert frame == tuple(p for ps in per_class for p in ps[:k])
        cut |= any(len(ps) > k for ps in per_class)
    assert cut
    rows = TR.grad_check(TR.GradCheckCase(params, lambda: build()[0]))
    assert len(set(kept)) == 1, "a threshold or NMS decision flipped under +-h"
    assert max(r.max_rel_err for r in rows) < 1e-4, rows[:3]
