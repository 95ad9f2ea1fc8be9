import numpy as np
import pytest

from seqdet import loss as L
from seqdet import net
from seqdet import tensor as T
from seqdet.errors import ConfigError
from seqdet.postproc import center_to_corner, corner_to_center, make_priors
from seqdet.train import detections_for_frame, score_list_nodes

from refimpl import association_loss, naive_match, score_list


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
    return net.HeadOut(net.prior_major(loc_maps), net.prior_major(conf_maps))


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

    deltas = head.deltas()
    logits = head.logits()

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
    out = L.attention_loss(maps, np.array([[0.2, 0.2, 0.6, 0.7]]), 96)
    assert out.item() == pytest.approx(6 * np.log(2), rel=1e-12)


def test_attention_loss_perfect_prediction_near_zero():
    gt = np.array([[0.25, 0.25, 0.75, 0.75]])
    target = L.box_indicator_map(gt, 8)
    maps = [T.constant(target.copy()) for _ in range(6)]
    out = L.attention_loss(maps, gt, 8)
    assert out.item() < 1e-5


def test_attention_loss_equals_hand_rolled_bce():
    rng = np.random.default_rng(3)
    gt = np.array([[0.1, 0.3, 0.5, 0.8], [0.6, 0.1, 0.9, 0.4]])
    maps = [T.constant(rng.uniform(0.01, 0.99, (1, s, s))) for s in (5, 3, 2)]
    out = L.attention_loss(maps, gt, 16)

    from refimpl import naive_bilinear_resize
    target = L.box_indicator_map(gt, 16)[0]
    total = 0.0
    for m in maps:
        up = naive_bilinear_resize(m.data, 16, 16)[0]
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
    out = L.attention_loss(maps, np.empty((0, 4)), 12)
    assert out.item() == pytest.approx(np.log(2), rel=1e-12)


# ---------------------------------------------------------------------------
# score lists and association


def score_list_of(class_scores, k=75, theta=0.1, num_classes=4):
    """Score list through the training path: one prior per (class, score)
    pair, placed apart from the others, whose softmax gives that class that
    score; detections_for_frame then score_list_nodes."""
    n = max(len(class_scores), 1)
    probs = np.full((n, num_classes + 1), 1e-9)
    for i, (c, score) in enumerate(class_scores):
        probs[i, c] = score
    probs[:, 0] = 1.0 - probs[:, 1:].sum(axis=1)
    head = net.HeadOut(T.constant(np.zeros((n, 4))), T.constant(np.log(probs)))
    priors = np.array([[(i + 0.5) / n, 0.5, 0.5 / n, 0.5] for i in range(n)])
    dets = detections_for_frame(head, priors, theta, "vid", num_classes)
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
    priors = small_priors()
    for seed in range(5):
        head = random_head(np.random.default_rng(seed), scale=2.0)
        for k in (1, 2, 75):
            dets = detections_for_frame(head, priors, 0.1, "vid", 4)
            nodes = score_list_nodes(head, dets, k, 4)
            got = [0.0 if s is None else s.item() for s in nodes]
            np.testing.assert_allclose(got, score_list(dets, k, 0.1, 4), rtol=1e-12)


def association(lists, seq_len, form="running"):
    nodes = [[T.constant([v]) for v in sl] for sl in lists]
    return L.association_loss_node(nodes, seq_len, form).item()


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


def test_association_global_form():
    sl = [np.array([0.0]), np.array([2.0])]
    # global mean 1.0 -> |0-1| + |2-1| = 2, / seq_len
    assert association(sl, 2, form="global") == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        association(sl, 2, form="median")


def test_association_node_matches_numeric():
    rng = np.random.default_rng(8)
    frames = [rng.random(3) for _ in range(4)]
    for form in ("running", "global"):
        node = L.association_loss_node(
            [[T.constant([v]) for v in sl] for sl in frames], 4, form)
        assert node.item() == pytest.approx(association_loss(frames, 4, form),
                                            rel=1e-12)


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
    cfg = TR.TrainConfig(stage=3, seq_len=2, dropout=0.0).resolved()
    monkeypatch.setattr(TR, "LOSS_WEIGHTS", L.LossWeights(xi=0.0))
    (plain, _), (total, parts) = [
        TR._train_sequence(params, video, cfg, model_cfg, make_priors(),
                           np.random.default_rng(0), with_asso)
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
    frames = [T.constant(f) for f in seq.frames]
    gts = [np.stack([g.corners_norm() for g in fb]) for fb in seq.gt]
    classes = [[g.class_id for g in fb] for fb in seq.gt]

    def build():
        state = net.zero_state()
        mode = net.NetMode()
        terms = []
        for t in range(2):
            head, state, att = net.forward_temporal(frames[t], state, params, cfg, mode)
            m = L.match_priors(gts[t], classes[t], priors)
            l_loc, l_conf = L.loc_conf_loss(head, m)
            l_att = L.attention_loss(att, gts[t], net.INPUT_SIZE)
            terms.append(L.frame_loss_node(l_loc, l_conf, l_att, m.num_matched,
                                           L.LossWeights()))
        return T.scale(T.add_n(terms), 0.5)

    grads = T.backward(build())
    rng = np.random.default_rng(9)
    # heads of levels with no matched or mined prior legitimately get no grad
    wanted = ["backbone.c0.kernel", "unify.l0.kernel", "lstm.low.gate_f.kernel",
              "lstm.low.att1.kernel", "lstm.high.gate_i.bias", "head.loc0.kernel",
              "head.conf1.kernel", "lstm.low.gate_c.bias"]
    names = [n for n in wanted if n in grads]
    assert len(names) >= 6
    picks = [(n, int(rng.integers(params[n].data.size))) for n in names]

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


@pytest.mark.parametrize("form", ["running", "global"])
def test_stage3_objective_gradients_match_finite_diff(form):
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

    def build():
        frame_nodes, sl_nodes, ids = [], [], []
        for t in range(frames):
            head = head_from_maps([params[f"f{t}.loc{l}"] for l in range(len(sizes))],
                                  [params[f"f{t}.conf{l}"] for l in range(len(sizes))])
            m = L.match_priors(gts[t], [1, 4], priors)
            l_loc, l_conf = L.loc_conf_loss(head, m)
            att = [T.sigmoid(params[f"f{t}.att{l}"]) for l in range(len(sizes))]
            l_att = L.attention_loss(att, gts[t], 8)
            frame_nodes.append(L.frame_loss_node(l_loc, l_conf, l_att, m.num_matched,
                                                 TR.LOSS_WEIGHTS))
            dets = detections_for_frame(head, priors, theta, "vid", 4)
            ids.append(tuple((d.class_id, d.prior_index) for d in dets))
            sl_nodes.append(score_list_nodes(head, dets, k, 4))
        kept.append(tuple(ids))
        asso = L.association_loss_node(sl_nodes, frames, form)
        total = T.scale(T.add_n(frame_nodes), 1.0 / frames)
        return T.add(total, T.scale(asso, TR.LOSS_WEIGHTS.xi)), asso

    _, asso = build()
    assert asso.item() > 0
    # some class keeps more than k detections, so the top-k cut is exercised
    assert any(sum(c == cls for c, _ in frame) > k
               for frame in kept[0] for cls in range(1, 5))
    rows = TR.grad_check(TR.GradCheckCase(params, lambda: build()[0]), h=1e-5)
    assert len(set(kept)) == 1, "a threshold or NMS decision flipped under +-h"
    assert max(r.max_rel_err for r in rows) < 1e-4, rows[:3]
