import numpy as np
import pytest

from seqdet import postproc as pp
from seqdet import synth
from seqdet import tensor as T
from seqdet.errors import ConfigError, ParseError
from seqdet.net import HeadOut
from seqdet.train import detections_for_frame, score_list_nodes, score_list_profile

from refimpl import detections_jsonl_reference, naive_iou, naive_nms


def test_prior_count_matches_grid():
    priors = pp.make_priors()
    assert priors.shape == (1540, 4)
    assert sum(pp.PRIORS_PER_CELL * s * s for s in pp.TOY_SIZES) == 1540


def test_prior_corners_inside_unit_square():
    corners = pp.center_to_corner(pp.make_priors())
    assert corners.min() >= 0.0 and corners.max() <= 1.0


def test_iou_identical_and_disjoint():
    a = np.array([0.1, 0.1, 0.4, 0.4])
    assert pp.iou(a, a) == 1.0
    assert pp.iou(a, np.array([0.5, 0.5, 0.9, 0.9])) == 0.0


def test_iou_hand_geometry_one_seventh():
    a = np.array([0.0, 0.0, 2.0, 2.0]) / 4
    b = np.array([1.0, 1.0, 3.0, 3.0]) / 4
    assert pp.iou(a, b) == pytest.approx(1 / 7, rel=1e-12)


def test_iou_symmetric_and_bounded_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = np.sort(rng.random(4).reshape(2, 2), axis=0).T.reshape(-1)[[0, 2, 1, 3]]
        b = np.sort(rng.random(4).reshape(2, 2), axis=0).T.reshape(-1)[[0, 2, 1, 3]]
        v = pp.iou(a, b)
        assert v == pp.iou(b, a)
        assert 0.0 <= v <= 1.0
        assert v == naive_iou(a, b)


def test_iou_zero_area_boxes_defined_zero():
    a = np.array([0.2, 0.2, 0.2, 0.6])
    assert pp.iou(a, a) == 0.0
    assert pp.iou(a, np.array([0.0, 0.0, 1.0, 1.0])) == 0.0


def _random_boxes(rng, n):
    xy = rng.random((n, 2)) * 0.6
    return np.hstack([xy, xy + rng.random((n, 2)) * 0.4])


def _assert_iou_matrix_is_naive(a, b):
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    m = pp.iou_matrix(a, b)
    assert m.shape == (len(a), len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            assert m[i, j] == naive_iou(a[i], b[j]), (i, j, a[i], b[j])


def test_iou_matrix_matches_scalar():
    """Every entry equals the straight-line reference bit for bit."""
    rng = np.random.default_rng(1)
    boxes = _random_boxes(rng, 8)
    _assert_iou_matrix_is_naive(boxes, boxes)
    for n, m in ((1, 9), (9, 1), (5, 12), (12, 5)):
        _assert_iou_matrix_is_naive(_random_boxes(rng, n), _random_boxes(rng, m))


def test_iou_matrix_degenerate_inputs_match_scalar():
    unit = [0.0, 0.0, 1.0, 1.0]
    zero_area = [[0.2, 0.2, 0.2, 0.6], [0.3, 0.3, 0.7, 0.3], [0.5, 0.5, 0.5, 0.5]]
    touching = [[0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0],
                [0.5, 0.5, 1.0, 1.0]]
    identical = [[0.1, 0.2, 0.4, 0.7]] * 3
    boxes = np.array([unit, *zero_area, *touching, *identical])
    _assert_iou_matrix_is_naive(boxes, boxes)
    _assert_iou_matrix_is_naive(boxes[:4], boxes[4:])
    m = pp.iou_matrix(touching, touching)
    assert np.array_equal(m, np.eye(4))
    assert np.all(pp.iou_matrix(identical, identical) == 1.0)
    assert np.all(pp.iou_matrix(zero_area, boxes) == 0.0)
    for a, b in ((np.empty((0, 4)), boxes), (boxes, np.empty((0, 4))),
                 (np.empty((0, 4)), np.empty((0, 4)))):
        assert pp.iou_matrix(a, b).shape == (len(a), len(b))


def test_decode_zero_deltas_returns_priors():
    priors = pp.make_priors()
    boxes = pp.decode(priors, np.zeros((len(priors), 4)))
    np.testing.assert_allclose(boxes, pp.center_to_corner(priors), atol=1e-12)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(2)
    priors = pp.make_priors()
    deltas = rng.standard_normal((len(priors), 4)) * 0.5
    boxes = pp.decode(priors, deltas)
    # restrict to boxes unaffected by the unit-square clamp
    cf = pp.corner_to_center(boxes)
    raw_cf = np.empty_like(cf)
    raw_cf[:, 0] = priors[:, 0] + deltas[:, 0] * 0.1 * priors[:, 2]
    raw_cf[:, 1] = priors[:, 1] + deltas[:, 1] * 0.1 * priors[:, 3]
    raw_cf[:, 2] = priors[:, 2] * np.exp(deltas[:, 2] * 0.2)
    raw_cf[:, 3] = priors[:, 3] * np.exp(deltas[:, 3] * 0.2)
    corners = pp.center_to_corner(raw_cf)
    ok = np.all((corners >= 0) & (corners <= 1), axis=1)
    assert ok.sum() > 100
    back = pp.encode(boxes[ok], priors[ok])
    np.testing.assert_allclose(back, deltas[ok], atol=1e-10)


def _det(score, box, cls=1):
    return pp.Detection(cls, score, np.asarray(box, dtype=np.float64))


def test_nms_overlapping_pair_keeps_higher():
    a = _det(0.9, [0.0, 0.0, 0.5, 0.5])
    b = _det(0.8, [0.05, 0.0, 0.5, 0.5])   # IoU 0.9 > 0.45
    assert pp.iou(a.box, b.box) > 0.45
    kept = pp.nms([a, b], 0.45, 200)
    assert kept == [a]


def test_nms_disjoint_all_kept_up_to_top():
    dets = [_det(0.5 + 0.1 * i, [0.2 * i, 0.0, 0.2 * i + 0.1, 0.1]) for i in range(4)]
    kept = pp.nms(dets, 0.45, 200)
    assert len(kept) == 4
    kept2 = pp.nms(dets, 0.45, 2)
    assert [d.score for d in kept2] == sorted([d.score for d in dets], reverse=True)[:2]


def test_nms_tie_break_by_input_order():
    a = _det(0.7, [0.0, 0.0, 0.4, 0.4])
    b = _det(0.7, [0.01, 0.0, 0.4, 0.4])
    kept = pp.nms([a, b], 0.45, 10)
    assert kept == [a]


def test_nms_matches_brute_force_reference():
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(0, 50))
        dets = []
        for _i in range(n):
            x1, y1 = rng.random(2) * 0.6
            w, h = rng.random(2) * 0.4 + 0.02
            dets.append(_det(float(rng.random()), [x1, y1, x1 + w, y1 + h]))
        thresh = float(rng.choice([0.3, 0.45, 0.6]))
        top = int(rng.choice([5, 50, 200]))
        kept = pp.nms(dets, thresh, top)
        ref = naive_nms([d.box for d in dets], [d.score for d in dets], thresh, top)
        assert [id(d) for d in kept] == [id(dets[i]) for i in ref]


@pytest.mark.parametrize("keep_top", [-1, 0, 1])
def test_nms_keeps_at_most_keep_top_boxes_even_below_one(keep_top):
    dets = [_det(0.9, [0.0, 0.0, 0.2, 0.2]), _det(0.8, [0.5, 0.5, 0.7, 0.7])]
    ref = naive_nms([d.box for d in dets], [d.score for d in dets], 0.45, keep_top)
    assert [id(d) for d in pp.nms(dets, 0.45, keep_top)] == [id(dets[i]) for i in ref]
    assert len(ref) == max(keep_top, 0)
    boxes = np.stack([d.box for d in dets])
    chosen = pp.select_class_candidates(np.array([0.9, 0.8]), boxes, 1, 0.1,
                                        pp.Profile(0.45, keep_top))
    assert [d.prior_index for d in chosen] == ref


def test_nms_suppressed_boxes_overlap_a_kept_box():
    rng = np.random.default_rng(4)
    dets = []
    for _ in range(40):
        x1, y1 = rng.random(2) * 0.5
        dets.append(_det(float(rng.random()), [x1, y1, x1 + 0.3, y1 + 0.3]))
    kept = pp.nms(dets, 0.45, 200)
    kept_ids = {id(d) for d in kept}
    for i, p in enumerate(pp.iou_matrix([d.box for d in kept], [d.box for d in kept])):
        for j, v in enumerate(p):
            if i != j:
                assert v <= 0.45
    for d in dets:
        if id(d) not in kept_ids:
            assert any(pp.iou(d.box, k.box) > 0.45 and k.score >= d.score for k in kept)


def test_profiles_and_unknown_profile():
    assert pp.get_profile("vid").nms_iou == 0.45
    assert pp.get_profile("vid").keep_top == 200
    assert pp.get_profile("mot").nms_iou == 0.3
    assert pp.get_profile("mot").keep_top == 400
    with pytest.raises(ConfigError):
        pp.get_profile("coco")


def _random_dets(rng, n):
    """n detections of random boxes whose scores are distinct."""
    scores = rng.permutation(n) / max(n, 1) + 0.001
    return [_det(float(s), b) for s, b in zip(scores, _random_boxes(rng, n))]


def test_nms_stopped_early_is_a_prefix_of_a_later_stop():
    rng = np.random.default_rng(7)
    for _ in range(60):
        dets = _random_dets(rng, int(rng.integers(0, 60)))
        thresh = float(rng.choice([0.3, 0.45, 0.6]))
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, n + 1))
        boxes, scores = [d.box for d in dets], [d.score for d in dets]
        long, short = pp.nms(dets, thresh, n), pp.nms(dets, thresh, m)
        assert short == long[:m]
        assert [id(d) for d in short] == [id(dets[i]) for i in
                                          naive_nms(boxes, scores, thresh, m)]
        assert [id(d) for d in long] == [id(dets[i]) for i in
                                         naive_nms(boxes, scores, thresh, n)]


def test_nms_is_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(40):
        dets = _random_dets(rng, int(rng.integers(0, 60)))
        for top in (3, 200):
            kept = pp.nms(dets, 0.45, top)
            assert pp.nms(kept, 0.45, top) == kept


def test_nms_ignores_input_order_when_scores_are_distinct():
    rng = np.random.default_rng(9)
    for _ in range(40):
        dets = _random_dets(rng, int(rng.integers(0, 60)))
        kept = pp.nms(dets, 0.45, 20)
        shuffled = [dets[i] for i in rng.permutation(len(dets))]
        assert pp.nms(shuffled, 0.45, 20) == kept


# ---------------------------------------------------------------------------
# select_class_candidates: NMS over a score-ordered prefix of the candidates


def _oracle_selection(scores, boxes, thresh, profile):
    """Prior indices naive_nms keeps over every thresholded candidate."""
    idx = np.nonzero(scores > thresh)[0]
    keep = naive_nms(boxes[idx], scores[idx], profile.nms_iou, profile.keep_top)
    return [int(idx[j]) for j in keep]


def _assert_selects_like_oracle(scores, boxes, thresh, profile):
    out = pp.select_class_candidates(scores, boxes, 3, thresh, profile)
    assert [d.prior_index for d in out] == _oracle_selection(scores, boxes, thresh, profile)
    for d in out:
        assert d.class_id == 3 and d.score == scores[d.prior_index]
        assert np.array_equal(d.box, boxes[d.prior_index])
    return out


@pytest.fixture
def nms_sizes(monkeypatch):
    """How many candidates each nms call gets from select_class_candidates."""
    sizes = []
    real = pp.nms

    def counting(dets, iou_thresh, keep_top):
        sizes.append(len(dets))
        return real(dets, iou_thresh, keep_top)

    monkeypatch.setattr(pp, "nms", counting)
    return sizes


@pytest.fixture
def iou_calls(monkeypatch):
    """How many times postproc calls iou_matrix (nms and the fallback alike)."""
    calls = []
    real = pp.iou_matrix

    def counting(a, b):
        calls.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(pp, "iou_matrix", counting)
    return calls


STACKED = [0.1, 0.1, 0.3, 0.3]


def _disjoint_box(i):
    """Small boxes on a row of their own, apart from each other and from STACKED."""
    return [0.05 * i, 0.8, 0.05 * i + 0.04, 0.84]


def test_select_equal_scores_straddling_the_prefix_keep_prior_order(nms_sizes):
    # keep_top 2 starts from an 8-candidate prefix; all 16 scores are equal,
    # the first 8 priors are one stacked box and the next 8 are disjoint, so
    # only a rest read in prior order finds prior 8 as the second box
    prof = pp.Profile(nms_iou=0.45, keep_top=2)
    boxes = np.array([STACKED] * 8 + [_disjoint_box(i) for i in range(8)])
    scores = np.full(16, 0.6)
    out = _assert_selects_like_oracle(scores, boxes, 0.1, prof)
    assert [d.prior_index for d in out] == [0, 8]
    assert nms_sizes == [8, 8]


def test_select_heavy_overlap_reads_past_the_prefix_once(nms_sizes, iou_calls):
    # 39 stacked boxes by falling score, then one disjoint box with the lowest;
    # the rest's 31 stacked boxes go in one iou_matrix against the kept box
    prof = pp.Profile(nms_iou=0.45, keep_top=2)
    boxes = np.array([STACKED] * 39 + [_disjoint_box(0)])
    scores = np.linspace(0.9, 0.5, 40)
    _assert_selects_like_oracle(scores, boxes, 0.1, prof)
    assert nms_sizes == [8, 1]
    assert iou_calls == [(1, 8), (1, 32)]


def test_select_rest_keeps_a_box_at_exactly_the_threshold(nms_sizes):
    # NMS drops a box only when its IoU exceeds the threshold; the rest's
    # filter keeps one whose IoU with the kept box equals it
    a, b = [0.0, 0.0, 0.2, 0.2], [0.1, 0.0, 0.3, 0.2]
    at = float(pp.iou_matrix(np.array([a]), np.array([b]))[0, 0])
    boxes = np.array([a] * 9 + [b])
    scores = np.linspace(0.9, 0.5, 10)
    out = _assert_selects_like_oracle(scores, boxes, 0.1, pp.Profile(nms_iou=at, keep_top=2))
    assert [d.prior_index for d in out] == [0, 9]
    assert nms_sizes == [8, 1]


def test_select_candidates_run_out_before_keep_top(nms_sizes):
    prof = pp.Profile(nms_iou=0.45, keep_top=5)
    boxes = np.array([STACKED] * 30 + [_disjoint_box(0)])
    scores = np.concatenate([np.linspace(0.9, 0.3, 30), [0.05]])   # the last is below 0.1
    assert len(_assert_selects_like_oracle(scores, boxes, 0.1, prof)) == 1
    assert nms_sizes == [20, 0]


def test_select_clustered_head_costs_at_most_one_iou_call_more(nms_sizes, iou_calls):
    """A head whose 1540 candidates form 30 clusters: NMS over all of them keeps
    30 < keep_top boxes. The prefix keeps what it reaches, the rest is read
    once, and iou_matrix runs once per kept box plus once for the rest."""
    rng = np.random.default_rng(14)
    centres = [(0.1 + 0.15 * i, 0.1 + 0.15 * j) for i in range(5) for j in range(6)]
    boxes = np.zeros((1540, 4))
    for i in range(1540):
        cx, cy = centres[i % 30]
        dx, dy = rng.uniform(-0.004, 0.004, size=2)
        boxes[i] = [cx + dx - 0.05, cy + dy - 0.05, cx + dx + 0.05, cy + dy + 0.05]
    scores = rng.uniform(0.2, 0.9, size=1540)
    prof = pp.Profile(nms_iou=0.45, keep_top=75)
    every = [pp.Detection(3, float(scores[i]), boxes[i], prior_index=i) for i in range(1540)]
    ref = pp.nms(every, prof.nms_iou, prof.keep_top)
    full_calls = len(iou_calls)
    assert len(ref) == full_calls == 30
    nms_sizes.clear()
    iou_calls.clear()
    out = _assert_selects_like_oracle(scores, boxes, 0.1, prof)
    assert [d.prior_index for d in out] == [d.prior_index for d in ref]
    assert nms_sizes[0] == 300 and sum(nms_sizes) < 1540
    assert len(iou_calls) <= full_calls + 1


def test_select_keep_top_at_or_above_the_candidate_count(nms_sizes):
    rng = np.random.default_rng(11)
    boxes = _random_boxes(rng, 12)
    scores = rng.random(12)
    for top in (12, 50):
        nms_sizes.clear()
        _assert_selects_like_oracle(scores, boxes, 0.0, pp.Profile(0.45, top))
        assert nms_sizes == [12]


def test_select_matches_the_oracle_on_random_tied_scores():
    rng = np.random.default_rng(12)
    for _ in range(150):
        n = int(rng.integers(0, 120))
        boxes = _random_boxes(rng, n)
        scores = rng.integers(0, 6, size=n) / 5.0     # many ties, some at or below 0.1
        prof = pp.Profile(nms_iou=float(rng.choice([0.3, 0.45, 0.6])),
                          keep_top=int(rng.choice([1, 2, 3, 5, 10, 200])))
        _assert_selects_like_oracle(scores, boxes, 0.1, prof)


def test_select_keeps_prior_order_among_many_equal_scores():
    """64 candidates on five score levels: past 16 elements numpy's default
    sort does not keep equal scores in prior order, so only the stable sort
    gives naive_nms's choice among ties."""
    rng = np.random.default_rng(64)
    for _ in range(40):
        scores = np.round(rng.random(64) * 4) / 4
        _assert_selects_like_oracle(scores, _random_boxes(rng, 64), 0.1, pp.Profile(0.45, 5))


def test_stage3_nms_sees_fewer_candidates_than_priors(nms_sizes):
    """At theta 0.1 every prior of every class is a candidate of a near-uniform
    head; with k 75 NMS gets a prefix and still keeps what it keeps over all."""
    rng = np.random.default_rng(13)
    priors = pp.make_priors()
    logits = rng.standard_normal((len(priors), 5)) * 0.1
    head = array_head(rng.standard_normal((len(priors), 4)) * 0.3, logits)
    prof = score_list_profile("vid", 75)
    dets = detections_for_frame(head, priors, 0.1, prof, 4)
    assert nms_sizes and max(nms_sizes) < len(priors)
    boxes, probs = pp.decode(priors, head.loc.data), pp.softmax_rows(logits)
    for c in range(1, 5):
        assert (probs[:, c] > 0.1).all()
        every = [pp.Detection(c, float(probs[i, c]), boxes[i], prior_index=i)
                 for i in range(len(priors))]
        ref = [d.prior_index for d in pp.nms(every, prof.nms_iou, prof.keep_top)]
        assert [d.prior_index for d in dets if d.class_id == c] == ref


def array_head(deltas, logits):
    """A net.HeadOut of fixed per-prior offset and logit arrays."""
    return HeadOut(T.constant(deltas), T.constant(logits))


def test_detect_uniform_zero_logits_yields_nothing():
    priors = pp.make_priors()
    deltas = np.zeros((len(priors), 4))
    logits = np.zeros((len(priors), 5))   # 4 classes + background -> scores 0.2
    out = detections_for_frame(array_head(deltas, logits), priors, 0.3,
                               pp.get_profile("vid"), 4)
    assert out == []


def test_detect_single_dominant_prior():
    priors = pp.make_priors()
    deltas = np.zeros((len(priors), 4))
    logits = np.zeros((len(priors), 5))
    logits[37, 2] = 12.0
    out = detections_for_frame(array_head(deltas, logits), priors, 0.3,
                               pp.get_profile("vid"), 4)
    assert len(out) == 1
    assert out[0].class_id == 2
    assert out[0].prior_index == 37
    np.testing.assert_allclose(out[0].box, pp.decode(priors, deltas)[37])


def test_detect_equals_manual_composition():
    rng = np.random.default_rng(5)
    priors = pp.make_priors()
    deltas = rng.standard_normal((len(priors), 4)) * 0.3
    logits = rng.standard_normal((len(priors), 5)) * 2
    prof = pp.get_profile("mot")
    out = detections_for_frame(array_head(deltas, logits), priors, 0.25, prof, 4)

    boxes = pp.decode(priors, deltas)
    probs = pp.softmax_rows(logits)
    manual = []
    for c in range(1, 5):
        cand = [pp.Detection(c, float(probs[i, c]), boxes[i], prior_index=i)
                for i in np.nonzero(probs[:, c] > 0.25)[0]]
        manual.extend(pp.nms(cand, prof.nms_iou, prof.keep_top))
    assert len(out) == len(manual)
    for a, b in zip(out, manual):
        assert (a.class_id, a.prior_index) == (b.class_id, b.prior_index)
        assert a.score == b.score


@pytest.mark.parametrize("k", [1, 75, 300])
def test_stage3_capped_nms_keeps_the_score_lists(k):
    """Stage 3 stops NMS at min(k, keep_top); on random heads over the full
    prior grid the score lists read the same prior rows and sum to the same
    values as with the vid profile's keep_top of 200."""
    rng = np.random.default_rng(10 + k)
    priors = pp.make_priors()
    full = pp.get_profile("vid")
    assert score_list_profile("vid", k).keep_top == min(k, full.keep_top)
    assert score_list_profile("vid", k).nms_iou == full.nms_iou
    for _ in range(2):
        head = array_head(rng.standard_normal((len(priors), 4)) * 0.3,
                          rng.standard_normal((len(priors), 5)))
        wide = detections_for_frame(head, priors, 0.1, full, 4)
        capped = detections_for_frame(head, priors, 0.1, score_list_profile("vid", k), 4)
        for c in range(1, 5):
            rows = [d.prior_index for d in wide if d.class_id == c]
            assert len(rows) == full.keep_top
            assert [d.prior_index for d in capped if d.class_id == c] == rows[:k]
        a = score_list_nodes(head, wide, k, 4)
        b = score_list_nodes(head, capped, k, 4)
        assert [n.item() for n in a] == [n.item() for n in b]


def test_detections_jsonl_round_trip(tmp_path):
    """One record on each spelling path: orjson's (every number in the
    range it spells as json does) and json's (a box corner of 2.5e-05,
    which json spells in exponent form). Both read back exactly."""
    rng = np.random.default_rng(6)
    d1 = _det(0.9, [0.1, 0.2, 0.3, 0.4], cls=2)
    d1.av = 0.5 + rng.random(147) / 4
    d1.id = 5
    d2 = _det(0.4, [2.5e-05, 0.5, 0.7, 0.8], cls=1)
    assert pp._spelled_alike([d1]) and not pp._spelled_alike([d2])
    path = tmp_path / "dets.jsonl"
    pp.write_detections_jsonl(path, [(1, [d1]), (2, [d2])])
    back = pp.read_detections_jsonl(path)
    assert set(back) == {1, 2}
    for got, want in ((back[1][0], d1), (back[2][0], d2)):
        assert (got.class_id, got.id, got.score) == (want.class_id, want.id, want.score)
        assert np.array_equal(got.box, want.box)
    assert np.array_equal(back[1][0].av, d1.av)
    assert back[2][0].av is None
    # av omitted on the line itself when absent
    lines = path.read_text().strip().splitlines()
    assert "av" in lines[0] and "av" not in lines[1]
    assert "[2.5e-05, 0.5, 0.7, 0.8]" in lines[1]


@pytest.mark.parametrize("with_av", [True, False])
def test_detections_jsonl_bytes_equal_the_per_element_float_writer(tmp_path, with_av):
    seq = synth.gen_sequence(synth.random_scene(5, num_objects=6, length=8))
    frames = synth.oracle_detections(seq)
    if not with_av:
        for _, dets in frames:
            for d in dets:
                d.av = None
    path = tmp_path / "dets.jsonl"
    pp.write_detections_jsonl(path, frames)
    assert path.read_bytes() == detections_jsonl_reference(frames).encode()
    assert ('"av"' in path.read_text()) == with_av


def _random_doubles(rng, n, exponents):
    """n finite float64s of random sign and mantissa bits, their biased
    exponents drawn from the range given (0 gives subnormals and zeros)."""
    bits = (rng.integers(0, 2**52, n, dtype=np.uint64)
            | (rng.integers(*exponents, n).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)))
    return bits.view(np.float64)


# biased float64 exponents: every finite one; 2**-15 up to 2**55, a little
# beyond [1e-4, 1e16) on each side; and only those of [2**-13, 2**53),
# which lies inside it
WHOLE_RANGE, NEAR_RANGE, IN_RANGE = (0, 2047), (1023 - 15, 1023 + 56), (1023 - 13, 1023 + 53)


def test_detections_jsonl_bytes_equal_json_dumps_over_the_float64_range(tmp_path):
    """Records of random float64 bit patterns, and of the values at the
    edges of the range orjson spells as json does, are written as
    json.dumps spells them (refimpl) on both spelling paths."""
    rng = np.random.default_rng(26)
    edges = [0.0, 5e-324, np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16,
             2.0**-1022, np.finfo(np.float64).max]
    edges = np.array(edges + [-v for v in edges])
    frames = []
    for fidx in range(1, 61):
        exponents = (WHOLE_RANGE, NEAR_RANGE, IN_RANGE)[fidx % 3]
        dets = []
        for _ in range(rng.integers(0, 5)):
            vals = _random_doubles(rng, 5 + rng.integers(0, 40), exponents)
            if rng.random() < 0.3:
                vals[rng.integers(0, len(vals))] = rng.choice(edges)
            det = pp.Detection(int(rng.integers(0, 5)), float(vals[0]), vals[1:5],
                               id=int(rng.integers(-1, 9)))
            if len(vals) > 5:
                det.av = vals[5:]
            dets.append(det)
        frames.append((fidx, dets))
    for fidx, big in enumerate([2**63 - 1, -(2**63 - 1), 2**63, 2**64, -2**64], start=61):
        frames.append((big, [pp.Detection(1, 0.5, np.full(4, 0.25), id=big)]))
        frames.append((fidx, [pp.Detection(1, 0.5, edges[:4] + 0.0, av=edges, id=big)]))
    alike = [pp._spelled_alike([d]) for _f, dets in frames for d in dets]
    assert 40 < sum(alike) < len(alike) - 40       # both spelling paths are taken
    path = tmp_path / "dets.jsonl"
    pp.write_detections_jsonl(path, frames)
    assert path.read_bytes() == detections_jsonl_reference(frames).encode()


def test_detections_jsonl_orjson_path_bytes_equal_json_dumps_in_range(tmp_path):
    """50,000 random float64s from inside [1e-4, 1e16), all in records that
    orjson spells, and the edges of that range each in a record of its own."""
    rng = np.random.default_rng(27)
    vals = _random_doubles(rng, 50_000, IN_RANGE).reshape(-1, 100)
    dets = [pp.Detection(1, float(v[0]), v[1:5], av=v[5:]) for v in vals]
    for v in (1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 0.0, -0.0):
        dets.append(pp.Detection(2, float(v), np.full(4, v), av=np.full(3, -v)))
    assert all(pp._spelled_alike([d]) for d in dets)
    frames = [(1, dets[:250]), (2, dets[250:])]
    path = tmp_path / "dets.jsonl"
    pp.write_detections_jsonl(path, frames)
    assert path.read_bytes() == detections_jsonl_reference(frames).encode()


def test_detections_jsonl_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": 1, "class": 1, "score": 0.5, "box": [0,0,1,1], "id": -1}\n'
                    '{"frame": 2, "class": "x"}\n')
    with pytest.raises(ParseError, match=":2:"):
        pp.read_detections_jsonl(path)


@pytest.mark.parametrize("key,value", [("frame", "1e400"), ("frame", "-Infinity"),
                                       ("id", "1e400"), ("class", "Infinity")])
def test_detections_jsonl_frame_id_or_class_beyond_int_is_parse_error(tmp_path, key, value):
    path = tmp_path / "big.jsonl"
    rec = {"frame": "1", "class": "1", "score": "0.5", "box": "[0, 0, 1, 1]", "id": "2",
           key: value}
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n")
    with pytest.raises(ParseError, match=r"big\.jsonl:1: bad detection record"):
        pp.read_detections_jsonl(path)


def test_detections_jsonl_fractional_frame_class_or_id_is_parse_error(tmp_path):
    path = tmp_path / "frac.jsonl"
    path.write_text('{"frame": 1.9, "class": 2.7, "score": 0.5, "box": [0, 0, 1, 1], '
                    '"id": 3.5}\n')
    with pytest.raises(ParseError, match=r"frac\.jsonl:1: .*must be a whole number"):
        pp.read_detections_jsonl(path)


@pytest.mark.parametrize("key,value", [("frame", "1.5"), ("class", "2.7"), ("id", "3.5"),
                                       ("frame", "true"), ("class", "false"),
                                       ("id", "true"), ("class", '"2"'),
                                       ("frame", "1e30"), ("frame", "1" * 400),
                                       ("class", "9223372036854775808"), ("class", "-1e19"),
                                       ("id", "-9223372036854775809")])
def test_detections_jsonl_frame_class_and_id_must_be_whole_numbers(tmp_path, key, value):
    path = tmp_path / "whole.jsonl"
    rec = {"frame": "1", "class": "1", "score": "0.5", "box": "[0, 0, 1, 1]", "id": "2",
           key: value}
    path.write_text('{"frame": 1, "class": 1, "score": 0.5, "box": [0, 0, 1, 1]}\n'
                    + "{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n")
    with pytest.raises(ParseError, match=rf"whole\.jsonl:2: bad detection record \({key} "
                                         r"must be a whole number"):
        pp.read_detections_jsonl(path)


def test_detections_jsonl_whole_number_floats_load(tmp_path):
    path = tmp_path / "floats.jsonl"
    path.write_text('{"frame": 2.0, "class": 3.0, "score": 0.5, "box": [0, 0, 1, 1], '
                    '"id": -1.0}\n')
    (det,) = pp.read_detections_jsonl(path)[2]
    assert (det.class_id, det.id) == (3, -1)
    assert type(det.class_id) is int and type(det.id) is int


def test_detections_jsonl_box_needs_four_numbers(tmp_path):
    path = tmp_path / "short.jsonl"
    path.write_text('{"frame": 1, "class": 1, "score": 0.5, "box": [0.1, 0.1, 0.5]}\n')
    with pytest.raises(ParseError, match=r"short\.jsonl:1:.*4 numbers"):
        pp.read_detections_jsonl(path)


@pytest.mark.parametrize("score,box,av", [
    ("Infinity", "[0, 0, 1, 1]", None), ("1e400", "[0, 0, 1, 1]", None),
    ("NaN", "[0, 0, 1, 1]", "[1, 2]"), ("0.5", "[NaN, 0, 0.5, 0.5]", None),
    ("0.5", "[0, 0, -Infinity, 0.5]", "[1, 2]"), ("0.5", "[0, 0, 1, 1]", "[0.5, NaN]"),
    ("0.5", "[0, 0, 1, 1]", "[1e400, 1]"),
], ids=["score_inf", "score_1e400", "score_nan", "box_nan", "box_minus_inf", "av_nan",
        "av_1e400"])
def test_detections_jsonl_non_finite_value_is_parse_error(tmp_path, score, box, av):
    path = tmp_path / "vals.jsonl"
    last = f'{{"frame": 2, "class": 1, "score": {score}, "box": {box}' \
        + ("}" if av is None else f', "av": {av}}}')
    path.write_text('{"frame": 1, "class": 1, "score": 0.5, "box": [0, 0, 1, 1]}\n'
                    + last + "\n")
    with pytest.raises(ParseError, match=r"vals\.jsonl:2: .*must be finite"):
        pp.read_detections_jsonl(path)


@pytest.mark.parametrize("av", ["5", '"ab"', "{}", "[[1, 2]]"])
def test_detections_jsonl_av_must_be_a_list_of_numbers(tmp_path, av):
    path = tmp_path / "av.jsonl"
    path.write_text(f'{{"frame": 1, "class": 1, "score": 0.5, "box": [0, 0, 1, 1], '
                    f'"av": {av}}}\n')
    with pytest.raises(ParseError, match=r"av\.jsonl:1: bad detection record"):
        pp.read_detections_jsonl(path)


@pytest.mark.parametrize("field", ["score", "box", "av"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_detections_jsonl_writer_refuses_non_finite_values(tmp_path, field, bad):
    """JSON spells such values only as tokens the reader refuses, so the
    writer refuses the record by frame and class and leaves no file."""
    good = _det(0.9, [0.1, 0.2, 0.3, 0.4], cls=2)
    good.av = np.array([0.5, 0.25])
    worse = _det(0.8, [0.5, 0.5, 0.7, 0.8], cls=3)
    worse.av = np.array([0.5, 0.25])
    if field == "score":
        worse.score = bad
    else:
        getattr(worse, field)[1] = bad
    path = tmp_path / "dets.jsonl"
    path.write_text("an older file\n")
    with pytest.raises(ValueError) as exc:
        pp.write_detections_jsonl(path, [(1, [good]), (4, [good, worse])])
    assert str(exc.value) == f"{path}: frame 4 class 3: score, box and av must be finite"
    assert not path.exists()


# Messages quote at most errors.QUOTE_CHARS characters of a value.
OVERSIZED_RECORDS = {
    "box_100k_numbers": '{"frame": 1, "class": 1, "score": 0.5, "box": [%s]}'
                        % ", ".join(["0.5"] * 100_000),
    "av_200k_string": '{"frame": 1, "class": 1, "score": 0.5, "box": [0, 0, 1, 1], '
                      '"av": "%s"}' % ("x" * 200_000),
    "score_200k_string": '{"frame": 1, "class": 1, "score": "%s", "box": [0, 0, 1, 1]}'
                         % ("x" * 200_000),
    "frame_100k_list": '{"frame": [%s], "class": 1, "score": 0.5, "box": [0, 0, 1, 1]}'
                       % ", ".join(["1"] * 100_000),
}


@pytest.mark.parametrize("case", list(OVERSIZED_RECORDS))
def test_detections_jsonl_error_on_an_oversized_value_is_bounded(tmp_path, case):
    from refimpl import read_detections_jsonl_json
    path = tmp_path / "big.jsonl"
    path.write_text(OVERSIZED_RECORDS[case] + "\n")
    with pytest.raises(ParseError) as err:
        pp.read_detections_jsonl(path)
    message = str(err.value)
    assert message.startswith(f"{path}:1: bad detection record (")
    assert len(message) - len(str(path)) <= 200, message
    with pytest.raises(ParseError) as ref:
        read_detections_jsonl_json(path)
    assert str(ref.value) == message
