import numpy as np
import pytest

from seqdet import postproc as pp
from seqdet import tensor as T
from seqdet.errors import ConfigError, ParseError
from seqdet.net import HeadOut
from seqdet.train import detections_for_frame

from refimpl import naive_iou, naive_nms


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
        assert v == pytest.approx(naive_iou(a, b), abs=1e-15)


def test_iou_zero_area_boxes_defined_zero():
    a = np.array([0.2, 0.2, 0.2, 0.6])
    assert pp.iou(a, a) == 0.0
    assert pp.iou(a, np.array([0.0, 0.0, 1.0, 1.0])) == 0.0


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    boxes = []
    for _ in range(8):
        x1, y1 = rng.random(2) * 0.5
        boxes.append([x1, y1, x1 + rng.random() * 0.5, y1 + rng.random() * 0.5])
    boxes = np.array(boxes)
    m = pp.iou_matrix(boxes, boxes)
    for i in range(8):
        for j in range(8):
            assert m[i, j] == pytest.approx(pp.iou(boxes[i], boxes[j]), abs=1e-15)


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


def array_head(deltas, logits):
    """A net.HeadOut of fixed per-prior offset and logit arrays."""
    return HeadOut(T.constant(deltas), T.constant(logits))


def test_detect_uniform_zero_logits_yields_nothing():
    priors = pp.make_priors()
    deltas = np.zeros((len(priors), 4))
    logits = np.zeros((len(priors), 5))   # 4 classes + background -> scores 0.2
    out = detections_for_frame(array_head(deltas, logits), priors, 0.3, "vid", 4)
    assert out == []


def test_detect_single_dominant_prior():
    priors = pp.make_priors()
    deltas = np.zeros((len(priors), 4))
    logits = np.zeros((len(priors), 5))
    logits[37, 2] = 12.0
    out = detections_for_frame(array_head(deltas, logits), priors, 0.3, "vid", 4)
    assert len(out) == 1
    assert out[0].class_id == 2
    assert out[0].prior_index == 37
    np.testing.assert_allclose(out[0].box, pp.decode(priors, deltas)[37])


def test_detect_equals_manual_composition():
    rng = np.random.default_rng(5)
    priors = pp.make_priors()
    deltas = rng.standard_normal((len(priors), 4)) * 0.3
    logits = rng.standard_normal((len(priors), 5)) * 2
    out = detections_for_frame(array_head(deltas, logits), priors, 0.25, "mot", 4)

    boxes = pp.decode(priors, deltas)
    probs = pp.softmax_rows(logits)
    manual = []
    prof = pp.get_profile("mot")
    for c in range(1, 5):
        cand = [pp.Detection(c, float(probs[i, c]), boxes[i], prior_index=i)
                for i in np.nonzero(probs[:, c] > 0.25)[0]]
        manual.extend(pp.nms(cand, prof.nms_iou, prof.keep_top))
    assert len(out) == len(manual)
    for a, b in zip(out, manual):
        assert (a.class_id, a.prior_index) == (b.class_id, b.prior_index)
        assert a.score == b.score


def test_detections_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    d1 = _det(0.9, [0.1, 0.2, 0.3, 0.4], cls=2)
    d1.av = rng.random(147)
    d1.id = 5
    d2 = _det(0.4, [0.5, 0.5, 0.7, 0.8], cls=1)
    path = tmp_path / "dets.jsonl"
    pp.write_detections_jsonl(path, [(1, [d1]), (2, [d2])])
    back = pp.read_detections_jsonl(path)
    assert set(back) == {1, 2}
    r1 = back[1][0]
    assert r1.class_id == 2 and r1.id == 5
    np.testing.assert_allclose(r1.av, d1.av, atol=1e-16)
    assert back[2][0].av is None
    # av omitted on the line itself when absent
    lines = path.read_text().strip().splitlines()
    assert "av" in lines[0] and "av" not in lines[1]


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
