import copy
import math
import re

import numpy as np
import pytest

from seqdet import tracker as TK
from seqdet.errors import ConfigError, ParseError
from seqdet.postproc import Detection, iou_matrix

from refimpl import (ReferenceTracker, naive_bilinear_resize, naive_box_descriptor,
                     naive_iou)


def det(score, box, av=None, cls=1):
    return Detection(cls, score, np.asarray(box, dtype=np.float64),
                     av=None if av is None else np.asarray(av, dtype=np.float64))


def tub(tid, dets, last_seen):
    """A hand-built tubelet. Its unit rows are its members' avs normalised,
    as update_tracks keeps them, or None when a member has no av."""
    dets = list(dets)
    units = (None if any(d.av is None for d in dets)
             else TK._unit_rows([d.av for d in dets]))
    return TK.Tubelet(tid, dets, last_seen, units)


def similarity_inputs(dets, tubs, mode):
    """The overlap block and unit avs tubelet_similarity takes, computed for
    dets and tubs alone."""
    overlap = np.exp(iou_matrix([d.box for d in dets], [t.objs[0].box for t in tubs]))
    units = TK._unit_rows([d.av for d in dets]) if mode == "attention_iou" else None
    return overlap, units


def similarity(dets, tubs, mode="attention_iou"):
    return TK.tubelet_similarity(*similarity_inputs(dets, tubs, mode), tubs)


def box_with_iou(r):
    """[0,0,r,1] has IoU exactly r against the unit box."""
    return np.array([0.0, 0.0, r, 1.0])


UNIT = np.array([0.0, 0.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# appearance descriptors


def test_attention_vector_constant_maps():
    maps = [np.full((1, s, s), 0.5) for s in (24, 12, 6)]
    av = TK.attention_vector_for_box(maps, UNIT)
    assert av.shape == (147,)
    assert np.all(av == 0.5)
    assert np.linalg.norm(av) == pytest.approx(0.5 * math.sqrt(147), rel=1e-12)


def test_attention_vector_length_and_missing_map():
    maps = [np.random.default_rng(0).random((1, s, s)) for s in (24, 12, 6)]
    assert TK.attention_vector_for_box(maps, UNIT).shape == (147,)
    with pytest.raises(ConfigError):
        TK.attention_vector_for_box(maps[:2], UNIT)


def test_attention_vector_matches_per_pixel_resampling():
    rng = np.random.default_rng(1)
    maps = [rng.random((1, s, s)) for s in (9, 5, 3)]
    av = TK.attention_vector_for_box(maps, UNIT)
    expect = np.concatenate([naive_bilinear_resize(m, 7, 7).reshape(-1) for m in maps])
    np.testing.assert_allclose(av, expect, rtol=1e-12, atol=1e-12)


def test_attention_vector_for_box_full_box_equals_whole_map():
    rng = np.random.default_rng(2)
    maps = [rng.random((1, s, s)) for s in (8, 4, 2)]
    a = np.concatenate([naive_bilinear_resize(m, 7, 7).reshape(-1) for m in maps])
    b = TK.attention_vector_for_box(maps, [0.0, 0.0, 1.0, 1.0])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_attention_vector_for_box_constant_region():
    m = np.zeros((1, 16, 16))
    m[0, 4:12, 4:12] = 0.7
    av = TK.attention_vector_for_box([m, m, m], [0.3, 0.3, 0.7, 0.7])
    np.testing.assert_allclose(av, 0.7, atol=1e-12)


def test_attention_vector_for_box_matches_per_sample_oracle():
    """Random boxes, partly outside the frame so the edge clamp is hit."""
    rng = np.random.default_rng(4)
    maps = [rng.random((1, s, s)) for s in (24, 12, 6)]
    for _ in range(200):
        x1, x2 = np.sort(rng.uniform(-0.2, 1.2, 2))
        y1, y2 = np.sort(rng.uniform(-0.2, 1.2, 2))
        box = [x1, y1, x2, y2]
        np.testing.assert_allclose(TK.attention_vector_for_box(maps, box),
                                   naive_box_descriptor(maps, box), rtol=1e-12, atol=1e-12)


def test_attention_similarity_basic():
    """With disjoint boxes (exp(IoU) = 1) the matrix is the cosine: 1 for a
    parallel vector at any scale, 0 for a zero vector."""
    rng = np.random.default_rng(3)
    a = rng.random(147) + 0.01
    b = rng.random(147) + 0.01
    far = [0.6, 0.6, 0.9, 0.9]
    dets = [det(0.5, [0.0, 0.0, 0.4, 0.4], v) for v in (a, 3.5 * a, np.zeros(147), b)]
    sim = similarity(dets, [tub(0, [det(0.9, far, a)], 1)])
    assert sim.shape == (4, 1)
    assert sim[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert sim[1, 0] == pytest.approx(1.0, rel=1e-12)
    assert sim[2, 0] == 0.0
    expect = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert sim[3, 0] == pytest.approx(expect, abs=1e-12)
    zero_member = tub(0, [det(0.9, far, np.zeros(147))], 1)
    assert similarity(dets[:1], [zero_member])[0, 0] == 0.0


def test_tubelet_similarity_hand_values():
    rng = np.random.default_rng(4)
    av = rng.random(147) + 0.01
    t0 = tub(0, [det(0.9, [0.0, 0.0, 0.4, 0.4], av)], 1)
    t1 = tub(1, [det(0.9, UNIT, av)], 1)
    other = det(0.5, [0.5, 0.5, 0.9, 0.9], av)
    same = det(0.5, UNIT, av)
    sim = similarity([other, same], [t0, t1])
    assert sim[0, 0] == pytest.approx(1.0)                   # as = 1, o = 0
    assert sim[1, 1] == pytest.approx(math.e, rel=1e-12)     # as = 1, o = 1
    assert sim[1, 0] == pytest.approx(math.exp(0.16), rel=1e-12)


def test_tubelet_similarity_averages_members():
    """Each entry is exp(IoU with the newest member) times the mean cosine
    over every member, for tubelets of different lengths."""
    rng = np.random.default_rng(5)
    tubs = [tub(i, [det(0.9, box_with_iou(r), rng.random(147) + 0.01)
                    for _ in range(n)] + [det(0.9, UNIT, rng.random(147) + 0.01)], 1)
            for i, (r, n) in enumerate([(0.25, 2), (0.5, 0), (0.75, 4)])]
    dets = [det(0.5, UNIT, rng.random(147) + 0.01),
            det(0.5, box_with_iou(0.5), rng.random(147) + 0.01)]
    got = similarity(dets, tubs)
    assert got.shape == (2, 3)
    for i, d in enumerate(dets):
        for j, t in enumerate(tubs):
            cos = [float(d.av @ m.av / (np.linalg.norm(d.av) * np.linalg.norm(m.av)))
                   for m in t.objs]
            o = naive_iou(d.box, t.objs[0].box)
            assert got[i, j] == pytest.approx(math.exp(o) * sum(cos) / len(cos),
                                              rel=1e-12), (i, j)


def test_tubelet_similarity_iou_only():
    """iou_only is exp(IoU) and reads no appearance vector."""
    dets = [det(0.5, box_with_iou(0.5)), det(0.5, box_with_iou(0.25))]
    tubs = [tub(0, [det(0.9, UNIT)], 1), tub(1, [det(0.9, box_with_iou(0.5))], 1)]
    got = similarity(dets, tubs, "iou_only")
    np.testing.assert_allclose(got, np.exp([[0.5, 1.0], [0.25, 0.5]]), rtol=1e-12)


# ---------------------------------------------------------------------------
# identity assignment hand traces


def test_single_tubelet_inheritance():
    av = np.full(147, 0.5)
    state = TK.TrackState(tubs={1: [tub(7, [det(0.9, UNIT, av)], 1)]}, next_id=8)
    obj = det(0.8, box_with_iou(math.log(1.2)), av)   # S = exp(o)*1 = 1.2
    out, state = TK.update_tracks([obj], state, TK.TrackerParams(), 2)
    assert out[0].id == 7
    assert state.tubs[1][0].last_seen == 2
    assert len(state.tubs[1][0].objs) == 2


def test_contested_tubelet_keeps_best_claimant():
    av = np.full(147, 0.5)
    state = TK.TrackState(tubs={1: [tub(7, [det(0.9, UNIT, av)], 1)]}, next_id=8)
    a = det(0.9, box_with_iou(math.log(1.5)), av)
    b = det(0.9, box_with_iou(math.log(1.1)), av)
    out, state = TK.update_tracks([a, b], state, TK.TrackerParams(), 2)
    assert a.id == 7
    assert b.id == 8            # fresh id after losing the contest
    assert state.next_id == 9
    ids = {t.id for t in state.tubs[1]}
    assert ids == {7, 8}


def test_generation_gate_blocks_low_confidence():
    state = TK.TrackState()
    obj = det(0.2, UNIT, np.full(147, 0.5))
    out, state = TK.update_tracks([obj], state, TK.TrackerParams(), 1)
    assert out[0].id == -1
    assert state.tubs == {}


def test_below_threshold_no_inheritance():
    av = np.full(147, 0.5)
    state = TK.TrackState(tubs={1: [tub(3, [det(0.9, UNIT, av)], 1)]}, next_id=4)
    obj = det(0.9, box_with_iou(1e-6), av)   # S barely above 1? exp(1e-6) ~ 1.000001
    out, _ = TK.update_tracks([obj], state, TK.TrackerParams(match_threshold=1.5), 2)
    assert out[0].id == 4      # new identity instead of inheritance


def test_carried_in_id_is_discarded():
    # a far detection wins no tubelet (exp(IoU 0) = 1 does not exceed T = 1);
    # the id it carries in must not survive as its identity
    state = TK.TrackState(tubs={1: [tub(3, [det(0.9, UNIT)], 1)]}, next_id=4)
    obj = det(0.9, [2.0, 2.0, 3.0, 3.0])
    obj.id = 7
    out, state = TK.update_tracks([obj], state, TK.TrackerParams(similarity="iou_only"), 2)
    assert out[0].id == 4
    assert state.next_id == 5
    assert sorted(t.id for t in state.tubs[1]) == [3, 4]


def test_tubelet_truncation_and_aging():
    av = np.full(147, 0.5)
    params = TK.TrackerParams(tub_len_max=3, max_miss=2)
    state = TK.TrackState(tubs={1: [tub(0, [det(0.9, UNIT, av)], 1)]}, next_id=1)
    for frame in range(2, 8):
        obj = det(0.9, UNIT, av)
        _, state = TK.update_tracks([obj], state, params, frame)
        assert len(state.tubs[1][0].objs) <= 3
    # now stop feeding detections; tubelet survives max_miss frames then drops
    _, state = TK.update_tracks([], state, params, 9)
    assert 1 in state.tubs
    _, state = TK.update_tracks([], state, params, 10)
    assert 1 not in state.tubs


def test_dropped_ids_never_reused():
    av = np.full(147, 0.5)
    params = TK.TrackerParams(max_miss=0)
    state = TK.TrackState()
    seen = set()
    for frame in range(1, 6):
        # alternate frames so each tubelet dies in between
        dets = [det(0.9, UNIT, av)] if frame % 2 else []
        out, state = TK.update_tracks(dets, state, params, frame)
        for d in out:
            assert d.id not in seen
            seen.add(d.id)


def test_ids_unique_within_frame_and_class():
    rng = np.random.default_rng(6)
    params = TK.TrackerParams()
    state = TK.TrackState()
    for frame in range(1, 20):
        dets = []
        for _ in range(int(rng.integers(0, 6))):
            x1, y1 = rng.random(2) * 0.6
            dets.append(det(float(rng.uniform(0.2, 1.0)),
                            [x1, y1, x1 + 0.3, y1 + 0.3],
                            rng.random(147) + 0.01,
                            cls=int(rng.integers(1, 3))))
        out, state = TK.update_tracks(dets, state, params, frame)
        for cls in (1, 2):
            ids = [d.id for d in out if d.class_id == cls and d.id >= 0]
            assert len(ids) == len(set(ids))


def test_tracker_deterministic():
    def run():
        rng = np.random.default_rng(7)
        frames = [(frame, [det(float(rng.uniform(0.3, 1.0)),
                               np.sort(rng.random(4)).tolist(),
                               rng.random(147) + 0.01)
                           for _ in range(int(rng.integers(0, 5)))])
                  for frame in range(1, 15)]
        return [[d.id for d in out] for _f, out in TK.track_frames(frames)]

    assert run() == run()


# ---------------------------------------------------------------------------
# exhaustive oracle


def ota_reference(dets, tubs, params, frame_idx, next_id):
    """Independent single-class restatement of the assignment rules."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    ids = [-1] * len(dets)
    claims = {}
    if tubs:
        for i in order:
            best_s, best_t = 0.0, None
            for ti, t in enumerate(tubs):
                o = naive_iou(dets[i].box, t.objs[0].box)
                if params.similarity == "iou_only":
                    s = math.exp(o)
                else:
                    cs = [float(dets[i].av @ m.av
                                / (np.linalg.norm(dets[i].av) * np.linalg.norm(m.av)))
                          for m in t.objs]
                    s = math.exp(o) * sum(cs) / len(cs)
                if s > best_s:
                    best_s, best_t = s, ti
            if best_t is not None and best_s > params.match_threshold:
                ids[i] = tubs[best_t].id
                claims.setdefault(best_t, []).append((best_s, i))
        for ti, lst in claims.items():
            if len(lst) > 1:
                best = max(range(len(lst)), key=lambda j: lst[j][0])
                for j, (_s, i) in enumerate(lst):
                    if j != best:
                        ids[i] = -1
                claims[ti] = [lst[best]]
    winners = {tubs[ti].id: i for ti, lst in claims.items() for (_s, i) in lst}
    new_tubs = []
    for i in order:
        if ids[i] == -1 and dets[i].score > params.generation_score:
            ids[i] = next_id
            new_tubs.append((next_id, [i], frame_idx))
            next_id += 1
    survivors = {}
    for t in tubs:
        if t.id in winners:
            members = [winners[t.id]] + ["old"] * len(t.objs)
            survivors[t.id] = (members[:params.tub_len_max], frame_idx)
        elif frame_idx - t.last_seen <= params.max_miss:
            survivors[t.id] = (["old"] * len(t.objs), t.last_seen)
    for tid, members, seen in new_tubs:
        survivors[tid] = (members, seen)
    return ids, survivors, next_id


@pytest.mark.parametrize("mode", ["attention_iou", "iou_only"])
def test_update_matches_exhaustive_reference(mode):
    rng = np.random.default_rng(8)
    for case in range(120):
        params = TK.TrackerParams(
            match_threshold=float(rng.uniform(0.6, 1.4)),
            generation_score=0.3, tub_len_max=int(rng.integers(1, 5)),
            max_miss=int(rng.integers(0, 4)), similarity=mode)
        frame_idx = int(rng.integers(2, 12))
        n_tubs = int(rng.integers(0, 7))
        n_dets = int(rng.integers(0, 7))
        next_id = 100
        tubs = []
        for ti in range(n_tubs):
            members = [det(0.9, np.sort(rng.random(4)).tolist(), rng.random(147) + 0.01)
                       for _ in range(int(rng.integers(1, 4)))]
            tubs.append(tub(ti, members, int(rng.integers(max(1, frame_idx - 5),
                                                          frame_idx))))
        dets = [det(float(rng.uniform(0.1, 1.0)), np.sort(rng.random(4)).tolist(),
                    rng.random(147) + 0.01) for _ in range(n_dets)]

        ref_ids, ref_tubs, _ = ota_reference(dets, tubs, params, frame_idx, next_id)

        state = TK.TrackState(tubs={1: [tub(t.id, t.objs, t.last_seen)
                                        for t in tubs]} if tubs else {},
                              next_id=next_id)
        out, state = TK.update_tracks(list(dets), state, params, frame_idx)
        assert [d.id for d in dets] == ref_ids, case
        got_tubs = {t.id: (len(t.objs), t.last_seen) for t in state.tubs.get(1, [])}
        want_tubs = {tid: (len(members), seen)
                     for tid, (members, seen) in ref_tubs.items()}
        assert got_tubs == want_tubs, case


def random_stream(rng, num_classes, num_frames):
    """[(frame_idx, dets), ...] of up to three drifting identities per class
    plus clutter. Frame indices skip now and then; identities blink, a class
    starts late or drops out for a frame (tubelets without detections and
    detections without tubelets), and every detection's av is its identity's
    plus noise, an occasional one zero. Each frame's list is shuffled."""
    idents = []
    for cls in range(1, num_classes + 1):
        start = int(rng.integers(1, 4))
        for _ in range(int(rng.integers(0, 4))):
            idents.append((cls, start, rng.uniform(0.0, 0.6, 2), rng.uniform(0.15, 0.4, 2),
                           rng.uniform(-0.04, 0.04, 2), rng.random(147) + 0.01))
    frames, fidx = [], 0
    for t in range(num_frames):
        fidx += int(rng.integers(1, 3))
        absent = {c for c in range(1, num_classes + 1) if rng.random() < 0.15}
        dets = []
        for cls, start, pos, size, vel, base in idents:
            if t < start or cls in absent or rng.random() < 0.2:
                continue
            xy = pos + vel * t + rng.normal(0.0, 0.01, 2)
            av = np.zeros(147) if rng.random() < 0.03 else base + rng.random(147)
            dets.append(det(float(rng.uniform(0.1, 1.0)), [*xy, *(xy + size)], av, cls))
        for _ in range(int(rng.integers(0, 3))):
            xy = rng.uniform(0.0, 0.7, 2)
            dets.append(det(float(rng.uniform(0.1, 1.0)), [*xy, *(xy + 0.25)],
                            rng.random(147), int(rng.integers(1, num_classes + 1))))
        frames.append((fidx, [dets[i] for i in rng.permutation(len(dets))]))
    return frames


def ids_of(tracked):
    return [[d.id for d in dets] for _fidx, dets in tracked]


@pytest.mark.parametrize("mode", ["attention_iou", "iou_only"])
def test_track_frames_matches_the_stateful_reference(mode):
    """About 100 streams over 1-4 classes, frame by frame, against a tracker
    that recomputes every overlap and cosine from the detections: a cached
    descriptor gone stale, a block read from the wrong class or a slip in
    truncation or aging shows as a different id."""
    rng = np.random.default_rng(23)
    for case in range(50):
        params = TK.TrackerParams(match_threshold=float(rng.uniform(0.7, 1.5)),
                                  tub_len_max=int(rng.integers(1, 5)),
                                  max_miss=int(rng.integers(0, 4)), similarity=mode)
        frames = random_stream(rng, int(rng.integers(1, 5)), 14)
        ref = ReferenceTracker(params.match_threshold, params.generation_score,
                               params.tub_len_max, params.max_miss, mode)
        want = [ref.step(fidx, dets) for fidx, dets in frames]
        got = ids_of(TK.track_frames(frames, params))
        for (fidx, _dets), g, w in zip(frames, got, want):
            assert g == w, (case, fidx)


def test_tubelet_units_are_the_unit_avs_of_its_members():
    """After every frame, each tubelet's cached rows are bit for bit
    _unit_rows of its members, truncated with them."""
    frames = random_stream(np.random.default_rng(29), 3, 24)
    params = TK.TrackerParams(tub_len_max=3, max_miss=2)
    state = TK.TrackState()
    seen = 0
    for fidx, dets in frames:
        _, state = TK.update_tracks(dets, state, params, fidx)
        for tubs in state.tubs.values():
            for t in tubs:
                want = TK._unit_rows([m.av for m in t.objs])
                assert t.units is not None and len(t.objs) <= 3
                assert t.units.shape == want.shape, (fidx, t.id)
                assert np.array_equal(t.units.view(np.uint64), want.view(np.uint64)), (fidx, t.id)
                seen += len(t.objs) == 3
    assert seen > 0                  # truncation was reached


def test_tracking_the_same_detections_again_gives_the_same_ids():
    """track_frames keeps nothing on the detections: a second and third run
    over the same objects give the ids of a run over fresh copies."""
    frames = random_stream(np.random.default_rng(31), 3, 16)
    want = ids_of(TK.track_frames(copy.deepcopy(frames)))
    for _ in range(2):
        assert ids_of(TK.track_frames(frames)) == want


@pytest.mark.parametrize("mode", ["attention_iou", "iou_only"])
def test_similarity_is_bitwise_a_fresh_per_class_computation(mode, monkeypatch):
    """Each similarity block update_tracks takes from its frame-wide overlap
    and cached unit rows equals, bit for bit, one computed for the class
    alone from its detections and freshly built tubelets."""
    frames = random_stream(np.random.default_rng(37), 4, 20)
    params = TK.TrackerParams(tub_len_max=4, max_miss=2, similarity=mode)
    real = TK.tubelet_similarity
    current, classes_seen = [], []

    def checked(overlap, units, tubs):
        got = real(overlap, units, tubs)
        cls = tubs[0].objs[0].class_id
        dets = sorted((d for d in current if d.class_id == cls), key=lambda d: -d.score)
        fresh = [tub(t.id, t.objs, t.last_seen) for t in tubs]
        want = real(*similarity_inputs(dets, fresh, mode), fresh)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), cls
        classes_seen.append(cls)
        return got

    monkeypatch.setattr(TK, "tubelet_similarity", checked)
    state = TK.TrackState()
    for fidx, dets in frames:
        current[:] = dets
        _, state = TK.update_tracks(dets, state, params, fidx)
    assert len(set(classes_seen)) > 2


# ---------------------------------------------------------------------------
# MOT CSV round trip


def test_mot_csv_write_format(tmp_path):
    d = det(0.8765, [0.1, 0.2, 0.3, 0.5])
    d.id = 4
    skip = det(0.9, [0.0, 0.0, 0.1, 0.1])   # unassigned, not written
    path = tmp_path / "res.csv"
    TK.write_mot_csv(path, [(1, [d, skip])])
    assert path.read_text() == "1,5,9.60,19.20,19.20,28.80,0.8765,-1,-1,-1\n"


def test_mot_csv_round_trip_and_ingest(tmp_path):
    rng = np.random.default_rng(9)
    frames = []
    for f in range(1, 4):
        dets = []
        for i in range(2):
            x1, y1 = rng.random(2) * 0.5
            d = det(float(rng.uniform(0.4, 1.0)), [x1, y1, x1 + 0.2, y1 + 0.3])
            d.id = f * 2 + i
            dets.append(d)
        frames.append((f, dets))
    path = tmp_path / "res.csv"
    TK.write_mot_csv(path, frames)
    back = TK.ingest_detections(path)
    assert [f for f, _ in back] == [1, 2, 3]
    for (f, orig), (_, rd) in zip(frames, back):
        for a, b in zip(orig, rd):
            assert b.id == a.id
            np.testing.assert_allclose(b.box, a.box, atol=1e-3)


def test_ingest_with_embedding_sidecar(tmp_path):
    from seqdet.tensor import save_tnsr
    d1 = det(0.9, [0.1, 0.1, 0.4, 0.4])
    d1.id = 0
    d2 = det(0.8, [0.5, 0.5, 0.9, 0.9])
    d2.id = 1
    TK.write_mot_csv(tmp_path / "r.csv", [(1, [d1]), (2, [d2])])
    emb = np.random.default_rng(10).random((2, 16)).astype(np.float32)
    save_tnsr(tmp_path / "emb.tnsr", emb)
    back = TK.ingest_detections(tmp_path / "r.csv", tmp_path / "emb.tnsr")
    np.testing.assert_allclose(back[0][1][0].av, emb[0], atol=1e-7)
    np.testing.assert_allclose(back[1][1][0].av, emb[1], atol=1e-7)
    save_tnsr(tmp_path / "bad.tnsr", emb[:1])
    with pytest.raises(ParseError):
        TK.ingest_detections(tmp_path / "r.csv", tmp_path / "bad.tnsr")


def test_mot_csv_parse_error_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,1,0,0,5,5,0.9,-1,-1,-1\n1,2,x,0,5,5,0.9,-1,-1,-1\n")
    with pytest.raises(ParseError, match=":2:"):
        TK.read_mot_csv(p)
    p.write_text("1,1,0,0\n")
    with pytest.raises(ParseError, match=":1:"):
        TK.read_mot_csv(p)


@pytest.mark.parametrize("frame,tid", [("inf", "1"), ("1", "1e400"), ("-inf", "2"),
                                       pytest.param("1" * 400, "1", id="400_digits-1"),
                                       pytest.param("1", "9" * 400, id="1-400_digits"),
                                       ("9223372036854775808", "1"), ("1", "1e30")])
def test_mot_csv_frame_or_id_beyond_int_is_parse_error(tmp_path, frame, tid):
    p = tmp_path / "big.csv"
    p.write_text(f"1,1,0,0,5,5,0.9\n{frame},{tid},0,0,5,5,0.9\n")
    with pytest.raises(ParseError, match=r"big\.csv:2: bad number"):
        TK.read_mot_csv(p)


def test_mot_csv_fractional_frame_or_id_is_parse_error(tmp_path):
    p = tmp_path / "frac.csv"
    p.write_text("1.5,2.9,0,0,5,5,0.9,-1,-1,-1\n")
    with pytest.raises(ParseError, match=r"frac\.csv:1: bad number \(frame, id and class "
                                         r"must be whole numbers within 64 bits, "
                                         r"got '1\.5', '2\.9'\)$"):
        TK.read_mot_csv(p)
    p.write_text("1,1,0,0,5,5,0.9\n2,2.5,0,0,5,5,0.9\n")
    with pytest.raises(ParseError, match=r"frac\.csv:2: bad number \(frame, id and class "
                                         r"must be whole numbers within 64 bits, "
                                         r"got '2', '2\.5'\)$"):
        TK.read_mot_csv(p)


def test_mot_csv_whole_number_floats_load(tmp_path):
    p = tmp_path / "floats.csv"
    p.write_text("1.0,2.000,0,0,5,5,0.9\n")
    (row,) = TK.read_mot_csv(p)
    assert row[:2] == (1, 2)
    assert type(row[0]) is int and type(row[1]) is int


def test_mot_csv_class_column_is_stored_as_the_int_it_was_checked_as(tmp_path):
    p = tmp_path / "cls.csv"
    p.write_text("1,1,0,0,5,5,0.9,-1,-1,-1,3.0\n"
                 "2,1,0,0,5,5,0.9,-1,-1,-1,9223372036854775807\n")
    rows = TK.read_mot_csv(p)
    assert [r[10] for r in rows] == [3, 2**63 - 1]
    assert all(type(r[10]) is int for r in rows)
    assert [d.class_id for _f, dets in TK.ingest_detections(p) for d in dets] == [3, 2**63 - 1]


@pytest.mark.parametrize("fields", ["nan,0,5,5,0.9", "0,inf,5,5,0.9", "0,0,-inf,5,0.9",
                                    "0,0,5,nan,0.9", "0,0,5,5,nan", "0,0,5,5,inf"],
                         ids=["left_nan", "top_inf", "width_minus_inf", "height_nan",
                              "conf_nan", "conf_inf"])
def test_mot_csv_non_finite_box_or_conf_is_parse_error(tmp_path, fields):
    p = tmp_path / "vals.csv"
    p.write_text(f"1,1,0,0,5,5,0.9\n2,1,{fields},-1,-1,-1\n")
    with pytest.raises(ParseError, match=r"vals\.csv:2: box and conf must be finite"):
        TK.read_mot_csv(p)


@pytest.mark.parametrize("cls", ["inf", "nan", "2.5", "-inf",
                                 pytest.param("2" * 400, id="400_digits"),
                                 "9223372036854775808"])
def test_ingest_class_column_must_be_an_integer(tmp_path, cls):
    """The message quotes the class field, cut to 32 characters and '...'."""
    p = tmp_path / "cls.csv"
    p.write_text(f"1,1,0,0,5,5,0.9,-1,-1,-1,2\n1,2,0,0,5,5,0.9,-1,-1,-1,{cls}\n")
    want = repr(cls) if len(cls) <= 30 else repr(cls)[:32] + "..."
    with pytest.raises(ParseError, match=rf"cls\.csv:2: bad number \(frame, id and class "
                                         rf"must be whole numbers within 64 bits, "
                                         rf"got '1', '2', {re.escape(want)}\)$"):
        TK.ingest_detections(p)


def test_ingest_rejects_a_non_finite_embedding_row(tmp_path):
    from seqdet.tensor import save_tnsr
    p = tmp_path / "r.csv"
    p.write_text("1,1,0,0,5,5,0.9\n2,1,0,0,5,5,0.9\n3,1,0,0,5,5,0.9\n")
    emb = np.ones((3, 4))
    emb[1, 2] = np.inf
    save_tnsr(tmp_path / "emb.tnsr", emb)
    with pytest.raises(ParseError, match=r"emb\.tnsr: embedding row 2 of 3 is not finite"):
        TK.ingest_detections(p, tmp_path / "emb.tnsr")


def test_track_frames_checks_appearance_before_the_first_frame(monkeypatch):
    def no_update(*_args):
        raise AssertionError("a frame was tracked")

    monkeypatch.setattr(TK, "update_tracks", no_update)
    frames = [(1, [det(0.9, UNIT, np.ones(3))]), (2, [det(0.9, UNIT)])]
    with pytest.raises(ConfigError, match="frame 2: a class 1 detection has no "
                                          "appearance vector"):
        TK.track_frames(frames)
    frames[1][1][0].av = np.ones(2)
    with pytest.raises(ConfigError, match="length 2, not 3"):
        TK.track_frames(frames)


def test_update_tracks_refuses_a_detection_without_av():
    """A direct update_tracks call in attention_iou mode gives track_frames'
    one-line ConfigError for a missing av, with or without tubelets."""
    for tubs in ({}, {2: [tub(0, [det(0.9, UNIT, np.ones(3), cls=2)], 1)]}):
        state = TK.TrackState(tubs=tubs, next_id=1)
        dets = [det(0.9, UNIT, np.ones(3)), det(0.8, UNIT, cls=2)]
        with pytest.raises(ConfigError) as exc:
            TK.update_tracks(dets, state, TK.TrackerParams(), 2)
        assert str(exc.value) == ("frame 2: a class 2 detection has no appearance vector; "
                                  "track it with --similarity iou_only, or give --mot "
                                  "input its --embeddings")
    out, _ = TK.update_tracks([det(0.8, UNIT, cls=2)], TK.TrackState(),
                              TK.TrackerParams(similarity="iou_only"), 1)
    assert out[0].id == 0            # iou_only reads no av


def test_tracker_params_validation():
    with pytest.raises(ConfigError):
        TK.TrackerParams(match_threshold=0.0).validate()
    with pytest.raises(ConfigError, match="match_threshold must be > 0, got nan"):
        TK.TrackerParams(match_threshold=math.nan).validate()
    with pytest.raises(ConfigError, match="match_threshold must be finite, got inf"):
        TK.TrackerParams(match_threshold=math.inf).validate()
    with pytest.raises(ConfigError):
        TK.TrackerParams(generation_score=0.0).validate()
    with pytest.raises(ConfigError):
        TK.TrackerParams(tub_len_max=0).validate()
    with pytest.raises(ConfigError):
        TK.TrackerParams(similarity="l2").validate()
    with pytest.raises(ConfigError, match="max_miss must be >= 0, got -1"):
        TK.TrackerParams(max_miss=-1).validate()


@pytest.mark.parametrize("row", ["1,1,%s,0,5,5,0.9" % ("x" * 200_000),
                                 "%s,1,0,0,5,5,0.9" % ("x" * 200_000),
                                 "%s,1,0,0,5,5,0.9" % ("1" * 200_000),
                                 "1,1,0,0,5,5,0.9,-1,-1,-1,%s" % ("2.5" * 70_000)],
                         ids=["box_text", "frame_text", "frame_digits", "class_fraction"])
def test_mot_csv_error_on_an_oversized_field_is_bounded(tmp_path, row):
    """float() quotes all of a field it cannot read; the row's message
    quotes at most errors.QUOTE_CHARS characters of it."""
    p = tmp_path / "big.csv"
    p.write_text(row + "\n")
    with pytest.raises(ParseError) as err:
        TK.read_mot_csv(p)
    message = str(err.value)
    assert message.startswith(f"{p}:1: bad number (")
    assert len(message) - len(str(p)) <= 200, message
