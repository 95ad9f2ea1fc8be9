import numpy as np
import pytest

from seqdet import synth
from seqdet import tensor as T
from seqdet import tracker as TK
from seqdet.errors import ConfigError, ParseError
from seqdet.postproc import iou

from refimpl import gen_sequence_reference


def test_same_seed_reproduces_bitwise():
    a = synth.gen_sequence(synth.random_scene(7, num_objects=3, length=6))
    b = synth.gen_sequence(synth.random_scene(7, num_objects=3, length=6))
    assert len(a.frames) == 6
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)
    for ga, gb in zip(a.gt, b.gt):
        for xa, xb in zip(ga, gb):
            assert np.array_equal(xa.box_px, xb.box_px)
            assert (xa.obj_id, xa.class_id) == (xb.obj_id, xb.class_id)


def test_zero_objects_gives_background_only():
    seq = synth.gen_sequence(synth.SceneSpec(length=3, seed=1))
    assert all(len(g) == 0 for g in seq.gt)
    assert np.array_equal(seq.frames[0], seq.frames[2])


def test_static_object_box_constant():
    spec = synth.SceneSpec(length=5, seed=2, objects=[
        synth.ObjectSpec(0, 2, cx=40, cy=40, vx=0.0, vy=0.0, size=20)])
    seq = synth.gen_sequence(spec)
    for g in seq.gt:
        np.testing.assert_array_equal(g[0].box_px, seq.gt[0][0].box_px)


def test_boxes_stay_inside_canvas_and_ids_persist():
    for seed in range(5):
        seq = synth.gen_sequence(synth.random_scene(seed, num_objects=3, length=24))
        ids0 = {g.obj_id for g in seq.gt[0]}
        for boxes in seq.gt:
            assert {g.obj_id for g in boxes} == ids0
            for g in boxes:
                l, t, w, h = g.box_px
                assert l >= -1e-9 and t >= -1e-9
                assert l + w <= synth.CANVAS + 1e-9
                assert t + h <= synth.CANVAS + 1e-9
                assert w >= synth.MIN_BOX and h >= synth.MIN_BOX


def test_frames_shape_and_range():
    seq = synth.gen_sequence(synth.random_scene(3, num_objects=2, length=2))
    f = seq.frames[0]
    assert f.shape == (3, 96, 96)
    assert f.min() >= 0.0 and f.max() <= 1.0


def test_crossing_pair_overlaps_somewhere():
    for seed in range(10):
        seq = synth.gen_sequence(synth.crossing_pair(seed))
        best = max(iou(g[0].corners_norm(), g[1].corners_norm()) for g in seq.gt)
        assert best > 0.3


def test_crossing_pair_same_class():
    seq = synth.gen_sequence(synth.crossing_pair(0))
    assert seq.gt[0][0].class_id == seq.gt[0][1].class_id


def test_scale_change_size_ramps():
    seq = synth.gen_sequence(synth.build_scenario("scale-change", 4))
    w0 = seq.gt[0][0].box_px[2]
    w_last = seq.gt[-1][0].box_px[2]
    assert w_last > 2 * w0


@pytest.mark.parametrize("length", [1, 0, -3])
def test_crossing_pair_refuses_fewer_than_two_frames(length):
    with pytest.raises(ConfigError, match=rf"crossing pair needs >= 2 frames, got {length}$"):
        synth.crossing_pair(0, length=length)
    assert len(synth.gen_sequence(synth.crossing_pair(0, length=2)).frames) == 2


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        synth.build_scenario("zoom", 0)


def test_random_scene_refuses_a_negative_object_count():
    assert synth.random_scene(0, num_objects=0).objects == []
    with pytest.raises(ConfigError, match="number of objects must be >= 0, got -3"):
        synth.random_scene(0, num_objects=-3)


def test_invalid_spec_rejected():
    spec = synth.SceneSpec(length=0)
    with pytest.raises(ConfigError):
        synth.gen_sequence(spec)
    spec = synth.SceneSpec(length=2, objects=[
        synth.ObjectSpec(0, 9, 40, 40, 0, 0, 20)])
    with pytest.raises(ConfigError):
        synth.gen_sequence(spec)


def test_dataset_round_trip(tmp_path):
    seq = synth.gen_sequence(synth.random_scene(11, num_objects=2, length=4))
    synth.write_dataset(seq, tmp_path / "v0")
    vid = synth.load_video_dir(tmp_path / "v0")
    assert len(vid.frames) == 4
    # f32 file round trip, so compare at f32 resolution
    np.testing.assert_allclose(vid.frames[0], seq.frames[0], atol=1e-6)
    assert vid.classes[0].tolist() == [g.class_id for g in seq.gt[0]]
    np.testing.assert_allclose(
        vid.boxes_norm[2],
        np.stack([g.corners_norm() for g in seq.gt[2]]), atol=1e-3)
    roots = synth.load_dataset_root(tmp_path)
    assert len(roots) == 1 and roots[0].name == "v0"


def _two_frame_video(tmp_path, gt_row, shapes=((3, 8, 8), (3, 8, 8))):
    video = tmp_path / "vid"
    (video / "frames").mkdir(parents=True)
    for i, shape in enumerate(shapes, start=1):
        T.save_tnsr(video / "frames" / f"{i:06d}.tnsr", np.zeros(shape))
    (video / "gt.csv").write_text("1,1,1,2,3,4,1,-1,-1,-1,2\n" + gt_row + "\n")
    return video


@pytest.mark.parametrize("row,message", [
    ("1,1,nan,2,inf,-4,1,-1,-1,-1,2", "finite"),
    ("2,1,1,2,3,inf,1,-1,-1,-1,2", "finite"),
    ("2,1,1,2,0,4,1,-1,-1,-1,2", "width and height"),
    ("2,1,1,2,3,-4,1,-1,-1,-1,2", "width and height"),
    ("3,1,1,2,3,4,1,-1,-1,-1,2", "frame 3 outside 1..2"),
    ("0,1,1,2,3,4,1,-1,-1,-1,2", "frame 0 outside 1..2"),
    ("2,1,1,2,3,4,1,-1,-1,-1,0", "class 0"),
    ("2,99999999999999999999,1,2,3,4,1,-1,-1,-1,2", "whole numbers within 64 bits"),
    ("2,-9223372036854775809,1,2,3,4,1,-1,-1,-1,2", "whole numbers within 64 bits"),
    ("2,1,1,2,3,4,1,-1,-1,-1,9223372036854775808", "whole numbers within 64 bits"),
    ("2,1,1,2,3,4,1,-1,-1,-1," + "1" * 400, "whole numbers within 64 bits"),
], ids=["nan_box", "inf_height", "zero_width", "negative_height", "frame_past_end",
        "frame_0", "class_0", "id_past_int64", "id_below_int64", "class_past_int64",
        "class_400_digits"])
def test_gt_row_with_unusable_values_is_parse_error(tmp_path, row, message):
    video = _two_frame_video(tmp_path, row)
    with pytest.raises(ParseError, match=rf"gt\.csv:2: .*{message}"):
        synth.load_video_dir(video)


def _one_row_video(tmp_path, gt_row):
    video = tmp_path / "vid"
    (video / "frames").mkdir(parents=True)
    T.save_tnsr(video / "frames" / "000001.tnsr", np.zeros((3, 8, 8)))
    (video / "gt.csv").write_text(gt_row + "\n")
    return video


@pytest.mark.parametrize("row", ["1.0,1,1,2,3,4,1,-1,-1,-1,2", "1,1.0,1,2,3,4,1,-1,-1,-1,2",
                                 "1,1,1,2,3,4,1,-1,-1,-1,2.0", "1e0,3.000,1,2,3,4,1,-1,-1,-1,2"],
                         ids=["frame", "id", "class", "exponent"])
def test_gt_whole_number_floats_load_in_both_mot_readers(tmp_path, row):
    """load_video_dir reads gt.csv through tracker.mot_rows, the reader
    behind read_mot_csv: both give the same ints."""
    video = _one_row_video(tmp_path, row)
    vid = synth.load_video_dir(video)
    (mot,) = TK.read_mot_csv(video / "gt.csv")
    assert mot[0] == 1 and type(mot[0]) is int and type(mot[1]) is int
    assert type(mot[10]) is int
    assert vid.classes[0].tolist() == [mot[10]] == [2]


@pytest.mark.parametrize("row", ["1.5,1,1,2,3,4,1,-1,-1,-1,2", "1,1.5,1,2,3,4,1,-1,-1,-1,2",
                                 "1,1,1,2,3,4,1,-1,-1,-1,1.5", "1,inf,1,2,3,4,1,-1,-1,-1,2",
                                 "1,1,1,2,3,4,1,-1,-1,-1," + "2" * 400,
                                 "1" * 400 + ",1,1,2,3,4,1,-1,-1,-1,2"],
                         ids=["frame", "id", "class", "id_inf", "class_400_digits",
                              "frame_400_digits"])
def test_gt_fractional_integer_field_fails_in_both_mot_readers(tmp_path, row):
    """One rule and one message, whichever entry point reads the row."""
    video = _one_row_video(tmp_path, row)
    with pytest.raises(ParseError, match=r"gt\.csv:1: bad number \(frame, id and class "
                                         r"must be whole numbers within 64 bits, got ") as gt:
        synth.load_video_dir(video)
    with pytest.raises(ParseError) as mot:
        TK.read_mot_csv(video / "gt.csv")
    assert str(gt.value) == str(mot.value)
    assert "\n" not in str(gt.value)


@pytest.mark.parametrize("row,message", [
    ("2,1,1,2,3,4", "expected >= 7 columns, got 6"),
    ("2,1,1,2,3", "expected >= 7 columns, got 5"),
    ("2,1,1,2,3,4,x,-1,-1,-1,2", "bad number"),
    ("2,1,1,2,3,4,1,-1,n/a,-1,2", "bad number"),
    ("2,1,1,2,3,4,nan,-1,-1,-1,2", "box and conf must be finite"),
], ids=["six_columns", "five_columns", "conf_not_a_number", "column_9_not_a_number",
        "conf_nan"])
def test_gt_row_is_read_under_the_mot_csv_rules(tmp_path, row, message):
    """gt.csv needs the 7 MOT columns, every column a number and a finite
    conf, like any MOT CSV."""
    video = _two_frame_video(tmp_path, row)
    with pytest.raises(ParseError, match=rf"gt\.csv:2: {message}"):
        synth.load_video_dir(video)


def test_gt_row_without_a_class_column_is_class_1(tmp_path):
    vid = synth.load_video_dir(_two_frame_video(tmp_path, "2,7,8,16,4,2,1,-1,-1,-1"))
    assert vid.classes[1].tolist() == [1]
    np.testing.assert_array_equal(vid.boxes_norm[1], [[1.0, 2.0, 1.5, 2.25]])


@pytest.mark.parametrize("shapes", [((3, 8, 8), (3, 6, 6)), ((3, 8, 8), (1, 8, 8)),
                                    ((3, 8, 6), (3, 8, 6)), ((8, 8), (8, 8))],
                         ids=["smaller_second", "one_channel_second", "not_square",
                              "rank_2"])
def test_frames_of_another_shape_are_config_error(tmp_path, shapes):
    video = _two_frame_video(tmp_path, "2,1,1,2,3,4,1,-1,-1,-1,2", shapes)
    with pytest.raises(ConfigError, match=r"frames/00000[12]\.tnsr: ") as err:
        synth.load_video_dir(video)
    assert "\n" not in str(err.value)


def test_identity_embeddings_separate_and_stable():
    e0 = synth.identity_embedding(5, 0)
    e0b = synth.identity_embedding(5, 0)
    e1 = synth.identity_embedding(5, 1)
    assert np.array_equal(e0, e0b)
    cos = e0 @ e1 / (np.linalg.norm(e0) * np.linalg.norm(e1))
    assert cos < 0.85


def test_oracle_detections_match_gt_layout():
    seq = synth.gen_sequence(synth.crossing_pair(3, length=6))
    frames = synth.oracle_detections(seq)
    assert [f for f, _ in frames] == list(range(1, 7))
    for (fidx, dets), boxes in zip(frames, seq.gt):
        assert len(dets) == len(boxes)
        for d, g in zip(dets, boxes):
            assert d.class_id == g.class_id
            assert d.av.shape == (147,)
            assert d.score > 0.5
            np.testing.assert_allclose(d.box, g.corners_norm(), atol=1e-12)


def _every_class_ramp(seed):
    """One object per class, fast enough to bounce off every wall, sizes
    ramping both ways, integer positions and sizes among them."""
    rng = np.random.default_rng(seed)
    objs = [synth.ObjectSpec(c - 1, c, cx=int(rng.integers(10, 86)),
                             cy=float(rng.uniform(10, 86)), vx=float(rng.uniform(-7, 7)),
                             vy=float(rng.uniform(-7, 7)), size=[6, 40, 17, 25][c - 1],
                             size_end=[40, 6, 17.5, None][c - 1])
            for c in range(1, synth.NUM_CLASSES + 1)]
    return synth.SceneSpec(length=14, seed=seed, objects=objs, flicker=0.1, blink=0.4)


RENDER_SCENES = {
    "random": lambda seed: synth.random_scene(seed, num_objects=5, length=12, flicker=0.3,
                                              blink=0.25),
    "random-crowded": lambda seed: synth.random_scene(seed, num_objects=16, length=6),
    "crossing-pair": synth.crossing_pair,
    "scale-change": synth.scale_change,
    "every-class-ramp": _every_class_ramp,
}


@pytest.mark.parametrize("scene", sorted(RENDER_SCENES))
def test_renderer_matches_the_meshgrid_reference_bit_for_bit(scene):
    """Frames (compared as int64 views, so -0.0 and NaN payloads count) and
    gt equal those of the per-object-frame meshgrid renderer on 24 seeds."""
    for seed in range(24):
        spec = RENDER_SCENES[scene](seed)
        got, want = synth.gen_sequence(spec), gen_sequence_reference(spec)
        assert len(got.frames) == len(want.frames) == spec.length
        for fg, fw in zip(got.frames, want.frames):
            assert fg.dtype == fw.dtype == np.float64 and fg.shape == fw.shape
            assert np.array_equal(fg.view(np.int64), fw.view(np.int64)), (scene, seed)
        for bg, bw in zip(got.gt, want.gt):
            assert [(b.obj_id, b.class_id, b.box_px.tobytes()) for b in bg] == \
                   [(b.obj_id, b.class_id, b.box_px.tobytes()) for b in bw]


@pytest.mark.parametrize("conf", [0.5, 0.9, 0.99])
def test_oracle_detection_scores_are_the_clipped_draws(conf):
    """Each score is conf plus its N(0, 0.02) draw clipped to [0.5, 0.99],
    drawn after the detection's 147 av draws, as a python float."""
    seq = synth.gen_sequence(synth.random_scene(4, num_objects=5, length=6))
    rng = np.random.default_rng((4, 0x0D))
    for _, dets in synth.oracle_detections(seq, conf=conf):
        for d in dets:
            rng.normal(0, 0.02, 147)
            want = float(np.clip(conf + rng.normal(0, 0.02), 0.5, 0.99))
            assert type(d.score) is float and d.score == want
