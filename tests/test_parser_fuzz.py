"""Seeded fuzz sweeps over the file parsers.

Each sweep mutates a valid file a fixed number of times (field swaps,
truncations, byte flips and insertions, or for the MOT/gt row layout and
the detections JSONL numbers that break a row's meaning) and parses the
result. Whatever the
bytes, the parser either returns or raises a ParseError/ConfigError that
names the file, plus the line for line formats.
"""

import functools
import json
import re

import numpy as np
import pytest

from seqdet import postproc as pp
from seqdet import synth
from seqdet import tensor as T
from seqdet import tracker as TK
from seqdet import train as TR
from seqdet.errors import ConfigError, ParseError

CASES = 400
TOKENS = ["", "x", "nan", "inf", "-inf", "1e400", "-1e400", "-1", "0", "2.5",
          "99999999999999999999999", "[]", "{}", "null", "true", '"s"', "[1,2,3]",
          "Infinity", "\x00", "é", ",", "=", "#", "\t"]


def _mutate(rng, raw: bytes, sep: bytes) -> bytes:
    kind = int(rng.integers(5))
    if kind < 2:  # swap one field of one line for a token, or drop or duplicate it
        lines = raw.split(b"\n")
        i = int(rng.integers(len(lines)))
        fields = lines[i].split(sep)
        j = int(rng.integers(len(fields)))
        if kind == 0:
            fields[j] = TOKENS[int(rng.integers(len(TOKENS)))].encode()
        else:
            fields[j:j + 1] = [] if rng.random() < 0.5 else [fields[j], fields[j]]
        lines[i] = sep.join(fields)
        return b"\n".join(lines)
    if kind == 2:  # truncate
        return raw[:int(rng.integers(len(raw) + 1))]
    if kind == 3:  # overwrite bytes with random values
        out = bytearray(raw)
        for pos in rng.integers(len(out), size=int(rng.integers(1, 4))):
            out[pos] = int(rng.integers(256))
        return bytes(out)
    pos = int(rng.integers(len(raw) + 1))  # insert random bytes
    noise = rng.integers(256, size=int(rng.integers(1, 5))).astype(np.uint8).tobytes()
    return raw[:pos] + noise + raw[pos:]


# value-level mutations of the MOT/gt row layout: column -> values that parse
# as numbers but break a row's meaning (frame outside 1..V in a 2-frame
# video, non-finite or non-positive box sizes, non-finite conf, class < 1)
BAD_VALUES = {0: ["0", "-1", "3", "1000000"],
              2: ["nan", "inf", "-inf"], 3: ["nan", "inf", "-inf"],
              4: ["nan", "inf", "0", "-4", "-0.5"], 5: ["nan", "-inf", "0", "-4"],
              6: ["nan", "inf", "-inf"], 10: ["0", "-2", "nan"]}


# the frame and id columns given as numbers with a fractional part
FRACTIONAL_VALUES = {0: ["1.5", "0.999", "2.5e-1", "-0.5"], 1: ["2.9", "1e-3", "-1.5"]}


def _mutate_value(rng, raw: bytes, sep: bytes, table=BAD_VALUES) -> bytes:
    lines = raw.rstrip(b"\n").split(b"\n")
    i = int(rng.integers(len(lines)))
    fields = lines[i].split(sep)
    cols = [c for c in table if c < len(fields)]
    col = cols[int(rng.integers(len(cols)))]
    fields[col] = table[col][int(rng.integers(len(table[col])))].encode()
    lines[i] = sep.join(fields)
    return b"\n".join(lines) + b"\n"


# value-level mutations of a detections JSONL record: one number of its
# score, box or av becomes a value that JSON spells but that is not finite
BAD_JSON_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]


def _mutate_json_value(rng, raw: bytes, _sep: bytes) -> bytes:
    lines = raw.rstrip(b"\n").split(b"\n")
    i = int(rng.integers(len(lines)))
    rec = json.loads(lines[i])
    key = ["score", "box", "av"][int(rng.integers(3 if "av" in rec else 2))]
    if key == "score":
        rec[key] = "BAD"
    else:
        rec[key][int(rng.integers(len(rec[key])))] = "BAD"
    bad = BAD_JSON_NUMBERS[int(rng.integers(len(BAD_JSON_NUMBERS)))]
    lines[i] = json.dumps(rec).replace('"BAD"', bad).encode()
    return b"\n".join(lines) + b"\n"


# value-level mutations of a detections JSONL record: its frame, class or
# id becomes a JSON value that is not a whole number
BAD_JSON_WHOLE = ["1.5", "-0.5", "2.000001", "1e-3", "true", "false", '"3"', "[1]"]


def _mutate_json_whole(rng, raw: bytes, _sep: bytes) -> bytes:
    lines = raw.rstrip(b"\n").split(b"\n")
    i = int(rng.integers(len(lines)))
    rec = json.loads(lines[i])
    rec[["frame", "class", "id"][int(rng.integers(3))]] = "BAD"
    bad = BAD_JSON_WHOLE[int(rng.integers(len(BAD_JSON_WHOLE)))]
    lines[i] = json.dumps(rec).replace('"BAD"', bad).encode()
    return b"\n".join(lines) + b"\n"


def _sweep(seed, path, raw, sep, parse, mutate=_mutate):
    rng = np.random.default_rng(seed)
    where = re.escape(str(path)) + r":\d+: "
    raised = 0
    for case in range(CASES):
        path.write_bytes(mutate(rng, raw, sep))
        try:
            parse(path)
        except (ParseError, ConfigError) as exc:
            raised += 1
            assert re.match(where, str(exc)), (case, str(exc))
            assert "\n" not in str(exc), (case, str(exc))
    # the sweep must reach the error paths, not only harmless mutations
    assert raised > CASES // 4
    return raised


def test_fuzz_tnsr(tmp_path):
    good = tmp_path / "good.tnsr"
    T.save_tnsr(good, np.arange(24.0).reshape(2, 3, 4))
    raw = good.read_bytes()
    path = tmp_path / "fuzz.tnsr"
    rng = np.random.default_rng(50)
    header = 5 + 4 * 3
    raised = 0
    for case in range(CASES):
        kind = case % 4
        if kind == 0:    # truncated
            data = raw[:int(rng.integers(len(raw)))]
        elif kind == 1:  # oversized payload
            data = raw + bytes(int(rng.integers(1, 9)))
        elif kind == 2:  # bad rank byte
            data = raw[:4] + bytes([int(rng.choice([0, 5, 6, 255]))]) + raw[5:]
        else:            # random header bytes, magic kept half the time
            start = 4 if rng.random() < 0.5 else 0
            noise = rng.integers(256, size=header - start).astype(np.uint8).tobytes()
            data = raw[:start] + noise + raw[header:]
        path.write_bytes(data)
        try:
            arr = T.load_tnsr(path)
        except ParseError as exc:
            raised += 1
            assert str(exc).startswith(f"{path}: "), (case, str(exc))
        else:
            assert 4 * arr.size == len(data) - 5 - 4 * arr.ndim, case
    assert raised > CASES * 3 // 4


def test_fuzz_detections_jsonl(tmp_path):
    good = tmp_path / "good.jsonl"
    dets = [pp.Detection(1, 0.9, np.array([0.1, 0.1, 0.4, 0.5]), av=np.array([0.5, 0.25]),
                         id=3),
            pp.Detection(2, 0.4, np.array([0.5, 0.5, 0.9, 0.8]))]
    pp.write_detections_jsonl(good, [(1, dets), (2, dets[:1])])
    _sweep(51, tmp_path / "fuzz.jsonl", good.read_bytes(), b",",
           pp.read_detections_jsonl)
    _sweep(57, tmp_path / "fuzz.jsonl", good.read_bytes(), b",",
           pp.read_detections_jsonl, _mutate_json_value)
    # every record with a frame, class or id that is not a whole number fails
    assert _sweep(58, tmp_path / "fuzz.jsonl", good.read_bytes(), b",",
                  pp.read_detections_jsonl, _mutate_json_whole) == CASES


def test_fuzz_mot_csv(tmp_path):
    raw = b"1,1,10.0,12.0,20.0,30.0,0.9,-1,-1,-1\n1,2,40,42,8,9,0.5,-1,-1,-1,2\n" \
          b"2,1,11.5,12.5,20,30,0.8,-1,-1,-1\n"
    _sweep(52, tmp_path / "fuzz.csv", raw, b",", TK.read_mot_csv)
    _sweep(55, tmp_path / "fuzz.csv", raw, b",", TK.read_mot_csv, _mutate_value)
    assert _sweep(59, tmp_path / "fuzz.csv", raw, b",", TK.read_mot_csv,
                  functools.partial(_mutate_value, table=FRACTIONAL_VALUES)) == CASES


def test_fuzz_gt_csv(tmp_path):
    video = tmp_path / "vid"
    (video / "frames").mkdir(parents=True)
    for i in (1, 2):
        T.save_tnsr(video / "frames" / f"{i:06d}.tnsr", np.zeros((3, 8, 8)))
    raw = b"1,1,1.000,2.000,3.000,4.000,1,-1,-1,-1,2\n2,1,1.500,2.000,3.000,4.000,1,-1,-1,-1,2\n"
    _sweep(53, video / "gt.csv", raw, b",", lambda _p: synth.load_video_dir(video))
    _sweep(56, video / "gt.csv", raw, b",", lambda _p: synth.load_video_dir(video),
           _mutate_value)


# the frame, id and class columns given as whole numbers in other spellings,
# as numbers with a fractional part, or as integers beyond 64 bits (400
# digits read as inf by float()); frames stay inside 1..2, classes >= 1
WHOLE_OR_FRACTIONAL = {0: ["1.0", "2.000", "1e0", "1.5", "0.999", "2.5e-1", "1" * 400],
                       1: ["3.0", "1e1", "-2.0", "2.9", "1e-3", "-1.5", "9" * 400,
                           "-9223372036854775809"],
                       10: ["2.0", "1.00", "3e0", "2.5", "1.25", "inf", "2" * 400,
                            "9223372036854775808"]}


def _gt_ints(video):
    """Per-frame (id, class) pairs as load_video_dir reads them, or None."""
    try:
        vid = synth.load_video_dir(video)
    except ParseError:
        return None
    return [list(zip(ids.tolist(), cls.tolist())) for ids, cls in zip(vid.ids, vid.classes)]


def _mot_ints(path, frames):
    """The same pairs as read_mot_csv reads them, or None."""
    try:
        rows = TK.read_mot_csv(path)
    except ParseError:
        return None
    return [[(r[1], int(r[10])) for r in rows if r[0] == f] for f in range(1, frames + 1)]


def test_fuzz_gt_and_mot_csv_share_the_whole_number_rule(tmp_path):
    video = tmp_path / "vid"
    (video / "frames").mkdir(parents=True)
    for i in (1, 2):
        T.save_tnsr(video / "frames" / f"{i:06d}.tnsr", np.zeros((3, 8, 8)))
    raw = b"1,1,1.000,2.000,3.000,4.000,1,-1,-1,-1,2\n2,1,1.500,2.000,3.000,4.000,1,-1,-1,-1,2\n"
    rng = np.random.default_rng(60)
    outcomes = set()
    for case in range(CASES):
        (video / "gt.csv").write_bytes(_mutate_value(rng, raw, b",", WHOLE_OR_FRACTIONAL))
        gt = _gt_ints(video)
        assert gt == _mot_ints(video / "gt.csv", 2), case
        outcomes.add(gt is None)
    assert outcomes == {True, False}


def test_fuzz_config_file(tmp_path):
    raw = b"# training settings\nseed = 3\nlr = 0.001\nseq_len = 4\nasso_form = global\n"
    _sweep(54, tmp_path / "fuzz.cfg", raw, b"=", TR.parse_config_file)


@pytest.mark.parametrize("mutate", [b"\xff", b"\xc3("], ids=["ff", "c3"])
def test_undecodable_bytes_name_the_line(tmp_path, mutate):
    """Bytes that are not UTF-8 fail on their line like any other bad value."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,1,0,0,5,5,0.9\n2," + mutate + b",0,0,5,5,0.9\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2: "):
        TK.read_mot_csv(path)
