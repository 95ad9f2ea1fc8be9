"""Seeded fuzz sweeps over the file parsers.

Each sweep mutates a valid file a fixed number of times (field swaps,
truncations, byte flips and insertions, or for the MOT/gt row layout and
the detections JSONL numbers that break a row's meaning) and parses the
result. Whatever the
bytes, the parser either returns or raises a ParseError/ConfigError that
names the file, plus the line for line formats. The detections JSONL
reader must also give what the json-only reader in refimpl gives, and the
MOT CSV readers what the per-line tracker.mot_rows gives.
"""

import functools
import itertools
import json
import random
import re
import struct

import numpy as np
import pytest

from seqdet import postproc as pp
from seqdet import synth
from seqdet import tensor as T
from seqdet import tracker as TK
from seqdet import train as TR
from seqdet.errors import ConfigError, ParseError

from refimpl import read_detections_jsonl_json

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


# JSON numbers for a record's frame, class or id on both sides of the 64-bit
# edge, as integers and as floats with and without a fractional part
JSON_WIDE = ["9223372036854775807", "-9223372036854775808", "9223372036854775808",
             "-9223372036854775809", "9.2e18", "9.3e18", "-1e19", "1e30", "1" * 400,
             "1e308", "4.0", "4.5"]


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
            # the header-only reader refuses the same files with the same words
            with pytest.raises(ParseError) as shape_exc:
                T.tnsr_shape(path)
            assert str(shape_exc.value) == str(exc), case
        else:
            assert 4 * arr.size == len(data) - 5 - 4 * arr.ndim, case
            assert T.tnsr_shape(path) == arr.shape, case
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


def test_fuzz_detections_jsonl_reads_whole_numbers_by_the_mot_csv_rule(tmp_path):
    """A record loads exactly when tracker.whole_number accepts the spelling
    put in its frame, class or id; otherwise the error names path:line."""
    good = tmp_path / "good.jsonl"
    det = pp.Detection(1, 0.9, np.array([0.1, 0.1, 0.4, 0.5]), id=3)
    pp.write_detections_jsonl(good, [(1, [det]), (2, [det])])
    lines = good.read_bytes().rstrip(b"\n").split(b"\n")
    path = tmp_path / "fuzz.jsonl"
    rng = np.random.default_rng(61)
    outcomes = set()
    for case in range(CASES):
        i = int(rng.integers(len(lines)))
        rec = json.loads(lines[i])
        key = ["frame", "class", "id"][int(rng.integers(3))]
        value = JSON_WIDE[int(rng.integers(len(JSON_WIDE)))]
        rec[key] = "BAD"
        mutated = json.dumps(rec).replace('"BAD"', value).encode()
        path.write_bytes(b"\n".join(lines[:i] + [mutated] + lines[i + 1:]) + b"\n")
        try:
            pp.read_detections_jsonl(path)
            loaded = True
        except ParseError as exc:
            loaded = False
            assert str(exc).startswith(f"{path}:{i + 1}: "), (case, str(exc))
        assert loaded == (TK.whole_number(value) is not None), (case, key, value)
        outcomes.add(loaded)
    assert outcomes == {True, False}


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
    """Per-frame classes as load_video_dir reads them, or None."""
    try:
        vid = synth.load_video_dir(video)
    except ParseError:
        return None
    return [cls.tolist() for cls in vid.classes]


def _mot_ints(path, frames):
    """The same classes as read_mot_csv reads them, or None."""
    try:
        rows = TK.read_mot_csv(path)
    except ParseError:
        return None
    return [[int(r[10]) for r in rows if r[0] == f] for f in range(1, frames + 1)]


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
    raw = b"# training settings\nseed = 3\nlr = 0.001\nseq_len = 4\nprofile = mot\n"
    _sweep(54, tmp_path / "fuzz.cfg", raw, b"=", TR.parse_config_file)


@pytest.mark.parametrize("mutate", [b"\xff", b"\xc3("], ids=["ff", "c3"])
def test_undecodable_bytes_name_the_line(tmp_path, mutate):
    """Bytes that are not UTF-8 fail on their line like any other bad value."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,1,0,0,5,5,0.9\n2," + mutate + b",0,0,5,5,0.9\n")
    with pytest.raises(ParseError, match=r"bad\.csv:2: "):
        TK.read_mot_csv(path)


# ---------------------------------------------------------------------------
# read_detections_jsonl parses with orjson and lets json.loads decide the
# lines orjson refuses; it must give what a json-only reader gives: the same
# Detections, bit for bit, or the same ParseError text


def _outcome(read, path):
    try:
        frames = read(path)
    except ParseError as exc:
        return str(exc)
    return [(f, type(f), d.class_id, type(d.class_id), d.id, type(d.id),
             np.float64(d.score).view(np.uint64), d.box.view(np.uint64).tolist(),
             None if d.av is None else d.av.view(np.uint64).tolist())
            for f, dets in frames.items() for d in dets]


def _read_like_json(path):
    """read_detections_jsonl, whose outcome must equal the json-only one."""
    got = _outcome(pp.read_detections_jsonl, path)
    assert got == _outcome(read_detections_jsonl_json, path), path.read_bytes()[:300]
    if isinstance(got, str):
        raise ParseError(got)


def _good_jsonl(path):
    dets = [pp.Detection(1, 0.9, np.array([0.1, 0.1, 0.4, 0.5]), av=np.array([0.5, 0.25]),
                         id=3),
            pp.Detection(2, 0.4, np.array([0.5, 0.5, 0.9, 0.8]))]
    pp.write_detections_jsonl(path, [(1, dets), (2, dets[:1])])
    return path.read_bytes()


@pytest.mark.parametrize("seed,mutate", [(51, _mutate), (57, _mutate_json_value),
                                         (58, _mutate_json_whole)],
                         ids=["bytes", "non_finite", "not_whole"])
def test_fuzz_detections_jsonl_outcomes_equal_the_json_reader(tmp_path, seed, mutate):
    raw = _good_jsonl(tmp_path / "good.jsonl")
    _sweep(seed, tmp_path / "fuzz.jsonl", raw, b",", _read_like_json, mutate)


def test_wide_whole_numbers_read_as_the_json_reader_reads_them(tmp_path):
    """Every (line, key, value) the whole-number sweep above can draw."""
    good = tmp_path / "good.jsonl"
    det = pp.Detection(1, 0.9, np.array([0.1, 0.1, 0.4, 0.5]), id=3)
    pp.write_detections_jsonl(good, [(1, [det]), (2, [det])])
    lines = good.read_bytes().rstrip(b"\n").split(b"\n")
    path = tmp_path / "wide.jsonl"
    for i, key, value in itertools.product(range(len(lines)), ("frame", "class", "id"),
                                           JSON_WIDE):
        rec = json.loads(lines[i])
        rec[key] = "BAD"
        mutated = json.dumps(rec).replace('"BAD"', value).encode()
        path.write_bytes(b"\n".join(lines[:i] + [mutated] + lines[i + 1:]) + b"\n")
        try:
            _read_like_json(path)
        except ParseError:
            pass


DEEP = 100_000


@pytest.mark.parametrize("line", [
    "[" * DEEP + "]" * DEEP,
    '{"frame": 1, "class": 1, "score": 0.5, "box": ' + "[" * DEEP + "]" * DEEP + "}",
    '{"frame": 1, "class": 1, "score": 0.5, "box": [0, 0, 1, 1], "x": '
    + '{"a": ' * DEEP + "1" + "}" * DEEP + "}",
], ids=["line", "box", "extra_key"])
def test_nesting_beyond_the_recursion_limit_is_a_parse_error(tmp_path, line):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"frame": 1, "class": 1, "score": 0.5, "box": [0, 0, 1, 1]}\n'
                    + line + "\n")
    with pytest.raises(ParseError) as exc:
        _read_like_json(path)
    assert str(exc.value).startswith(f"{path}:2: bad detection record (maximum recursion")
    assert "\n" not in str(exc.value)


# numbers on which orjson and json disagree: tokens orjson refuses, and
# integers beyond 64 bits, which json reads as ints and orjson as floats (or
# refuses; 2**64 + 2**11 and the two 2**80 ones lie halfway between two
# doubles); plus underflow, signed zero and the smallest subnormal
EDGE_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                *(str(v) for v in (2**63 - 1, 2**63, 2**63 + 1, -2**63 - 1, -2**63,
                                   -2**63 + 1, 2**64 - 1, 2**64, 2**64 + 2**11,
                                   2**80 + 2**27, 2**80 + 3 * 2**27)),
                "1" * 20, "-" + "9" * 20, "1" * 25, "-" + "7" * 25, "1" * 400,
                "-" + "3" * 400, "1e-400", "-0.0", "-0", "4.9e-324"]
BASE_RECORD = {"frame": 1, "class": 2, "score": 0.5, "box": [0.1, 0.2, 0.3, 0.4], "id": 3,
               "av": [0.25, 0.75]}
GOOD = '{"frame": 1, "class": 2, "score": 0.5, "box": [0.1, 0.2, 0.3, 0.4]'


def _with_number(slot, number):
    rec = json.loads(json.dumps(BASE_RECORD))
    if slot in ("box", "av"):
        rec[slot][1] = "BAD"
    else:
        rec[slot] = "BAD"
    return json.dumps(rec).replace('"BAD"', number).encode()


TARGETED_LINES = [
    *(_with_number(slot, number) for slot in ("frame", "class", "id", "score", "box", "av")
      for number in EDGE_NUMBERS),
    # escapes orjson refuses and json reads, in a key the reader ignores
    (GOOD + r', "note": "\ud800"}').encode(),
    (GOOD + r', "note": "x\udc00y"}').encode(),
    (GOOD + r', "note": "😀"}').encode(),
    # bytes that are not UTF-8: inside a string they read as U+FFFD
    GOOD.encode() + b', "note": "\xff\xc3("}',
    GOOD.encode() + b', "note": "\xed\xa0\x80"}',
    GOOD.encode()[:-1] + b'\xff]}',
    b'{"frame": 1, "class": 2, "score": \xc3(, "box": [0, 0, 1, 1]}',
    # duplicate keys: the last one counts
    (GOOD + ', "frame": 4}').encode(),
    (GOOD + ', "box": [0, 0, 1, 1]}').encode(),
    (GOOD + ', "box": [0, 0, 1]}').encode(),
    b'{"frame": 1, "class": 2, "score": "x", "box": [0, 0, 1, 1], "score": 0.25}',
    b'{"frame": 1, "class": 2, "score": 0.5, "box": [0, 0, 1, 1], "av": [1], "av": 3}',
    # a byte-order mark, a float frame, a record that is no object
    ("﻿" + GOOD + "}").encode(),
    (GOOD.replace('"frame": 1', '"frame": 1.0') + "}").encode(),
    b"[1, 2, 3]", b'"frame"', b"17",
    # nesting on both sides of json's recursion limit, in an ignored key
    *((GOOD + ', "x": ' + "[" * depth + "]" * depth + "}").encode()
      for depth in (10, 900, 1000, 1100, 5000)),
]


def test_targeted_lines_read_as_the_json_reader_reads_them(tmp_path):
    path = tmp_path / "one.jsonl"
    outcomes = set()
    for line in TARGETED_LINES:
        path.write_bytes(GOOD.encode() + b"}\n" + line + b"\n")
        try:
            _read_like_json(path)
            outcomes.add("loaded")
        except ParseError:
            outcomes.add("refused")
    assert outcomes == {"loaded", "refused"}


def test_random_doubles_read_as_the_json_reader_reads_them(tmp_path):
    """10^5 seeded random float64 reprs, plus 10^4 of them spelt with 25
    digits, in av: each line is orjson's to read, and every double must
    equal json's."""
    bits = np.random.default_rng(62).integers(0, 2**64, size=120_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    spelt = [repr(float(v)) for v in values[:100_000]] \
        + [f"{v:.25e}" for v in values[100_000:110_000]]
    lines = [f'{{"frame": 1, "class": 1, "score": {spelt[i]}, "box": [0, 0, 1, 1], '
             f'"av": [{", ".join(spelt[i + 1:i + 100])}]}}'
             for i in range(0, len(spelt), 100)]
    assert all(pp._orjson_record(line) is not None for line in lines)
    path = tmp_path / "doubles.jsonl"
    path.write_text("\n".join(lines) + "\n")
    _read_like_json(path)


# ---------------------------------------------------------------------------
# read_mot_csv and load_video_dir read a MOT file in one numpy pass
# (tracker.mot_table) and let the per-line tracker.mot_rows decide every
# file that pass refuses; they must give what mot_rows alone gives: the same
# rows with the same types, bit for bit, or the same ParseError text

MOT_FILES = 2200
MOT_TOKENS = ["1_0", " 1 ", "+.5", "1e0", "0x1p0", "", "١", "１", "٢٥",
              "nan", "inf", "-inf", "1e400", "-1e400", "1.0", "1.5", "-0", "-0.0", "#",
              *(str(s * (2**53 + d)) for s in (1, -1) for d in (-1, 0, 1)),
              str(2**63), str(-2**63), str(2**63 - 1)]
GT_FRAMES = 3


def _double(rnd):
    """A float64 of a random bit pattern (nan and inf included), or a plain
    coordinate, spelt by repr or with 17 to 25 significant digits."""
    if rnd.random() < 0.5:
        v = rnd.uniform(0.5, 90.0)
    else:
        v = struct.unpack("<d", rnd.getrandbits(64).to_bytes(8, "little"))[0]
    return repr(v) if rnd.random() < 0.5 else f"{v:.{rnd.randint(17, 25)}g}"


def _mot_lines(rnd):
    """A few rows of one column count (7, 10, 11 or 12). Most of them are
    gt of a GT_FRAMES-frame video (frame in range, positive box sizes,
    class >= 1); a random double, a frame of 0 or GT_FRAMES + 1 or a class
    of 0 make some of them gt that load_video_dir refuses."""
    cols = rnd.choice([7, 10, 11, 12])
    lines = []
    for _ in range(rnd.randint(1, 6)):
        frame = rnd.randint(1, GT_FRAMES) if rnd.random() < 0.9 else rnd.choice([0, GT_FRAMES + 1])
        row = [str(frame), str(rnd.randint(-2, 40))]
        row += [_double(rnd) if rnd.random() < 0.2 else f"{rnd.uniform(0.5, 90):.3f}"
                for _ in range(4)]
        row.append(_double(rnd) if rnd.random() < 0.2 else f"{rnd.random():.4f}")
        row += [_double(rnd) if rnd.random() < 0.2 else "-1" for _ in range(cols - 7)]
        if cols > 10:
            row[10] = str(rnd.randint(0 if rnd.random() < 0.1 else 1, 4))
        lines.append(row)
    return lines


def _mutated_mot_file(rnd, kind):
    """The bytes of a valid file under one mutation of the given kind."""
    lines = _mot_lines(rnd)
    i = rnd.randrange(len(lines))
    if kind == "token":
        lines[i][rnd.randrange(len(lines[i]))] = rnd.choice(MOT_TOKENS)
    elif kind == "ragged":
        if rnd.random() < 0.5:
            del lines[i][rnd.randrange(len(lines[i]))]
        else:
            lines[i].append("-1")
    text = "".join(",".join(row) + "\n" for row in lines)
    if kind == "empty":
        text = rnd.choice(["", "\n", " \n\n"])
    elif kind in ("blank", "whitespace"):
        at = [m.end() for m in re.finditer("\n", text)][rnd.randrange(len(lines))]
        text = text[:at] + ("\n" if kind == "blank" else rnd.choice([" \t", "\x0c", " "]) + "\n") \
            + text[at:]
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "cr":
        text = text.replace("\n", "\r")
    elif kind == "bom":
        text = "﻿" + text
    elif kind == "hash":
        text = text.replace("\n", "#note\n", 1)
    elif kind == "joined":     # a line break to str.splitlines, none to a file
        text = text.replace("\n", rnd.choice(LINE_BREAKS_OF_SPLITLINES), 1)
    return text.encode()


LINE_BREAKS_OF_SPLITLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                             "\u2029"]
MOT_MUTATIONS = ["none", "token", "ragged", "empty", "blank", "whitespace", "crlf", "cr",
                 "bom", "hash", "joined"]


def _typed(rows):
    """Rows as (type, value) pairs, floats by their bits: nan == nan, -0.0 != 0.0."""
    return [tuple((type(v), v if type(v) is int else struct.pack("<d", v)) for v in row)
            for row in rows]


def _outcome_of(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return str(exc)


def _gt_line_by_line(video):
    """Per-frame classes and normalised boxes of video/gt.csv, read row by
    row through tracker.mot_rows with synth._gt_row_problem."""
    per = {i: ([], []) for i in range(1, GT_FRAMES + 1)}
    for lineno, row in TK.mot_rows(video / "gt.csv"):
        fidx, _oid, left, top, w, h = row[:6]
        cls = row[10] if len(row) > 10 else 1
        problem = synth._gt_row_problem(fidx, w, h, cls, GT_FRAMES)
        if problem:
            raise ParseError(f"{video / 'gt.csv'}:{lineno}: {problem}")
        per[fidx][0].append(cls)
        per[fidx][1].append([left / 8, top / 8, (left + w) / 8, (top + h) / 8])
    return [(np.array(c, dtype=np.int64), np.array(b, dtype=np.float64).reshape(-1, 4))
            for c, b in per.values()]


def _gt_arrays(video):
    v = synth.load_video_dir(video)
    return list(zip(v.classes, v.boxes_norm))


def _same_gt(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(c1.dtype == c2.dtype and c1.tolist() == c2.tolist() and b1.dtype == b2.dtype
               and b1.shape == b2.shape and b1.tobytes() == b2.tobytes()
               for (c1, b1), (c2, b2) in zip(a, b))


def test_mot_files_read_as_the_per_line_reader_reads_them(tmp_path):
    video = tmp_path / "vid"
    (video / "frames").mkdir(parents=True)
    for i in range(1, GT_FRAMES + 1):
        T.save_tnsr(video / "frames" / f"{i:06d}.tnsr", np.zeros((3, 8, 8)))
    path = video / "gt.csv"
    rnd = random.Random(27)
    fallback, loaded, seen = 0, 0, set()
    for case in range(MOT_FILES):
        kind = MOT_MUTATIONS[case % len(MOT_MUTATIONS)]
        raw = _mutated_mot_file(rnd, kind)
        path.write_bytes(raw)
        fallback += TK.mot_table(path) is None
        got = _outcome_of(TK.read_mot_csv, path)
        want = _outcome_of(lambda p: [r for _, r in TK.mot_rows(p)], path)
        assert (got == want if isinstance(got, str) or isinstance(want, str)
                else _typed(got) == _typed(want)), (case, raw)
        assert _same_gt(_outcome_of(lambda _p: _gt_arrays(video), path),
                        _outcome_of(lambda _p: _gt_line_by_line(video), path)), (case, raw)
        loaded += not isinstance(got, str)
        seen.add((kind, isinstance(got, str)))
    # both readers and both outcomes are reached, and the fast pass reads most valid files
    assert MOT_FILES // 5 < fallback < MOT_FILES * 4 // 5
    assert MOT_FILES // 5 < loaded < MOT_FILES * 4 // 5
    assert {k for k, _ in seen} == set(MOT_MUTATIONS)
