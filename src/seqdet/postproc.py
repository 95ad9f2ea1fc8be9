"""Prior boxes, box coding, per-class thresholding and NMS, and the
detections JSONL format.

Boxes are corner-form (x1, y1, x2, y2) normalized to [0, 1]; priors are
kept in center form (cx, cy, w, h). Offsets use the usual center/size
encoding with log-scaled extents and variances 0.1 / 0.2.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import ConfigError, ParseError, quoted
from .tensor import softmax_rows  # noqa: F401 (re-exported for train)

VARIANCES = (0.1, 0.2)

CANVAS = 96                        # frame side in pixels
TOY_SIZES = (24, 12, 6, 3, 2, 1)
PRIORS_PER_CELL = 2
NUM_CLASSES = 4                    # object classes; class 0 is background
SCALE_MIN = 0.1
SCALE_MAX = 0.9


@dataclass
class Profile:
    """Per-dataset inference settings."""
    nms_iou: float
    keep_top: int


PROFILES = {
    "vid": Profile(nms_iou=0.45, keep_top=200),
    "mot": Profile(nms_iou=0.3, keep_top=400),
}


def get_profile(name):
    if name not in PROFILES:
        raise ConfigError(f"unknown dataset profile {name!r} (expected {'|'.join(PROFILES)})")
    return PROFILES[name]


@dataclass
class Detection:
    """One decoded object."""
    class_id: int
    score: float
    box: np.ndarray                    # corner form, normalized
    av: np.ndarray | None = None       # appearance vector (tracker.AV_LENGTH in-network)
    id: int = -1
    prior_index: int | None = None     # provenance inside the prior grid


def make_priors():
    """Center-form priors for every cell of every TOY_SIZES level.

    PRIORS_PER_CELL (two) square priors per cell: one at the level's
    scale, one at the geometric mean with the next level's scale. Scales
    are spaced linearly from SCALE_MIN to SCALE_MAX across levels. Corners
    are clamped to the unit square before conversion back to center form,
    so decoding a zero offset reproduces the stored prior exactly.
    """
    n = len(TOY_SIZES)
    step = (SCALE_MAX - SCALE_MIN) / (n - 1)
    scales = [SCALE_MIN + step * i for i in range(n)] + [SCALE_MAX + step]
    rows = []
    for lvl, s in enumerate(TOY_SIZES):
        sc = (scales[lvl], np.sqrt(scales[lvl] * scales[lvl + 1]))
        for y in range(s):
            for x in range(s):
                cx = (x + 0.5) / s
                cy = (y + 0.5) / s
                for j in range(PRIORS_PER_CELL):
                    rows.append((cx, cy, sc[j], sc[j]))
    cf = np.asarray(rows, dtype=np.float64)
    corners = np.clip(center_to_corner(cf), 0.0, 1.0)
    return corner_to_center(corners)


def center_to_corner(cf):
    out = np.empty_like(cf)
    out[:, 0] = cf[:, 0] - cf[:, 2] / 2
    out[:, 1] = cf[:, 1] - cf[:, 3] / 2
    out[:, 2] = cf[:, 0] + cf[:, 2] / 2
    out[:, 3] = cf[:, 1] + cf[:, 3] / 2
    return out


def corner_to_center(corners):
    out = np.empty_like(corners)
    out[:, 0] = (corners[:, 0] + corners[:, 2]) / 2
    out[:, 1] = (corners[:, 1] + corners[:, 3]) / 2
    out[:, 2] = corners[:, 2] - corners[:, 0]
    out[:, 3] = corners[:, 3] - corners[:, 1]
    return out


def iou(a, b):
    """Jaccard overlap of two corner-form boxes; 0 when the union is empty."""
    return float(iou_matrix(a, b)[0, 0])


def iou_matrix(a, b):
    """Pairwise IoU of [..., N, 4] x [..., M, 4] corner-form boxes, as
    [..., N, M]; leading dimensions broadcast, so one call can score many
    frames. A 1-D input is read as boxes ([4] is one box, [] none).

    Works on the coordinate columns ([..., N, 1] against [..., 1, M]), so
    every temporary is one [..., N, M] plane. Each entry is computed from
    its two boxes alone, by the same operations whatever the batch.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2:
        a = a.reshape(-1, 4)
    if b.ndim < 2:
        b = b.reshape(-1, 4)
    ax1, ay1, ax2, ay2 = a[..., 0, None], a[..., 1, None], a[..., 2, None], a[..., 3, None]
    bx1, by1, bx2, by2 = b[..., None, :, 0], b[..., None, :, 1], b[..., None, :, 2], \
        b[..., None, :, 3]
    w = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    h = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(w, 0.0, out=w)
    inter *= np.maximum(h, 0.0, out=h)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1)
    union -= inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def encode(boxes_corner, priors_cf):
    """Corner-form boxes -> per-prior offset targets."""
    g = corner_to_center(np.asarray(boxes_corner, dtype=np.float64).reshape(-1, 4))
    p = priors_cf
    out = np.empty_like(g)
    out[:, 0] = (g[:, 0] - p[:, 0]) / (VARIANCES[0] * p[:, 2])
    out[:, 1] = (g[:, 1] - p[:, 1]) / (VARIANCES[0] * p[:, 3])
    out[:, 2] = np.log(g[:, 2] / p[:, 2]) / VARIANCES[1]
    out[:, 3] = np.log(g[:, 3] / p[:, 3]) / VARIANCES[1]
    return out


def decode(priors_cf, deltas):
    """Per-prior offsets -> corner-form boxes clamped to [0, 1]."""
    d = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    if d.shape[0] != priors_cf.shape[0]:
        raise ConfigError(f"decode: {d.shape[0]} deltas for {priors_cf.shape[0]} priors")
    cf = np.empty_like(d)
    cf[:, 0] = priors_cf[:, 0] + d[:, 0] * VARIANCES[0] * priors_cf[:, 2]
    cf[:, 1] = priors_cf[:, 1] + d[:, 1] * VARIANCES[0] * priors_cf[:, 3]
    cf[:, 2] = priors_cf[:, 2] * np.exp(d[:, 2] * VARIANCES[1])
    cf[:, 3] = priors_cf[:, 3] * np.exp(d[:, 3] * VARIANCES[1])
    return np.clip(center_to_corner(cf), 0.0, 1.0)


def nms(dets, iou_thresh, keep_top):
    """Greedy per-class suppression.

    Highest score first, ties by input order; a box is dropped when its
    IoU with an already-kept box exceeds iou_thresh; at most keep_top
    survive, so none when keep_top < 1.
    """
    if not dets or keep_top < 1:
        return []
    boxes = np.stack([d.box for d in dets])
    scores = np.array([d.score for d in dets])
    order = np.argsort(-scores, kind="stable")
    alive = np.ones(len(dets), dtype=bool)
    kept = []
    for i in order:
        if not alive[i]:
            continue
        kept.append(int(i))
        if len(kept) >= keep_top:
            break
        alive &= iou_matrix(boxes[i:i + 1], boxes)[0] <= iou_thresh
        alive[i] = False
    return [dets[i] for i in kept]


# NMS first sees this many candidates per kept box it may return. At theta
# 0.1 and keep_top 75, the 75th box a stage-3 class-frame keeps is its
# ~105th candidate by score in the median and its 257th at most (perfbench
# train inputs, seeds 0, 46 and 50), so the rest is never read there.
_PREFIX_PER_KEPT = 4


def select_class_candidates(scores, boxes, class_id, conf_thresh, profile):
    """Threshold + NMS for one class; returns surviving Detections.

    The thresholded priors are sorted once by score (stable, so ties keep
    prior order), and NMS sees a score-ordered prefix of them first. Greedy
    NMS decides each candidate from the boxes kept ahead of it alone, so a
    prefix on which it keeps keep_top boxes gives what all candidates give.
    Otherwise the rest drops what those kept boxes suppress, and NMS over
    what is left adds its boxes after them.
    """
    idx = np.nonzero(scores > conf_thresh)[0]
    idx = idx[np.argsort(-scores[idx], kind="stable")]
    n = _PREFIX_PER_KEPT * profile.keep_top
    head, rest = idx[:n], idx[n:]
    kept = nms(_candidates(scores, boxes, class_id, head), profile.nms_iou, profile.keep_top)
    if len(kept) < profile.keep_top and len(rest):
        ov = iou_matrix(boxes[[d.prior_index for d in kept]], boxes[rest])
        rest = rest[(ov <= profile.nms_iou).all(axis=0)]
        kept += nms(_candidates(scores, boxes, class_id, rest), profile.nms_iou,
                    profile.keep_top - len(kept))
    return kept


def _candidates(scores, boxes, class_id, idx):
    return [Detection(class_id, float(scores[i]), boxes[i], prior_index=int(i)) for i in idx]


# ---------------------------------------------------------------------------
# detections JSONL: one object per line, av omitted when absent


def write_detections_jsonl(path, frames):
    """frames: iterable of (frame_index, list[Detection]); 1-based frames.
    Each Detection's box and av are float64 arrays.

    Every line is spelt as json.dumps spells the record. orjson spells it
    about 15x faster, so it writes each record whose numbers it spells
    alike (_spelled_alike), and json.dumps writes the rest.

    A record whose score, box or av is not finite is refused with a
    ValueError naming its frame and class, and the file is removed: JSON
    has no spelling for such values that the reader accepts."""
    fh = open(path, "wb")
    try:
        with fh:
            for fidx, dets in frames:
                frame_alike = _spelled_alike(dets)
                for d in dets:
                    rec = {"frame": int(fidx), "class": int(d.class_id),
                           "score": float(d.score),
                           "box": d.box.tolist(), "id": int(d.id)}
                    if d.av is not None:
                        rec["av"] = d.av.tolist()
                    fh.write(_json_line(path, rec, frame_alike or _spelled_alike([d])))
    except BaseException:
        os.remove(path)
        raise


def _spelled_alike(dets):
    """Whether orjson spells every score, box and av number of dets as
    json.dumps does. Both spell a float that is 0 or whose magnitude lies
    in [1e-4, 1e16) in the same shortest digits; outside that range
    json.dumps turns to exponent form, which orjson spells otherwise
    (1e-05 as 0.00001, 1e+16 as 1e16). NaN and inf fail too: orjson would
    write them as null."""
    parts = [[float(d.score) for d in dets]]
    parts += [a for d in dets for a in (d.box, d.av) if a is not None]
    a = np.abs(np.concatenate(parts, dtype=np.float64))
    return bool((((a >= 1e-4) & (a < 1e16)) | (a == 0)).all())


def _json_line(path, rec, alike):
    """The line json.dumps spells rec as, through orjson when alike."""
    if alike:
        try:
            line = orjson.dumps(rec, option=orjson.OPT_APPEND_NEWLINE)
        except orjson.JSONEncodeError:      # an int beyond 64 bits
            pass
        else:
            return line.replace(b",", b", ").replace(b":", b": ")     # json's separators
    try:
        return (json.dumps(rec, allow_nan=False) + "\n").encode()
    except ValueError:
        raise ValueError(f"{path}: frame {rec['frame']} class {rec['class']}: "
                         "score, box and av must be finite") from None


def whole_int(v):
    """An int or float as an int when it is a whole number within 64 bits,
    else None: 3.0 gives 3; 3.5, inf, nan and 1e30 give None. Every result
    and ground-truth reader reads frame, class and id by this rule."""
    if isinstance(v, float):
        if not v.is_integer():
            return None
        v = int(v)
    return v if -2**63 <= v < 2**63 else None


def _whole(rec, key, default=None):
    """rec[key] (or default when absent) as an int; it must be a JSON
    number that whole_int accepts, so 3.0 loads and 3.5, 1e30, true or "3"
    do not."""
    v = rec[key] if default is None else rec.get(key, default)
    w = whole_int(v) if type(v) in (int, float) else None
    if w is None:
        raise ValueError(f"{key} must be a whole number within 64 bits, got {quoted(v)}")
    return w


# What reading a record can raise for a record the format refuses; each
# becomes a ParseError naming path:line. json.loads raises RecursionError on
# nesting deeper than the interpreter's recursion limit.
_REFUSED = (KeyError, ValueError, TypeError, OverflowError, RecursionError)

# orjson 3.8 builds nested values recursively with no depth limit: objects
# nested about 10^5 deep overflow the C stack (a 256 KB thread stack
# overflows at a few thousand), and it accepts nesting that json refuses.
# A record holds three brackets; a line with more than this many is json's
# to read.
_ORJSON_MAX_BRACKETS = 64


def _record(rec):
    """(frame, Detection) of one parsed line; raises one of _REFUSED."""
    box, av = rec["box"], rec.get("av", [])
    if not (isinstance(box, list) and len(box) == 4):
        raise ValueError(f"box must hold 4 numbers, got {quoted(box)}")
    if not isinstance(av, list):
        raise ValueError(f"av must be a list of numbers, got {quoted(av)}")
    try:
        vals = np.asarray([rec["score"], *box, *av], dtype=np.float64)
    except ValueError:      # numpy's message quotes a whole unreadable string
        raise ValueError("score, box and av must be numbers") from None
    if not np.isfinite(vals).all():
        raise ValueError("score, box and av must be finite")
    det = Detection(_whole(rec, "class"), float(vals[0]), vals[1:5],
                    av=vals[5:] if "av" in rec else None, id=_whole(rec, "id", -1))
    return _whole(rec, "frame"), det


def _orjson_record(line):
    """_record of orjson's parse of line, or None where json.loads decides.

    orjson parses a line about 5x faster than json, and the two read every
    number they both accept as the same double. Their decisions differ:
    orjson refuses NaN, Infinity, 1e400 and lone-surrogate escapes, which
    json reads, and it reads integers beyond 64 bits as floats, so a frame
    of -2**63 - 1 would pass as -2**63. So json decides every line that
    holds more than _ORJSON_MAX_BRACKETS brackets, that orjson refuses,
    whose record is refused, or whose frame, class or id is a float: every
    Detection and every error is then the one json gives."""
    if line.count("[") + line.count("{") > _ORJSON_MAX_BRACKETS:
        return None
    try:
        rec = orjson.loads(line)
        if type(rec) is dict and float not in {type(rec.get(k)) for k in ("frame", "class", "id")}:
            return _record(rec)
    except _REFUSED:      # orjson.JSONDecodeError is a ValueError
        pass
    return None


def read_detections_jsonl(path):
    """Returns {frame_index: [Detection, ...]} preserving line order."""
    frames = {}
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            got = _orjson_record(line)
            if got is None:
                try:
                    got = _record(json.loads(line))
                except _REFUSED as exc:
                    raise ParseError(f"{path}:{lineno}: bad detection record ({exc})") from exc
            frames.setdefault(got[0], []).append(got[1])
    return frames
