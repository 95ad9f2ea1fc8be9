"""Online tubelet tracking: per-class identity assignment driven by the
appearance similarity of attention-map descriptors combined with box
overlap.

Each tubelet keeps the most recent detections of one identity (newest
first) and their unit-length descriptors, each normalised once. A
detection inherits the id of its best-scoring tubelet when the
similarity exceeds the match threshold; contested tubelets keep only
their best claimant; confident leftovers found a new identity. Tubelets
unseen for longer than max_miss frames are dropped, and ids are never
reused.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, quoted
from .postproc import CANVAS, Detection, iou_matrix, whole_int
from .postproc import iou  # noqa: F401 (a lookup site perfbench's tracer tests wrap)
from .tensor import bilinear_weights, load_tnsr

AV_GRID = 7          # each low-level attention map resamples to 7x7
AV_LEVELS = 3        # number of low-level maps feeding the descriptor
AV_LENGTH = AV_LEVELS * AV_GRID * AV_GRID      # 147 descriptor values
SIMILARITIES = ("attention_iou", "iou_only")


@dataclass
class TrackerParams:
    match_threshold: float = 1.0      # similarity needed to inherit an id
    generation_score: float = 0.3     # confidence needed to found a new id
    tub_len_max: int = 10
    max_miss: int = 10
    similarity: str = "attention_iou"  # one of SIMILARITIES

    def validate(self):
        if not self.match_threshold > 0:     # nan too
            raise ConfigError(f"match_threshold must be > 0, got {self.match_threshold}")
        if not 0 < self.generation_score <= 1:
            raise ConfigError(
                f"generation_score must be in (0,1], got {self.generation_score}")
        if self.tub_len_max < 1:
            raise ConfigError(f"tub_len_max must be >= 1, got {self.tub_len_max}")
        if self.max_miss < 0:
            raise ConfigError(f"max_miss must be >= 0, got {self.max_miss}")
        if self.similarity not in SIMILARITIES:
            raise ConfigError(f"unknown similarity mode {self.similarity!r}")
        return self


@dataclass
class Tubelet:
    id: int
    objs: list               # Detections, most recent first, <= tub_len_max
    last_seen: int
    units: np.ndarray | None   # objs' unit avs, row for row; None in iou_only mode


@dataclass
class TrackState:
    tubs: dict = field(default_factory=dict)    # class_id -> [Tubelet]
    next_id: int = 0


def attention_vector_for_box(att_maps, box):
    """Appearance descriptor of one box: each low-level [1,S,S] attention
    map sampled on a 7x7 bilinear grid over the box (half-pixel centers,
    edge clamp), flattened and concatenated (AV_LENGTH values). The unit box
    [0, 0, 1, 1] resamples each whole map."""
    if len(att_maps) < AV_LEVELS:
        raise ConfigError(f"need {AV_LEVELS} low-level maps, got {len(att_maps)}")
    x1, y1, x2, y2 = (float(v) for v in box)
    grid = (np.arange(AV_GRID) + 0.5) / AV_GRID
    parts = []
    for m in att_maps[:AV_LEVELS]:
        s = m.shape[-1]
        ry = bilinear_weights((y1 + grid * (y2 - y1)) * s - 0.5, s)
        rx = bilinear_weights((x1 + grid * (x2 - x1)) * s - 0.5, s)
        parts.append((ry @ m[0] @ rx.T).reshape(-1))
    return np.concatenate(parts)


def _unit_rows(vectors):
    """Rows scaled to unit length; a zero row stays zero."""
    a = np.asarray(vectors, dtype=np.float64)
    norm = np.linalg.norm(a, axis=1, keepdims=True)
    return np.divide(a, norm, out=np.zeros_like(a), where=norm > 0)


def tubelet_similarity(overlap, units, tubs):
    """[len(overlap), len(tubs)] similarity of a class's detections to its
    tubelets. overlap holds exp(IoU) of each detection with each tubelet's
    newest box; it is multiplied by the mean cosine of the detection's unit
    av (a row of units) with the av of every tubelet member, or left as it
    is when units is None (iou_only mode). A zero vector has cosine 0 with
    anything. The cosines are one product per class: a product over several
    classes at once changes their last bits."""
    if units is None:
        return overlap
    sizes = [len(t.units) for t in tubs]
    cos = units @ np.concatenate([t.units for t in tubs]).T
    starts = np.cumsum([0] + sizes[:-1])
    return overlap * (np.add.reduceat(cos, starts, axis=1) / sizes)


def update_tracks(dets, state: TrackState, params: TrackerParams, frame_idx):
    """One frame of identity assignment; mutates dets' ids and the state.
    The ids dets carry in are discarded, so a detection that neither joins
    nor founds a tubelet leaves with id -1. params must have passed
    TrackerParams.validate(). In attention_iou mode a detection without an
    av is a ConfigError; that avs agree in length across frames is checked
    by track_frames.

    Per class (ascending), detections in descending score order:
      1. each detection claims its highest-similarity tubelet (the first
         of equal maxima) if that similarity strictly exceeds the match
         threshold;
      2. a tubelet claimed by several detections goes to the one with the
         highest similarity (the first in score order on a tie);
      3. any detection left without a tubelet whose confidence strictly
         exceeds the generation score receives a fresh, never-reused id;
      4. claimed tubelets absorb their detection (newest first, truncated
         to tub_len_max), stale tubelets are dropped, new ids found new
         tubelets. Classes without tubelets skip straight to step 3.

    The frame's avs are normalised once and its overlaps taken in one
    matrix across classes, of which each class reads its own block.
    """
    for d in dets:
        d.id = -1
    order = sorted(dets, key=lambda d: (d.class_id, -d.score))
    keys = [d.class_id for d in order]
    classes = sorted(set(keys) | set(state.tubs))
    units = None
    if params.similarity == "attention_iou" and order:
        _check_appearance([(frame_idx, dets)])
        units = _unit_rows([d.av for d in order])
    live = [t for cls in classes for t in state.tubs.get(cls, ())]
    overlap = (np.exp(iou_matrix([d.box for d in order], [t.objs[0].box for t in live]))
               if order and live else None)
    t0 = 0
    for cls in classes:
        tubs = state.tubs.get(cls, [])
        d0, d1 = bisect_left(keys, cls), bisect_right(keys, cls)
        t1 = t0 + len(tubs)
        won = {}             # tubelet index -> (similarity, detection index) of its best claimant
        if tubs and d0 < d1:
            sim = tubelet_similarity(overlap[d0:d1, t0:t1],
                                     None if units is None else units[d0:d1], tubs)
            for j, row, best in zip(range(d0, d1), sim, sim.argmax(axis=1).tolist()):
                # beat the threshold and every earlier claimant
                if row[best] > won.get(best, (params.match_threshold,))[0]:
                    won[best] = (row[best], j)
        for i, (_s, j) in won.items():
            order[j].id = tubs[i].id
        for j in range(d0, d1):
            obj = order[j]
            if obj.id == -1 and obj.score > params.generation_score:
                obj.id = state.next_id
                state.next_id += 1
                tubs.append(Tubelet(obj.id, [obj], frame_idx,
                                    None if units is None else units[j:j + 1].copy()))
        kept = []
        for i, tub in enumerate(tubs):
            if i in won:
                j = won[i][1]
                tub.objs = [order[j]] + tub.objs[:params.tub_len_max - 1]
                tub.units = None if units is None else np.concatenate(
                    (units[j:j + 1], tub.units[:params.tub_len_max - 1]))
                tub.last_seen = frame_idx
            if frame_idx - tub.last_seen <= params.max_miss:
                kept.append(tub)
        if kept:
            state.tubs[cls] = kept
        else:
            state.tubs.pop(cls, None)
        t0 = t1
    return dets, state


def _check_appearance(frames):
    """attention_iou compares avs: every detection needs one, all of one length."""
    length = None
    for fidx, dets in frames:
        for d in dets:
            if d.av is None:
                problem = "has no appearance vector"
            elif length is not None and len(d.av) != length:
                problem = f"has an appearance vector of length {len(d.av)}, not {length}"
            else:
                length = len(d.av)
                continue
            raise ConfigError(f"frame {fidx}: a class {d.class_id} detection {problem}; "
                              f"track it with --similarity iou_only, or give --mot "
                              f"input its --embeddings")


def track_frames(frames, params: TrackerParams | None = None):
    """Run one tracker stream over [(frame_idx, dets), ...] in order. The
    ids the detections carry in are discarded (update_tracks resets them)."""
    params = (params or TrackerParams()).validate()
    if params.similarity == "attention_iou":
        _check_appearance(frames)
    state = TrackState()
    out = []
    for fidx, dets in frames:
        dets, state = update_tracks(dets, state, params, fidx)
        out.append((fidx, dets))
    return out


# ---------------------------------------------------------------------------
# MOT result CSV: frame,id,bb_left,bb_top,bb_width,bb_height,conf,-1,-1,-1
# frame and id are 1-based integers, coordinates in pixels of the
# CANVAS-sized frame.


def write_mot_csv(path, frames):
    with open(path, "w") as fh:
        for fidx, dets in frames:
            for d in dets:
                if d.id < 0:
                    continue
                x1, y1, x2, y2 = (d.box * CANVAS).tolist()
                fh.write(f"{int(fidx)},{d.id + 1},{x1:.2f},{y1:.2f},"
                         f"{x2 - x1:.2f},{y2 - y1:.2f},{d.score:.4f},-1,-1,-1\n")


def _floats(fields):
    """[float(f) for f in fields]. A field that is no number raises a
    ValueError that quotes it by errors.quoted; float's own quotes all of it."""
    try:
        return [float(f) for f in fields]
    except ValueError:
        for f in fields:
            try:
                float(f)
            except ValueError:
                raise ValueError(f"{quoted(f)} is not a number") from None
        raise


def whole_number(field):
    """A MOT row's integer field (frame, id or class) as an int, or None when
    postproc.whole_int refuses its number: '1.0' reads as 1; '1.5', 'inf'
    and '1e30' give None. A field that is no number raises ValueError."""
    try:
        v = int(field)              # plain integers: exact, and the common case
    except ValueError:
        v = _floats([field])[0]
    return whole_int(v)


def mot_rows(path):
    """(line number, row) for each non-blank line of a MOT CSV file, the
    one reader of the layout (gt.csv included). A row is (frame, id, left,
    top, width, height, conf, extras...): at least 7 columns, every one a
    number, box and conf finite. Frame, id and the class in the 11th
    column, when present, must be whole numbers (whole_number) and are
    stored as ints."""
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise ParseError(f"{path}:{lineno}: expected >= 7 columns, "
                                 f"got {len(parts)}")
            try:
                vals = _floats(parts[2:7])
                extras = _floats(parts[7:])
                frame, tid = whole_number(parts[0]), whole_number(parts[1])
                cls = whole_number(parts[10]) if len(parts) > 10 else 1
                if frame is None or tid is None or cls is None:
                    raise ValueError(f"frame, id and class must be whole numbers within "
                                     f"64 bits, got "
                                     f"{', '.join(map(quoted, parts[:2] + parts[10:11]))}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad number ({exc})") from exc
            if not all(map(math.isfinite, vals)):
                raise ParseError(f"{path}:{lineno}: box and conf must be finite, got {vals}")
            if len(parts) > 10:
                extras[3] = cls             # stored as the int it was checked as
            yield lineno, (frame, tid, *vals, *extras)


def read_mot_csv(path):
    """The rows of mot_rows(path), in file order."""
    return [row for _lineno, row in mot_rows(path)]


def ingest_detections(csv_path, embeddings_path=None):
    """Read externally produced results back into per-frame Detection lists.

    Rows follow the result CSV layout; an 11th column, when present, is
    the class id. An optional TNSR sidecar supplies one embedding per row
    (row order), which lands in the detection's appearance slot.
    """
    rows = read_mot_csv(csv_path)
    emb = None
    if embeddings_path is not None:
        emb = load_tnsr(embeddings_path)
        if emb.ndim != 2 or len(emb) != len(rows):
            raise ParseError(f"{embeddings_path}: need one embedding row per "
                             f"detection ({len(rows)}), got shape {emb.shape}")
        bad = np.nonzero(~np.isfinite(emb).all(axis=1))[0]
        if len(bad):
            raise ParseError(f"{embeddings_path}: embedding row {bad[0] + 1} of "
                             f"{len(emb)} is not finite")
    frames = {}
    for i, row in enumerate(rows):
        frame, tid, left, top, w, h, conf = row[:7]
        cls = int(row[10]) if len(row) > 10 else 1
        box = np.array([left, top, left + w, top + h], dtype=np.float64) / CANVAS
        det = Detection(cls, float(conf), box,
                        av=None if emb is None else emb[i].copy(),
                        id=int(tid) - 1 if tid >= 1 else -1)
        frames.setdefault(int(frame), []).append(det)
    return [(f, frames[f]) for f in sorted(frames)]
