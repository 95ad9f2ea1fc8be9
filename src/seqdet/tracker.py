"""Online tubelet tracking: per-class identity assignment driven by the
appearance similarity of attention-map descriptors combined with box
overlap.

Each tubelet keeps the most recent detections of one identity (newest
first). A detection inherits the id of its best-scoring tubelet when the
similarity exceeds the match threshold; contested tubelets keep only
their best claimant; confident leftovers found a new identity. Tubelets
unseen for longer than max_miss frames are dropped, and ids are never
reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError
from .postproc import Detection, iou_matrix
from .postproc import iou  # noqa: F401 (a lookup site perfbench's tracer tests wrap)
from .tensor import bilinear_weights, load_tnsr

AV_GRID = 7          # each low-level attention map resamples to 7x7
AV_LEVELS = 3        # number of low-level maps feeding the descriptor (147 values)


@dataclass
class TrackerParams:
    match_threshold: float = 1.0      # similarity needed to inherit an id
    generation_score: float = 0.3     # confidence needed to found a new id
    tub_len_max: int = 10
    max_miss: int = 10
    similarity: str = "attention_iou"  # or "iou_only"

    def validate(self):
        if self.match_threshold <= 0:
            raise ConfigError(f"match_threshold must be > 0, got {self.match_threshold}")
        if not 0 < self.generation_score <= 1:
            raise ConfigError(
                f"generation_score must be in (0,1], got {self.generation_score}")
        if self.tub_len_max < 1:
            raise ConfigError(f"tub_len_max must be >= 1, got {self.tub_len_max}")
        if self.max_miss < 0:
            raise ConfigError(f"max_miss must be >= 0, got {self.max_miss}")
        if self.similarity not in ("attention_iou", "iou_only"):
            raise ConfigError(f"unknown similarity mode {self.similarity!r}")
        return self


@dataclass
class Tubelet:
    id: int
    class_id: int
    objs: list               # Detections, most recent first, <= tub_len_max
    last_seen: int


@dataclass
class TrackState:
    tubs: dict = field(default_factory=dict)    # class_id -> [Tubelet]
    next_id: int = 0


def attention_vector_for_box(att_maps, box):
    """Appearance descriptor of one box: each low-level [1,S,S] attention
    map sampled on a 7x7 bilinear grid over the box (half-pixel centers,
    edge clamp), flattened and concatenated (length 147). The unit box
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


def tubelet_similarity(dets, tubs, mode="attention_iou"):
    """[len(dets), len(tubs)] matrix: exp(IoU of each detection with each
    tubelet's newest box) times the mean cosine similarity of the
    detection's av with the av of every tubelet member (that factor is 1
    in iou_only mode; a zero vector has cosine 0 with anything)."""
    sim = np.exp(iou_matrix([d.box for d in dets], [t.objs[0].box for t in tubs]))
    if mode == "iou_only":
        return sim
    sizes = [len(t.objs) for t in tubs]
    cos = _unit_rows([d.av for d in dets]) @ _unit_rows(
        [m.av for t in tubs for m in t.objs]).T
    starts = np.cumsum([0] + sizes[:-1])
    return sim * (np.add.reduceat(cos, starts, axis=1) / sizes)


def update_tracks(dets, state: TrackState, params: TrackerParams, frame_idx):
    """One frame of identity assignment; mutates dets' ids and the state.

    Per class (ascending), detections in descending score order:
      1. each detection takes the id of its highest-similarity tubelet
         (the first of equal maxima) if that similarity strictly exceeds
         the match threshold;
      2. a tubelet claimed by several detections keeps only the best one,
         the rest fall back to -1;
      3. any unassigned detection whose confidence strictly exceeds the
         generation score receives a fresh, never-reused id;
      4. matched tubelets absorb their detection (newest first, truncated
         to tub_len_max), stale tubelets are dropped, new ids found new
         tubelets. Classes without tubelets skip straight to step 3.
    """
    params.validate()
    classes = sorted(set(d.class_id for d in dets) | set(state.tubs))
    for cls in classes:
        tubs = state.tubs.get(cls, [])
        objs = sorted([d for d in dets if d.class_id == cls],
                      key=lambda d: -d.score)
        claims = {}          # tubelet id -> list of (similarity, claimant)
        if tubs and objs:
            sim = tubelet_similarity(objs, tubs, params.similarity)
            for obj, row, best in zip(objs, sim, sim.argmax(axis=1)):
                if row[best] > params.match_threshold:
                    obj.id = tubs[best].id
                    claims.setdefault(obj.id, []).append((row[best], obj))
            for tub in tubs:
                contest = claims.get(tub.id, [])
                if len(contest) > 1:
                    best = max(range(len(contest)), key=lambda i: contest[i][0])
                    for i, (_s, obj) in enumerate(contest):
                        if i != best:
                            obj.id = -1
                    claims[tub.id] = [contest[best]]
        for obj in objs:
            if obj.id == -1 and obj.score > params.generation_score:
                obj.id = state.next_id
                state.next_id += 1
                tubs.append(Tubelet(obj.id, cls, [obj], frame_idx))
        matched = {tid: c[0][1] for tid, c in claims.items() if c}
        kept = []
        for tub in tubs:
            if tub.id in matched:
                tub.objs = [matched[tub.id]] + tub.objs
                tub.objs = tub.objs[:params.tub_len_max]
                tub.last_seen = frame_idx
            if frame_idx - tub.last_seen <= params.max_miss:
                kept.append(tub)
        if kept:
            state.tubs[cls] = kept
        else:
            state.tubs.pop(cls, None)
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
    ids the detections carry in are discarded."""
    params = params or TrackerParams()
    if params.similarity == "attention_iou":
        _check_appearance(frames)
    state = TrackState()
    out = []
    for fidx, dets in frames:
        for d in dets:
            d.id = -1
        dets, state = update_tracks(dets, state, params, fidx)
        out.append((fidx, dets))
    return out


# ---------------------------------------------------------------------------
# MOT result CSV: frame,id,bb_left,bb_top,bb_width,bb_height,conf,-1,-1,-1
# frame and id are 1-based integers, coordinates in canvas pixels.


def write_mot_csv(path, frames, canvas=96):
    with open(path, "w") as fh:
        for fidx, dets in frames:
            for d in dets:
                if d.id < 0:
                    continue
                x1, y1, x2, y2 = d.box * canvas
                fh.write(f"{int(fidx)},{d.id + 1},{x1:.2f},{y1:.2f},"
                         f"{x2 - x1:.2f},{y2 - y1:.2f},{d.score:.4f},-1,-1,-1\n")


def whole_number(field):
    """A MOT row's integer field (frame, id or class) as an int, or None when
    its number has a fractional part, is not finite or does not fit in 64
    bits: '1.0' reads as 1; '1.5', 'inf' and '1e30' give None. A field that
    is no number raises ValueError. read_mot_csv and gt.csv
    (synth.load_video_dir) both read by it."""
    try:
        v = int(field)              # plain integers: exact, and the common case
    except ValueError:
        f = float(field)
        if not f.is_integer():
            return None
        v = int(f)
    return v if -2**63 <= v < 2**63 else None


def read_mot_csv(path):
    """Rows as (frame, id, left, top, width, height, conf, extras...); the
    11th column, when present, is the class id and must be an integer (it
    is stored as an int, frame and id too)."""
    rows = []
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
                frame, tid = whole_number(parts[0]), whole_number(parts[1])
                vals = [float(v) for v in parts[2:7]]
                extras = [float(v) for v in parts[7:]]
                if frame is None or tid is None:
                    raise ValueError(f"frame and id must be whole numbers, got "
                                     f"{parts[0]!r}, {parts[1]!r}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad number ({exc})") from exc
            if not all(map(math.isfinite, vals)):
                raise ParseError(f"{path}:{lineno}: box and conf must be finite, got {vals}")
            if len(extras) > 3:
                extras[3] = whole_number(parts[10])
                if extras[3] is None:
                    raise ParseError(f"{path}:{lineno}: class must be an integer, "
                                     f"got {parts[10]!r}")
            rows.append((frame, tid, *vals, *extras))
    return rows


def ingest_detections(csv_path, embeddings_path=None, canvas=96):
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
        box = np.array([left, top, left + w, top + h], dtype=np.float64) / canvas
        det = Detection(cls, float(conf), box,
                        av=None if emb is None else emb[i].copy(),
                        id=int(tid) - 1 if tid >= 1 else -1)
        frames.setdefault(int(frame), []).append(det)
    return [(f, frames[f]) for f in sorted(frames)]
