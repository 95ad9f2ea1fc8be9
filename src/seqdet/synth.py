"""Deterministic moving-shapes sequence generator.

Sequences are rendered on a 96x96 RGB canvas in [0, 1]. Each object has a
class (shape type), a persistent identity, a striped texture that moves
with it, and a linear trajectory that bounces off the walls so boxes stay
inside the canvas. The same seed always reproduces the same frames and
ground truth, bit for bit. Frames, generated or read from disk, are made
each time they are indexed and never cached.
"""

from __future__ import annotations

import collections.abc
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .postproc import CANVAS, NUM_CLASSES, Detection
from .tensor import load_tnsr, save_tnsr, tnsr_shape
from .tracker import AV_LENGTH, mot_rows

MIN_BOX = 4
ORACLE_JITTER = 0.02      # std of the per-detection noise on an oracle av


@dataclass
class ObjectSpec:
    obj_id: int
    class_id: int             # 1..NUM_CLASSES (square, disc, triangle, diamond)
    cx: float
    cy: float
    vx: float
    vy: float
    size: float
    size_end: float | None = None     # linear size ramp when set


@dataclass
class SceneSpec:
    length: int = 16
    seed: int = 0
    objects: list = field(default_factory=list)
    flicker: float = 0.0      # per-frame uniform pixel noise amplitude
    blink: float = 0.0        # chance an object is invisible on a frame
                              # (stays annotated, like brief full occlusion)

    def validate(self):
        if self.length < 1:
            raise ConfigError(f"sequence length must be >= 1, got {self.length}")
        for o in self.objects:
            if not 1 <= o.class_id <= NUM_CLASSES:
                raise ConfigError(f"class_id {o.class_id} outside 1..{NUM_CLASSES}")
            if min(o.size, o.size_end if o.size_end is not None else o.size) < MIN_BOX:
                raise ConfigError(f"object size below {MIN_BOX}px")


@dataclass
class GtBox:
    obj_id: int
    class_id: int
    box_px: np.ndarray        # (left, top, width, height) in pixels

    def corners_norm(self):
        l, t, w, h = self.box_px
        return np.array([l, t, l + w, t + h], dtype=np.float64) / CANVAS


class Frames(collections.abc.Sequence):
    """A video's frames as a read-only sequence: frame(i) for each i of a
    range. len() and slices make no frame; each index makes that one
    [3,S,S] float64 frame again and keeps nothing, so a reader holds one
    frame at a time."""

    def __init__(self, frame, indices):
        self._frame = frame
        self._indices = indices

    def __len__(self):
        return len(self._indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Frames(self._frame, self._indices[i])
        return self._frame(self._indices[i])


@dataclass
class Sequence:
    frames: Frames            # [3,S,S] float64 arrays, rendered when indexed
    gt: list                  # per frame: list[GtBox]
    spec: SceneSpec


def _texture_params(tex_seed):
    """An object's texture: RGB base, stripe frequencies and phase, drawn
    once from its own generator."""
    rng = np.random.default_rng(tex_seed)
    base = rng.uniform(0.35, 0.95, 3)
    fu, fv = rng.uniform(2.0, 6.0, 2)
    return base, fu, fv, rng.uniform(0, 2 * np.pi)


def _texture_rgb(params, u, v):
    """Striped RGB pattern over in-box coordinates u, v in [0,1]."""
    base, fu, fv, phase = params
    wave = 0.65 + 0.35 * np.sin(2 * np.pi * (fu * u + fv * v) + phase)
    return base[:, None, None] * wave[None]


def _shape_mask(class_id, u, v):
    # u, v in [0,1] within the box; masks are centered
    du = u - 0.5
    dv = v - 0.5
    if class_id == 1:       # square
        return (np.abs(du) <= 0.5) & (np.abs(dv) <= 0.5)
    if class_id == 2:       # disc
        return du * du + dv * dv <= 0.25
    if class_id == 3:       # upward triangle
        return (v >= 0.0) & (np.abs(du) <= v / 2 + 1e-9) & (v <= 1.0)
    if class_id == 4:       # diamond
        return np.abs(du) + np.abs(dv) <= 0.5
    raise ConfigError(f"unknown class {class_id}")


def _bounce(pos, vel, lo, hi):
    """Advance one step, reflecting at the limits."""
    pos += vel
    if pos < lo:
        pos = 2 * lo - pos
        vel = -vel
    if pos > hi:
        pos = 2 * hi - pos
        vel = -vel
    return min(max(pos, lo), hi), vel


def gen_sequence(spec: SceneSpec) -> Sequence:
    """Spec's ground truth, and frames that render when indexed.

    The gt and each frame's visible objects (after the blink draws) are
    computed here; frame t's flicker is read at offset t * 3 * S * S of the
    (seed, 0xF1) stream (one 64-bit draw per double). Each object's texture
    comes from one generator per object and sequence, seeded
    (seed, 0x7E, obj_id), and pixels are evaluated on broadcast row and
    column coordinates. The frames and gt equal, bit for bit, those of the
    per-frame meshgrid renderer kept as tests/refimpl.gen_sequence_reference.
    """
    spec.validate()
    s = CANVAS
    rng_bg = np.random.default_rng((spec.seed, 0xB6))
    background = 0.1 + 0.08 * rng_bg.random((3, s, s))
    rows = np.arange(s)[:, None]
    background += 0.04 * (rows / s)[None]

    state = [(o.cx, o.cy, o.vx, o.vy) for o in spec.objects]
    textures = [_texture_params((spec.seed, 0x7E, o.obj_id)) for o in spec.objects]
    rng_blink = np.random.default_rng((spec.seed, 0xB7))
    plan = []                 # per frame: the objects it paints
    gt = []
    for t in range(spec.length):
        painted = []
        boxes = []
        for k, obj in enumerate(spec.objects):
            cx, cy, vx, vy = state[k]
            size = obj.size
            if obj.size_end is not None and spec.length > 1:
                size = obj.size + (obj.size_end - obj.size) * t / (spec.length - 1)
            half = size / 2
            cx = min(max(cx, half), s - half)
            cy = min(max(cy, half), s - half)
            left, top = cx - half, cy - half
            x0, x1 = max(math.floor(left), 0), min(math.ceil(left + size), s)
            y0, y1 = max(math.floor(top), 0), min(math.ceil(top + size), s)
            if t == 0 or spec.blink == 0.0 or rng_blink.random() >= spec.blink:
                painted.append((obj.class_id, textures[k], left, top, size, x0, x1, y0, y1))
            boxes.append(GtBox(obj.obj_id, obj.class_id,
                               np.array([left, top, size, size], dtype=np.float64)))
            ncx, nvx = _bounce(cx, vx, half, s - half)
            ncy, nvy = _bounce(cy, vy, half, s - half)
            state[k] = (ncx, ncy, nvx, nvy)
        plan.append(painted)
        gt.append(boxes)

    def render(t):
        frame = background.copy()
        if spec.flicker > 0:
            rng_flicker = np.random.default_rng((spec.seed, 0xF1))
            rng_flicker.bit_generator.advance(t * 3 * s * s)
            frame += spec.flicker * (rng_flicker.random((3, s, s)) - 0.5)
        for class_id, texture, left, top, size, x0, x1, y0, y1 in plan[t]:
            u = ((np.arange(x0, x1) + 0.5 - left) / size)[None, :]
            v = ((np.arange(y0, y1) + 0.5 - top) / size)[:, None]
            mask = (_shape_mask(class_id, u, v) & (u >= 0) & (u <= 1)
                    & (v >= 0) & (v <= 1))
            np.copyto(frame[:, y0:y1, x0:x1], _texture_rgb(texture, u, v), where=mask)
        return np.clip(frame, 0.0, 1.0)

    return Sequence(Frames(render, range(spec.length)), gt, spec)


# ---------------------------------------------------------------------------
# scenario library


def random_scene(seed, num_objects=2, length=16, flicker=0.0, blink=0.0):
    if num_objects < 0:
        raise ConfigError(f"number of objects must be >= 0, got {num_objects}")
    rng = np.random.default_rng((seed, 0x5C))
    objs = []
    for i in range(num_objects):
        size = float(rng.uniform(14, 30))
        half = size / 2
        objs.append(ObjectSpec(
            obj_id=i,
            class_id=int(rng.integers(1, NUM_CLASSES + 1)),
            cx=float(rng.uniform(half, CANVAS - half)),
            cy=float(rng.uniform(half, CANVAS - half)),
            vx=float(rng.uniform(1.0, 3.0) * rng.choice([-1, 1])),
            vy=float(rng.uniform(1.0, 3.0) * rng.choice([-1, 1])),
            size=size,
        ))
        # A draw nothing reads: it fixes the stream positions the next
        # objects read from, so each seed keeps giving the same scene.
        rng.random()
    return SceneSpec(length=length, seed=seed, objects=objs, flicker=flicker, blink=blink)


def crossing_pair(seed, length=20):
    """Two same-class objects swap sides along one horizontal line."""
    if length < 2:
        raise ConfigError(f"a crossing pair needs >= 2 frames, got {length}")
    rng = np.random.default_rng((seed, 0xCE))
    cls = int(rng.integers(1, NUM_CLASSES + 1))
    size = float(rng.uniform(18, 24))
    half = size / 2
    y = float(rng.uniform(CANVAS * 0.35, CANVAS * 0.65))
    jitter = float(rng.uniform(-2.0, 2.0))
    span = CANVAS - 2 * half - 4
    speed = span / (length - 1)
    objs = [
        ObjectSpec(0, cls, cx=half + 2, cy=y, vx=speed, vy=0.0, size=size),
        ObjectSpec(1, cls, cx=CANVAS - half - 2, cy=y + jitter, vx=-speed, vy=0.0,
                   size=size),
    ]
    return SceneSpec(length=length, seed=seed, objects=objs)


def scale_change(seed, length=16):
    """One object crossing slowly while its size ramps up."""
    rng = np.random.default_rng((seed, 0x5A))
    cls = int(rng.integers(1, NUM_CLASSES + 1))
    objs = [ObjectSpec(0, cls, cx=CANVAS * 0.3, cy=float(rng.uniform(30, 66)),
                       vx=1.2, vy=0.0, size=12.0, size_end=40.0)]
    return SceneSpec(length=length, seed=seed, objects=objs)


SCENARIOS = {"random": random_scene, "crossing-pair": crossing_pair,
             "scale-change": scale_change}


def build_scenario(name, seed, **kw):
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r} (expected {sorted(SCENARIOS)})")
    return SCENARIOS[name](seed, **kw)


# ---------------------------------------------------------------------------
# per-identity appearance embeddings (external-detections path)


def identity_embedding(seed, obj_id):
    """Deterministic near-binary appearance pattern of AV_LENGTH values for
    one identity."""
    rng = np.random.default_rng((seed, 0xED, obj_id))
    return 0.1 + 0.8 * (rng.random(AV_LENGTH) < 0.5)


def oracle_detections(seq: Sequence, conf=0.9):
    """Ground-truth boxes re-emitted as detections with per-identity
    appearance vectors; the ingestion-path stand-in for a real detector."""
    rng = np.random.default_rng((seq.spec.seed, 0x0D))
    base = {o.obj_id: identity_embedding(seq.spec.seed, o.obj_id)
            for o in seq.spec.objects}
    out = []
    for fidx, boxes in enumerate(seq.gt, start=1):
        dets = []
        for gtb in boxes:
            av = np.clip(base[gtb.obj_id] + rng.normal(0, ORACLE_JITTER, AV_LENGTH), 0.02, 0.98)
            dets.append(Detection(gtb.class_id,
                                  min(max(conf + rng.normal(0, 0.02), 0.5), 0.99),
                                  gtb.corners_norm(), av=av))
        out.append((fidx, dets))
    return out


# ---------------------------------------------------------------------------
# dataset directory: frames/NNNNNN.tnsr + gt.csv (MOT rows + class column)


def write_dataset(seq: Sequence, out_dir):
    out_dir = Path(out_dir)
    (out_dir / "frames").mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(seq.frames, start=1):
        save_tnsr(out_dir / "frames" / f"{i:06d}.tnsr", frame)
    with open(out_dir / "gt.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        for fidx, boxes in enumerate(seq.gt, start=1):
            for b in boxes:
                l, t, bw, bh = b.box_px
                w.writerow([fidx, b.obj_id + 1, f"{l:.3f}", f"{t:.3f}",
                            f"{bw:.3f}", f"{bh:.3f}", 1, -1, -1, -1, b.class_id])


@dataclass
class Video:
    name: str
    frames: Frames               # [3,S,S] float64 arrays, read when indexed
    classes: list                # per frame: int array
    boxes_norm: list             # per frame: [N,4] corner-form normalized


def _gt_row_problem(frame, w, h, cls, num_frames):
    """What makes a MOT row unusable as ground truth of a video, or None."""
    if w <= 0 or h <= 0:
        return f"box width and height must be > 0, got {w} x {h}"
    if not 1 <= frame <= num_frames:
        return f"frame {frame} outside 1..{num_frames}"
    if cls < 1:
        return f"class {cls} must be >= 1"
    return None


def load_video_dir(path) -> Video:
    path = Path(path)
    frame_files = sorted((path / "frames").glob("*.tnsr"))
    if not frame_files:
        raise ConfigError(f"{path}: no frames/*.tnsr found")
    frames = Frames(lambda i: load_tnsr(frame_files[i]), range(len(frame_files)))
    shapes = [tnsr_shape(f) for f in frame_files]     # every header, no payload
    shape = shapes[0]
    if len(shape) != 3 or shape[0] != 3 or shape[1] != shape[2] or shape[1] < 1:
        raise ConfigError(f"{frame_files[0]}: a frame must be [3,S,S] with S >= 1, "
                          f"got {list(shape)}")
    for f, other in zip(frame_files, shapes):
        if other != shape:
            raise ConfigError(f"{f}: frame shape {list(other)} differs from "
                              f"the first frame's {list(shape)}")
    side = shape[-1]              # gt is normalised by the frames' own size
    per = {i: ([], []) for i in range(1, len(frames) + 1)}
    gt_path = path / "gt.csv"
    if gt_path.exists():
        for lineno, row in mot_rows(gt_path):
            fidx, _oid, l, t, w, h = row[:6]
            cls = row[10] if len(row) > 10 else 1
            problem = _gt_row_problem(fidx, w, h, cls, len(frames))
            if problem:
                raise ParseError(f"{gt_path}:{lineno}: {problem}")
            clss, bn = per[fidx]
            clss.append(cls)
            bn.append([l / side, t / side, (l + w) / side, (t + h) / side])
    return Video(
        name=path.name,
        frames=frames,
        classes=[np.array(per[i][0], dtype=int) for i in sorted(per)],
        boxes_norm=[np.array(per[i][1], dtype=np.float64).reshape(-1, 4) for i in sorted(per)],
    )


def load_dataset_root(root):
    """A dataset root holds one video directory per sequence."""
    root = Path(root)
    if (root / "frames").is_dir():
        return [load_video_dir(root)]
    subdirs = sorted(p for p in root.iterdir() if (p / "frames").is_dir())
    if not subdirs:
        raise ConfigError(f"{root}: no video directories found")
    return [load_video_dir(p) for p in subdirs]
