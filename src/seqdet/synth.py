"""Deterministic moving-shapes sequence generator.

Sequences are rendered on a 96x96 RGB canvas in [0, 1]. Each object has a
class (shape type), a persistent identity, a striped texture that moves
with it, and a linear trajectory that bounces off the walls so boxes stay
inside the canvas. The same seed always reproduces the same frames and
ground truth, bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .tensor import load_tnsr, save_tnsr
from .tracker import whole_number

CANVAS = 96
NUM_CLASSES = 4
MIN_BOX = 4


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
    canvas: int = CANVAS
    seed: int = 0
    objects: list = field(default_factory=list)
    scenario: str = "custom"
    flicker: float = 0.0      # per-frame uniform pixel noise amplitude
    occluder: tuple | None = None    # (x0, x1) vertical bar drawn over objects
    blink: float = 0.0        # chance an object is invisible on a frame
                              # (stays annotated, like brief full occlusion)

    def validate(self):
        if self.length < 1:
            raise ConfigError(f"sequence length must be >= 1, got {self.length}")
        if self.canvas < 16:
            raise ConfigError(f"canvas too small: {self.canvas}")
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

    def corners_norm(self, canvas=CANVAS):
        l, t, w, h = self.box_px
        return np.array([l, t, l + w, t + h], dtype=np.float64) / canvas


@dataclass
class Sequence:
    frames: list              # list of [3,S,S] float64 arrays
    gt: list                  # per frame: list[GtBox]
    spec: SceneSpec


def _texture_rgb(tex_seed, u, v):
    """Striped RGB pattern over in-box coordinates u, v in [0,1]."""
    rng = np.random.default_rng(tex_seed)
    base = rng.uniform(0.35, 0.95, 3)
    fu, fv = rng.uniform(2.0, 6.0, 2)
    phase = rng.uniform(0, 2 * np.pi)
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
    spec.validate()
    s = spec.canvas
    rng_bg = np.random.default_rng((spec.seed, 0xB6))
    background = 0.1 + 0.08 * rng_bg.random((3, s, s))
    yy, xx = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    background += 0.04 * (yy / s)[None]

    state = [(o.cx, o.cy, o.vx, o.vy) for o in spec.objects]
    rng_flicker = np.random.default_rng((spec.seed, 0xF1))
    rng_blink = np.random.default_rng((spec.seed, 0xB7))
    frames = []
    gt = []
    for t in range(spec.length):
        frame = background.copy()
        if spec.flicker > 0:
            frame += spec.flicker * (rng_flicker.random((3, s, s)) - 0.5)
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
            x0, x1 = int(np.floor(left)), int(np.ceil(left + size))
            y0, y1 = int(np.floor(top)), int(np.ceil(top + size))
            x0, y0 = max(x0, 0), max(y0, 0)
            x1, y1 = min(x1, s), min(y1, s)
            px = np.arange(x0, x1)
            py = np.arange(y0, y1)
            u = (px + 0.5 - left) / size
            v = (py + 0.5 - top) / size
            uu, vv = np.meshgrid(u, v, indexing="xy")
            mask = _shape_mask(obj.class_id, uu, vv) & (uu >= 0) & (uu <= 1) & (vv >= 0) & (vv <= 1)
            visible = t == 0 or spec.blink == 0.0 or rng_blink.random() >= spec.blink
            if mask.any() and visible:
                rgb = _texture_rgb((spec.seed, 0x7E, obj.obj_id), uu, vv)
                region = frame[:, y0:y1, x0:x1]
                region[:, mask] = rgb[:, mask]
            boxes.append(GtBox(obj.obj_id, obj.class_id,
                               np.array([left, top, size, size], dtype=np.float64)))
            ncx, nvx = _bounce(cx, vx, half, s - half)
            ncy, nvy = _bounce(cy, vy, half, s - half)
            state[k] = (ncx, ncy, nvx, nvy)
        if spec.occluder is not None:
            x0, x1 = (int(v) for v in spec.occluder)
            # objects stay annotated while they pass behind the bar
            bar = 0.06 + 0.05 * ((yy[:, x0:x1] // 3) % 2)
            frame[:, :, x0:x1] = bar[None]
        frames.append(np.clip(frame, 0.0, 1.0))
        gt.append(boxes)
    return Sequence(frames, gt, spec)


# ---------------------------------------------------------------------------
# scenario library


def random_scene(seed, num_objects=2, length=16, canvas=CANVAS, flicker=0.0,
                 occluder=False, blink=0.0):
    rng = np.random.default_rng((seed, 0x5C))
    bar = None
    if occluder:
        x0 = float(rng.uniform(canvas * 0.35, canvas * 0.55))
        bar = (x0, x0 + float(rng.uniform(16, 22)))
    objs = []
    for i in range(num_objects):
        size = float(rng.uniform(14, 30))
        half = size / 2
        objs.append(ObjectSpec(
            obj_id=i,
            class_id=int(rng.integers(1, NUM_CLASSES + 1)),
            cx=float(rng.uniform(half, canvas - half)),
            cy=float(rng.uniform(half, canvas - half)),
            vx=float(rng.uniform(1.0, 3.0) * rng.choice([-1, 1])),
            vy=float(rng.uniform(1.0, 3.0) * rng.choice([-1, 1])),
            size=size,
        ))
        # A draw nothing reads: it fixes the stream positions the next
        # objects read from, so each seed keeps giving the same scene.
        rng.random()
    return SceneSpec(length=length, canvas=canvas, seed=seed, objects=objs,
                     scenario="random", flicker=flicker, occluder=bar, blink=blink)


def crossing_pair(seed, length=20, canvas=CANVAS):
    """Two same-class objects swap sides along one horizontal line."""
    rng = np.random.default_rng((seed, 0xCE))
    cls = int(rng.integers(1, NUM_CLASSES + 1))
    size = float(rng.uniform(18, 24))
    half = size / 2
    y = float(rng.uniform(canvas * 0.35, canvas * 0.65))
    jitter = float(rng.uniform(-2.0, 2.0))
    span = canvas - 2 * half - 4
    speed = span / (length - 1)
    objs = [
        ObjectSpec(0, cls, cx=half + 2, cy=y, vx=speed, vy=0.0, size=size),
        ObjectSpec(1, cls, cx=canvas - half - 2, cy=y + jitter, vx=-speed, vy=0.0,
                   size=size),
    ]
    return SceneSpec(length=length, canvas=canvas, seed=seed, objects=objs,
                     scenario="crossing-pair")


def scale_change(seed, length=16, canvas=CANVAS):
    """One object crossing slowly while its size ramps up."""
    rng = np.random.default_rng((seed, 0x5A))
    cls = int(rng.integers(1, NUM_CLASSES + 1))
    objs = [ObjectSpec(0, cls, cx=canvas * 0.3, cy=float(rng.uniform(30, 66)),
                       vx=1.2, vy=0.0, size=12.0, size_end=40.0)]
    return SceneSpec(length=length, canvas=canvas, seed=seed, objects=objs,
                     scenario="scale-change")


SCENARIOS = {"random": random_scene, "crossing-pair": crossing_pair,
             "scale-change": scale_change}


def build_scenario(name, seed, **kw):
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r} (expected {sorted(SCENARIOS)})")
    return SCENARIOS[name](seed, **kw)


# ---------------------------------------------------------------------------
# per-identity appearance embeddings (external-detections path)


def identity_embedding(seed, obj_id, dim=147):
    """Deterministic near-binary appearance pattern for one identity."""
    rng = np.random.default_rng((seed, 0xED, obj_id))
    return 0.1 + 0.8 * (rng.random(dim) < 0.5)


def oracle_detections(seq: Sequence, conf=0.9, jitter=0.02):
    """Ground-truth boxes re-emitted as detections with per-identity
    appearance vectors; the ingestion-path stand-in for a real detector."""
    rng = np.random.default_rng((seq.spec.seed, 0x0D))
    base = {o.obj_id: identity_embedding(seq.spec.seed, o.obj_id)
            for o in seq.spec.objects}
    out = []
    for fidx, boxes in enumerate(seq.gt, start=1):
        dets = []
        from .postproc import Detection
        for gtb in boxes:
            av = np.clip(base[gtb.obj_id] + rng.normal(0, jitter, 147), 0.02, 0.98)
            dets.append(Detection(gtb.class_id,
                                  float(np.clip(conf + rng.normal(0, 0.02), 0.5, 0.99)),
                                  gtb.corners_norm(seq.spec.canvas), av=av))
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
    frames: list                 # [3,S,S] float64 arrays
    ids: list                    # per frame: int array
    classes: list                # per frame: int array
    boxes_norm: list             # per frame: [N,4] corner-form normalized
    boxes_px: list               # per frame: [N,4] (l,t,w,h) pixels
    canvas: int = CANVAS


def _gt_row_problem(frame, l, t, w, h, cls, num_frames):
    """What makes a parsed gt row unusable, or None."""
    if not all(map(math.isfinite, (l, t, w, h))):
        return f"box values must be finite, got {[l, t, w, h]}"
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
    frames = [load_tnsr(f) for f in frame_files]
    shape = frames[0].shape
    if len(shape) != 3 or shape[0] != 3 or shape[1] != shape[2]:
        raise ConfigError(f"{frame_files[0]}: a frame must be [3,S,S], got {list(shape)}")
    for f, frame in zip(frame_files, frames):
        if frame.shape != shape:
            raise ConfigError(f"{f}: frame shape {list(frame.shape)} differs from "
                              f"the first frame's {list(shape)}")
    canvas = shape[-1]
    per = {i: ([], [], [], []) for i in range(1, len(frames) + 1)}
    gt_path = path / "gt.csv"
    if gt_path.exists():
        with open(gt_path, errors="replace") as fh:
            for lineno, row in enumerate(csv.reader(fh), 1):
                if not row:
                    continue
                try:
                    fidx, oid = whole_number(row[0]), whole_number(row[1])
                    l, t, w, h = (float(v) for v in row[2:6])
                    cls = whole_number(row[10]) if len(row) > 10 else 1
                    if None in (fidx, oid, cls):
                        raise ValueError(f"frame, id and class must be whole numbers "
                                         f"within 64 bits, got "
                                         f"{', '.join(map(repr, row[:2] + row[10:11]))}")
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"{gt_path}:{lineno}: bad gt row ({exc})") from exc
                problem = _gt_row_problem(fidx, l, t, w, h, cls, len(frames))
                if problem:
                    raise ParseError(f"{gt_path}:{lineno}: {problem}")
                ids, clss, bn, bp = per[fidx]
                ids.append(oid)
                clss.append(cls)
                bn.append([l / canvas, t / canvas, (l + w) / canvas, (t + h) / canvas])
                bp.append([l, t, w, h])
    return Video(
        name=path.name,
        frames=frames,
        ids=[np.array(per[i][0], dtype=int) for i in sorted(per)],
        classes=[np.array(per[i][1], dtype=int) for i in sorted(per)],
        boxes_norm=[np.array(per[i][2], dtype=np.float64).reshape(-1, 4) for i in sorted(per)],
        boxes_px=[np.array(per[i][3], dtype=np.float64).reshape(-1, 4) for i in sorted(per)],
        canvas=canvas,
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
