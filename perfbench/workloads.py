"""Inputs, operations and output checks of the seqdet benchmark.

Every operation is one `seqdet.cli.main(argv)` call with the argv a user
would type, followed by a check of what it wrote. Inputs are built from
the workload seed with the library (the program only ever sees the
generated files). `SpeedSampler` measures the host's speed while the
operations run, so that run.py can normalise their times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seqdet import cli, net, synth
from seqdet.postproc import PROFILES, write_detections_jsonl

# detect: the ROADMAP's flickering, blinking two-object scenes at init params
DETECT_VIDEOS = 3
DETECT_FRAMES = 24
DETECT_CONF = 0.3
DETECT_PROFILE = "vid"
# train: one video of the same kind per call, so a stage-2/3 call is one step
TRAIN_FRAMES = 24
# track: crowded scenes (16 objects is about 4 per class per frame), long
# enough that tubelets fill to tub_len_max = 10
TRACK_VIDEOS = 2
TRACK_FRAMES = 32
TRACK_OBJECTS = 16

SCENE_KW = {"num_objects": 2, "flicker": 0.3, "blink": 0.25}

# Recorded losses may drift by summation order only: loss.csv keeps six
# decimals, and one epoch of SGD barely amplifies a 1e-12 difference.
LOSS_ABS_TOL = 1e-5
LOSS_REL_TOL = 1e-4

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    root: Path
    seed: int
    detect_videos: list
    detect_ckpt: Path
    train_data: Path
    stage1_ckpt: Path
    track_videos: list


def build_inputs(root, seed):
    """Write every input the three workloads use under root."""
    root = Path(root)
    detect_videos = []
    for i in range(DETECT_VIDEOS):
        seq = synth.gen_sequence(synth.random_scene(seed + i, length=DETECT_FRAMES,
                                                    **SCENE_KW))
        vdir = root / "detect" / f"video_{i:03d}"
        synth.write_dataset(seq, vdir)
        detect_videos.append(vdir)
    temporal = net.ModelConfig()
    detect_ckpt = root / "ckpt_temporal"
    net.save_checkpoint(detect_ckpt, net.init_params(seed, temporal),
                        temporal.to_meta())

    seq = synth.gen_sequence(synth.random_scene(seed + DETECT_VIDEOS,
                                                length=TRAIN_FRAMES, **SCENE_KW))
    train_data = root / "train"
    synth.write_dataset(seq, train_data / "video_000")
    static = net.ModelConfig(temporal=False)
    stage1_ckpt = root / "ckpt_stage1"
    net.save_checkpoint(stage1_ckpt, net.init_params(seed, static, with_lstm=False),
                        static.to_meta())

    track_videos = []
    for i in range(TRACK_VIDEOS):
        seq = synth.gen_sequence(synth.random_scene(
            seed + DETECT_VIDEOS + 1 + i, num_objects=TRACK_OBJECTS,
            length=TRACK_FRAMES))
        vdir = root / "track" / f"video_{i:03d}"
        synth.write_dataset(seq, vdir)
        write_detections_jsonl(vdir / "detections.jsonl", synth.oracle_detections(seq))
        track_videos.append(vdir)
    return Inputs(root, seed, detect_videos, detect_ckpt, train_data, stage1_ckpt,
                  track_videos)


# ---------------------------------------------------------------------------
# operations


def pin_to_one_cpu():
    """Pin the whole process (every thread started after this) to one allowed
    CPU, so that the speed sampler measures the CPU the operations run on.
    Returns the previous affinity."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((32, 48))
_CAL_B = _CAL_RNG.standard_normal((48, 48)) * 0.1


def calibration_burst():
    """CPU seconds of a fixed piece of work in the program's own mix:
    small-array numpy calls driven from a Python loop, plus interpreter
    arithmetic. Thread CPU time, so time spent waiting for the GIL or off
    the CPU does not count; what is left follows the host's speed."""
    t0 = time.thread_time()
    x, total = _CAL_A, 0
    for i in range(12):
        y = np.tanh(x @ _CAL_B)
        x = y * 0.5 + y.mean(axis=0)
        for j in range(120):
            total += (i * j) & 7
    return time.thread_time() - t0


class SpeedSampler:
    """A thread that runs a calibration burst every `period` seconds, on
    the same CPU as the operations (see pin_to_one_cpu), and keeps
    (time, burst CPU seconds). A shared host's speed changes within a
    second and drifts over minutes; `around` gives the median burst while
    an operation ran, which divides that drift out of its time."""

    def __init__(self, period=0.0125):
        self.period = period
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(self.period):
            cpu = calibration_burst()
            self.samples.append((time.perf_counter(), cpu))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def around(self, start, seconds, pad=0.1):
        """Median burst time from `pad` seconds before start to `pad`
        seconds after the end; None if there is none."""
        lo, hi = start - pad, start + seconds + pad
        inside = [cpu for t, cpu in self.samples if lo <= t <= hi]
        return statistics.median(inside) if inside else None


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    kind: str                 # metric group: detect, stage1..3, track, eval-mot, eval-map
    key: str                  # identifies the input, for repeat comparisons
    argv: list
    out: Path
    check: callable
    work: int = 1             # frames or steps the call processes


@dataclass
class Outcome:
    kind: str
    seconds: float
    work: int
    ok: bool
    start: float = 0.0        # perf_counter at the call's start
    value: dict = field(default_factory=dict)
    error: str = ""


class Session:
    """Runs operations against one set of inputs and keeps what later
    checks compare against (first outputs, recorded reference)."""

    def __init__(self, inputs: Inputs, out_root, reference=None, main=None):
        self.inputs = inputs
        self.out_root = Path(out_root)
        self.reference = reference
        self.main = main
        self.first = {}
        self.counter = 0

    def _out(self, kind):
        self.counter += 1
        return self.out_root / f"{self.counter:05d}_{kind}"

    # -- builders -----------------------------------------------------------

    def detect_ops(self):
        ops = []
        for vdir in self.inputs.detect_videos:
            out = self._out("detect")
            argv = ["--seed", str(self.inputs.seed), "--profile", DETECT_PROFILE,
                    "detect", "--conf", str(DETECT_CONF),
                    "--ckpt", str(self.inputs.detect_ckpt), "--data", str(vdir),
                    "--out", str(out)]
            ops.append(Op("detect", vdir.name, argv, out, self.check_detect,
                          DETECT_FRAMES))
        return ops

    def train_ops(self):
        ops = []
        for stage in (1, 2, 3):
            out = self._out(f"stage{stage}")
            argv = ["--seed", str(self.inputs.seed), "train", "--stage", str(stage),
                    "--epochs", "1", "--data", str(self.inputs.train_data),
                    "--out", str(out)]
            if stage > 1:
                argv += ["--init", str(self.inputs.stage1_ckpt)]
            ops.append(Op(f"stage{stage}", f"stage{stage}", argv, out,
                          self.check_train, TRAIN_FRAMES if stage == 1 else 1))
        return ops

    def track_ops(self):
        ops = []
        for vdir in self.inputs.track_videos:
            out = self._out("track")
            res = out / "result.csv"
            dets = str(vdir / "detections.jsonl")
            ops.append(Op("track", vdir.name, ["track", "--dets", dets,
                                               "--out", str(res)],
                          out, self.check_track, TRACK_FRAMES))
            ops.append(Op("eval-mot", vdir.name,
                          ["eval-mot", "--res", str(res), "--gt", str(vdir / "gt.csv"),
                           "--out", str(out / "mot")],
                          out, self.check_eval_mot))
            ops.append(Op("eval-map", vdir.name,
                          ["eval-map", "--dets", dets, "--data", str(vdir),
                           "--out", str(out / "map.csv")],
                          out, self.check_eval_map))
        return ops

    def ops(self, group):
        return {"detect": self.detect_ops, "train": self.train_ops,
                "track": self.track_ops}[group]()

    def units(self, group):
        """The group's operations in the smallest runs that stand alone: one
        video's detect, one training stage, or one video's track followed by
        the two evaluations of its result."""
        ops = self.ops(group)
        size = 3 if group == "track" else 1
        return [ops[i:i + size] for i in range(0, len(ops), size)]

    # -- running ------------------------------------------------------------

    def run(self, op: Op) -> Outcome:
        """One timed CLI call plus its check. A nonzero return, a failed
        check or an unreadable output is a failed operation."""
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            # cli.main is looked up per call so that a tracer's wrapper is seen
            rc = (self.main or cli.main)(op.argv)
        seconds = time.perf_counter() - start
        outcome = Outcome(op.kind, seconds, op.work, ok=False, start=start)
        if rc != 0:
            outcome.error = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
            return outcome
        try:
            outcome.value = op.check(op) or {}
            outcome.ok = True
        except (CheckFailed, OSError, ValueError, KeyError, IndexError,
                TypeError) as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    def _same_as_first(self, kind, key, payload):
        if (kind, key) not in self.first:
            self.first[(kind, key)] = payload
        elif self.first[(kind, key)] != payload:
            raise CheckFailed(f"{kind} {key}: output differs from the first call")

    def _recorded(self, *path):
        node = self.reference
        for p in (str(self.inputs.seed),) + path:
            if not isinstance(node, dict) or p not in node:
                return None
            node = node[p]
        return node

    # -- checks -------------------------------------------------------------

    def check_detect(self, op):
        path = op.out / f"{op.key}.jsonl"
        raw = path.read_bytes()
        check_detections(raw.decode(), DETECT_CONF, PROFILES[DETECT_PROFILE].nms_iou,
                         PROFILES[DETECT_PROFILE].keep_top)
        self._same_as_first(op.kind, op.key, raw)

    def check_train(self, op):
        stage = int(op.kind[-1])
        totals = check_loss_csv(op.out / "loss.csv", op.work)
        ckpt = op.out / "checkpoint"
        if not (ckpt / "manifest.txt").exists():
            raise CheckFailed(f"{op.kind}: no checkpoint written")
        if stage > 1:
            check_frozen_unchanged(self.inputs.stage1_ckpt, ckpt)
        recorded = self._recorded("train", op.kind)
        if recorded is not None:
            compare_losses(op.kind, totals, recorded)
        self._same_as_first(op.kind, op.key, totals)
        return {"losses": totals}

    def check_track(self, op):
        path = op.out / "result.csv"
        check_mot_csv(path)
        self._same_as_first(op.kind, op.key, path.read_bytes())

    def check_eval_mot(self, op):
        lines = (op.out / "mot.csv").read_text().splitlines()
        if len(lines) != 2 or not lines[0].startswith("video,mota"):
            raise CheckFailed(f"eval-mot: unexpected report {lines!r}")
        fields = lines[1].split(",")
        value = {"mota": float(fields[1]), "ids": int(fields[7])}
        self._expect("eval-mot", op.key, value)
        return value

    def check_eval_map(self, op):
        last = (op.out / "map.csv").read_text().splitlines()[-1]
        name, mean = last.split(",")
        if name != "mean":
            raise CheckFailed(f"eval-map: last row is {last!r}")
        value = {"map": float(mean)}
        self._expect("eval-map", op.key, value)
        return value

    def _expect(self, kind, key, value):
        recorded = self._recorded("track", key)
        if recorded is not None:
            for name, got in value.items():
                if got != recorded[name]:
                    raise CheckFailed(f"{kind} {key}: {name} {got} != recorded "
                                      f"{recorded[name]}")
        self._same_as_first(kind, key, value)


# ---------------------------------------------------------------------------
# output checks (independent of the program's own parsers)


def _iou(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def check_detections(text, conf, nms_iou, keep_top):
    """Detections JSONL: parses, every score above conf, per frame and class
    at most keep_top boxes and no pair overlapping above nms_iou."""
    groups = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        score = float(rec["score"])
        box = [float(v) for v in rec["box"]]
        if len(box) != 4 or not all(math.isfinite(v) for v in box + [score]):
            raise CheckFailed(f"line {lineno}: malformed record")
        if not score > conf:
            raise CheckFailed(f"line {lineno}: score {score} not above {conf}")
        groups.setdefault((int(rec["frame"]), int(rec["class"])), []).append(box)
    for (frame, cls), boxes in groups.items():
        if len(boxes) > keep_top:
            raise CheckFailed(f"frame {frame} class {cls}: {len(boxes)} > {keep_top}")
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _iou(boxes[i], boxes[j]) > nms_iou:
                    raise CheckFailed(f"frame {frame} class {cls}: boxes {i} and {j} "
                                      f"overlap above {nms_iou}")
    return len(groups)


def check_loss_csv(path, steps):
    """loss.csv: expected header and row count, every value finite.
    Returns the L_total column."""
    lines = Path(path).read_text().splitlines()
    if lines[0] != "epoch,step,L_loc,L_conf,L_att,L_asso,L_total":
        raise CheckFailed(f"{path}: unexpected header {lines[0]!r}")
    if len(lines) - 1 != steps:
        raise CheckFailed(f"{path}: {len(lines) - 1} rows, expected {steps}")
    totals = []
    for lineno, line in enumerate(lines[1:], 2):
        vals = [float(v) for v in line.split(",")]
        if len(vals) != 7 or not all(math.isfinite(v) for v in vals):
            raise CheckFailed(f"{path}:{lineno}: non-finite or short row {line!r}")
        totals.append(vals[-1])
    return totals


def compare_losses(kind, got, recorded):
    if len(got) != len(recorded):
        raise CheckFailed(f"{kind}: {len(got)} loss rows, recorded {len(recorded)}")
    for step, (a, b) in enumerate(zip(got, recorded), 1):
        if abs(a - b) > LOSS_ABS_TOL + LOSS_REL_TOL * abs(b):
            raise CheckFailed(f"{kind} step {step}: L_total {a} vs recorded {b}")


def check_frozen_unchanged(before, after):
    """Stages 2 and 3 must leave backbone.* and unify.* bitwise unchanged."""
    names = [p.name for p in Path(before).glob("*.tnsr")
             if p.name.startswith(net.FROZEN_PREFIXES)]
    if not names:
        raise CheckFailed(f"{before}: no frozen tensors")
    for name in names:
        if (Path(before) / name).read_bytes() != (Path(after) / name).read_bytes():
            raise CheckFailed(f"frozen tensor {name} changed")


def check_mot_csv(path):
    """MOT result CSV: ten columns, integer frame and id >= 1, finite
    positive-size boxes."""
    rows = 0
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        parts = line.split(",")
        if len(parts) != 10:
            raise CheckFailed(f"{path}:{lineno}: {len(parts)} columns")
        frame, tid = int(parts[0]), int(parts[1])
        vals = [float(v) for v in parts[2:7]]
        if frame < 1 or tid < 1:
            raise CheckFailed(f"{path}:{lineno}: frame {frame} id {tid}")
        if not all(math.isfinite(v) for v in vals) or vals[2] <= 0 or vals[3] <= 0:
            raise CheckFailed(f"{path}:{lineno}: bad box {vals}")
        rows += 1
    if rows == 0:
        raise CheckFailed(f"{path}: no tracked rows")
    return rows


# ---------------------------------------------------------------------------
# recorded reference


def load_reference():
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def record_seed(root, seed):
    """Run every train and track operation once for one seed and return
    the values later runs are checked against."""
    root = Path(root)
    shutil.rmtree(root, ignore_errors=True)
    inputs = build_inputs(root / "inputs", seed)
    session = Session(inputs, root / "out")
    entry = {"train": {}, "track": {}}
    for op in session.train_ops() + session.track_ops():
        outcome = session.run(op)
        if not outcome.ok:
            raise RuntimeError(f"seed {seed}: {op.kind} failed: {outcome.error}")
        if op.kind.startswith("stage"):
            entry["train"][op.kind] = outcome.value["losses"]
        elif op.kind in ("eval-mot", "eval-map"):
            entry["track"].setdefault(op.key, {}).update(outcome.value)
    shutil.rmtree(root, ignore_errors=True)
    return entry
