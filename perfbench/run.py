"""seqdet benchmark: one workload per process, inputs from --seed.

    python3 perfbench/run.py --workload detect|train|track --seed N \
        --seconds S --trace 0|1

Run from the root of a seqdet checkout. With --trace 0 the workload's
own operations repeat for --seconds, with a fixed number of the other
workloads' operation cycles spread over that window, and the last stdout
line is a JSON object with every end-to-end metric; each timing is
normalised to a nominal host speed by a calibration thread. With --trace 1
untraced and traced rounds of the workload's own operations alternate,
and the metrics are the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one directory per process, so two runs in one checkout do not collide
WORK = ROOT / ".perfbench_work" / str(os.getpid())

BLAS_THREADS = 1
GROUPS = ("detect", "train", "track")
SETUP_REPEATS = 3
MIN_CYCLES = 2
# Cycles of the other workloads' operations run inside each workload's timed
# window, spread evenly over it, so that every run reports every end-to-end
# metric from a few samples at least (a train cycle takes ~5 s, detect ~3 s,
# track ~0.7 s).
COMPANION_CYCLES = {
    "detect": {"train": 3, "track": 8},
    "train": {"detect": 3, "track": 8},
    "track": {"detect": 3, "train": 3},
}
MIN_TRACED_ROUNDS = 2
MAX_TRACED_ROUNDS = 5
# Timings are reported at the host speed at which a calibration burst
# (workloads.calibration_burst) takes this many CPU seconds.
CAL_NOMINAL_S = 0.0005

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("detect_fps", "frames/s"),
    ("stage1_step_s", "s"), ("stage2_step_s", "s"), ("stage3_step_s", "s"),
    ("track_fps", "frames/s"), ("eval_mot_s", "s"), ("eval_map_s", "s"),
    ("mota", "fraction"),
)

SRC_MODULES = ("cli", "errors", "evaluation", "loss", "net", "postproc", "synth",
               "tensor", "tracker", "train")


def _per_layer_names():
    self_s = ["tensor.backward", "tensor.load_tnsr", "tensor.save_tnsr",
              "net.backbone_forward", "net.unify_low_channels",
              "net.temporal_pyramid_forward", "net.head_forward",
              "net.load_checkpoint", "net.save_checkpoint",
              "loss.match_priors", "loss.loc_conf_loss", "loss.attention_loss",
              "loss.association_loss_node",
              "train.detections_for_frame", "train.score_list_nodes",
              "train.sgd_step", "train.rmsprop_step", "train.clip_gradients",
              "postproc.decode", "postproc.nms", "postproc.iou_matrix",
              "postproc.write_detections_jsonl", "postproc.read_detections_jsonl",
              "tracker.update_tracks", "tracker.attention_vector_for_box",
              "tracker.write_mot_csv", "tracker.read_mot_csv",
              "evaluation.mot_metrics", "evaluation.voc_map",
              "synth.gen_sequence", "synth.write_dataset", "synth.load_video_dir",
              "cli.main"]
    incl_s = ["train.detections_for_frame", "postproc.nms", "tracker.update_tracks",
              "cli.main"]
    calls = ["tensor.backward", "net.backbone_forward", "net.unify_low_channels",
             "net.temporal_pyramid_forward", "net.head_forward",
             "net.load_checkpoint", "net.save_checkpoint", "postproc.iou_matrix",
             "tracker.tubelet_similarity", "tracker.attention_vector_for_box"]
    names = [(f"{n}.self_s", "s") for n in self_s]
    names += [(f"{n}.incl_s", "s") for n in incl_s]
    names += [(f"{n}.calls", "count") for n in calls]
    names += [("tensor.graph_nodes", "count"), ("postproc.nms.candidates", "count"),
              ("postproc.nms.kept", "count"), ("postproc.nms.keep_ratio", "fraction"),
              ("loss.matched_priors", "count"), ("loss.mined_negatives", "count"),
              ("tracker.births", "count"), ("tracker.inherits", "count")]
    names += [(f"{m}.src_lines", "lines") for m in SRC_MODULES]
    names += [("seqdet.src_lines", "lines"), ("trace.untraced_round_s", "s"),
              ("trace.overhead_s", "s")]
    return tuple(names)


PER_LAYER = _per_layer_names()


# ---------------------------------------------------------------------------
# environment


def bootstrap():
    """Pin BLAS threads and import seqdet from this checkout's src/.
    Returns an error message, or None when ready."""
    if not (SRC / "seqdet" / "__init__.py").is_file():
        return f"no seqdet sources under {SRC}"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SEQDET_OUTDIR", None)
    sys.path.insert(0, str(SRC))
    import seqdet
    if Path(seqdet.__file__).resolve().parent != (SRC / "seqdet").resolve():
        return f"seqdet imported from {seqdet.__file__}, not {SRC}"
    return None


def blas_record():
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def src_lines():
    out = {}
    for m in SRC_MODULES:
        path = SRC / "seqdet" / f"{m}.py"
        out[m] = len(path.read_text().splitlines()) if path.exists() else 0
    out["seqdet"] = sum(len(p.read_text().splitlines())
                        for p in (SRC / "seqdet").glob("*.py"))
    return out


def environment():
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "src_lines": src_lines()}


# ---------------------------------------------------------------------------
# runs


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_unit(session, ops, outcomes):
    for op in ops:
        outcome = session.run(op)
        if not outcome.ok:
            print(f"[failed] {op.kind} {op.key}: {outcome.error}", file=sys.stderr)
        outcomes.append(outcome)
    shutil.rmtree(session.out_root, ignore_errors=True)


def _run_cycle(session, group, outcomes):
    for ops in session.units(group):
        _run_unit(session, ops, outcomes)


def _sample_line(kind, values):
    return (f"[samples] {kind} n={len(values)} median={_median(values):.6g} "
            + " ".join(f"{v:.4g}" for v in values))


def middle_mean(values):
    """Mean of the middle half of the values (of all, when fewer than four):
    as robust to a stray stall as the median, steadier on few samples."""
    values = sorted(values)
    cut = len(values) // 4 if len(values) >= 4 else 0
    return statistics.mean(values[cut:len(values) - cut]) if values else 0.0


def normalised(seconds, cal, sensitivity=1.0):
    """Seconds at the nominal host speed: the host ran a calibration burst
    in `cal` CPU seconds around the call, against CAL_NOMINAL_S; the call
    slows down `sensitivity` times as much as the burst, in log terms."""
    return seconds * (CAL_NOMINAL_S / cal) ** sensitivity


# The Python-heavy ingestion calls (tracker, JSONL and CSV parsing, CLEAR-MOT
# and VOC evaluation) slow down more than the calibration burst when the host
# does: across 90 ten-seed runs their normalised times still rose with the
# run's burst time (log slope +0.36 to +0.61). The network calls did not.
INGEST_SENSITIVITY = 1.5

# Timing metrics: (name, outcome kind, per-call value from seconds and work,
# sensitivity to the host's speed relative to the calibration burst).
TIMINGS = (
    ("detect_fps", "detect", lambda s, w: w / s, 1.0),
    ("stage1_step_s", "stage1", lambda s, w: s / w, 1.0),
    ("stage2_step_s", "stage2", lambda s, w: s / w, 1.0),
    ("stage3_step_s", "stage3", lambda s, w: s / w, 1.0),
    ("track_fps", "track", lambda s, w: w / s, INGEST_SENSITIVITY),
    ("eval_mot_s", "eval-mot", lambda s, w: s, INGEST_SENSITIVITY),
    ("eval_map_s", "eval-map", lambda s, w: s, INGEST_SENSITIVITY),
)


def timed_run(workload, seed, seconds):
    import workloads as W

    allowed = W.pin_to_one_cpu()
    try:
        with W.SpeedSampler() as sampler:
            setup, outcomes, warmup, peak_rss_mb = _timed_ops(W, workload, seed,
                                                              seconds)
    finally:
        os.sched_setaffinity(0, allowed)

    setup_s = [normalised(s, sampler.around(t0, s)) for t0, s in setup]
    metrics = {"setup_s": _median(setup_s), "peak_rss_mb": peak_rss_mb}
    print(f"[calibration] bursts={len(sampler.samples)} median="
          f"{_median([c for _, c in sampler.samples]):.6g} s, nominal {CAL_NOMINAL_S} s")
    print(_sample_line("setup_s", setup_s))
    for name, kind, value, sensitivity in TIMINGS:
        samples = [value(normalised(o.seconds, sampler.around(o.start, o.seconds),
                                    sensitivity), o.work)
                   for o in outcomes if o.kind == kind]
        metrics[name] = middle_mean(samples)
        print(_sample_line(name, samples))
    metrics["mota"] = _median([o.value["mota"] for o in outcomes
                               if o.kind == "eval-mot" and o.ok])
    outcomes += warmup
    failed = sum(not o.ok for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def _timed_ops(W, workload, seed, seconds):
    setup = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = W.build_inputs(WORK / f"inputs_{k}", seed)
        setup.append((t0, time.perf_counter() - t0))
    session = W.Session(inputs, WORK / "out", W.load_reference())

    # One untimed cycle of the workload's own operations warms caches and
    # lazy set-up; the peak RSS after it belongs to this workload alone.
    warmup = []
    _run_cycle(session, workload, warmup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each unit of the other workloads' cycles is due at evenly spaced times
    # across the window, and the workload's own units run one at a time in
    # between, so every metric samples the whole run, not a few stretches of
    # it: the host's speed changes within seconds.
    start = time.perf_counter()
    due = []
    for group, n in COMPANION_CYCLES[workload].items():
        m = len(session.units(group))
        due += [(start + seconds * (i + (j + 0.5) / m) / n, group, j)
                for i in range(n) for j in range(m)]
    due.sort()
    outcomes = []
    own = done = 0
    m_own = len(session.units(workload))
    while own < MIN_CYCLES * m_own or time.perf_counter() < start + seconds:
        while done < len(due) and time.perf_counter() >= due[done][0]:
            _, group, j = due[done]
            _run_unit(session, session.units(group)[j], outcomes)
            done += 1
        _run_unit(session, session.units(workload)[own % m_own], outcomes)
        own += 1
    for _t, group, j in due[done:]:
        _run_unit(session, session.units(group)[j], outcomes)
    cycles = own / m_own
    print(f"[ops] own cycles={cycles:.2f} companion units={len(due)}")
    return setup, outcomes, warmup, peak_rss_mb


def _round(session, workload, seed, k, outcomes):
    """One setup plus one cycle of the workload's own operations; returns
    (start, wall seconds)."""
    import workloads as W

    t0 = time.perf_counter()
    session.inputs = W.build_inputs(WORK / f"inputs_{k}", seed)
    _run_cycle(session, workload, outcomes)
    seconds = time.perf_counter() - t0
    shutil.rmtree(WORK / f"inputs_{k}", ignore_errors=True)
    return t0, seconds


def layer_values(tracer, round_s, untraced_s, lines):
    stats, counts = tracer.stats, tracer.counts
    calls = stats["tensor.backward"][0]
    kept, cand = counts["postproc.nms.kept"], counts["postproc.nms.candidates"]
    values = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = stats[base][2]
        elif field == "incl_s":
            values[name] = stats[base][1]
        elif field == "calls":
            values[name] = stats[base][0]
        elif field == "src_lines":
            values[name] = lines[base]
        elif name in counts:
            values[name] = counts[name]
    values["tensor.graph_nodes"] = (counts["tensor.graph_nodes_total"] / calls
                                    if calls else 0.0)
    values["postproc.nms.keep_ratio"] = kept / cand if cand else 0.0
    values["trace.untraced_round_s"] = untraced_s
    values["trace.overhead_s"] = round_s - untraced_s
    return values


def traced_run(workload, seed, seconds):
    """Untraced and traced rounds alternate, so both see the same machine
    state; the overhead is the difference of their medians, both normalised
    like the end-to-end timings. Per-layer times are raw wall seconds."""
    import tracing
    import workloads as W

    session = W.Session(None, WORK / "out", W.load_reference())
    outcomes = []
    deadline = time.perf_counter() + seconds
    lines = src_lines()
    untraced, rounds = [], []
    allowed = W.pin_to_one_cpu()
    try:
        with W.SpeedSampler() as sampler:
            while len(rounds) < MIN_TRACED_ROUNDS or (
                    len(rounds) < MAX_TRACED_ROUNDS and time.perf_counter() < deadline):
                k = len(untraced) + len(rounds)
                untraced.append(_round(session, workload, seed, k, outcomes))
                with tracing.Tracer() as tracer:
                    timing = _round(session, workload, seed, k + 1, outcomes)
                rounds.append((tracer, timing))
    finally:
        os.sched_setaffinity(0, allowed)
    print(rounds[0][0].table())

    repeat = all(t.work_counts() == rounds[0][0].work_counts() for t, _ in rounds)
    if not repeat:
        print("[failed] work counts differ between traced rounds", file=sys.stderr)
    untraced_s = _median([normalised(s, sampler.around(t0, s)) for t0, s in untraced])
    per_round = [layer_values(t, normalised(s, sampler.around(t0, s)), untraced_s, lines)
                 for t, (t0, s) in rounds]
    failed = sum(not o.ok for o in outcomes)
    return {"correct": failed == 0 and repeat, "attempted": len(outcomes),
            "failed": failed,
            "metrics": {name: {"value": _median([v[name] for v in per_round]),
                               "unit": unit} for name, unit in PER_LAYER}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=GROUPS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    error = bootstrap()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    try:
        run = traced_run if args.trace else timed_run
        result = run(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    env = environment()
    print("[env] " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
