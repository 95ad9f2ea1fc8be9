"""Command-line surface.

Commands: gen, train, detect, track, eval-map, eval-mot, grad-check,
sweep, dump-attention. gen, train, detect, track, sweep and
dump-attention log their resolved options to run_config.txt; outputs
created by a failing run are removed; errors exit nonzero with a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import evaluation as EV
from . import net
from . import tensor as T
from . import tracker as TK
from . import train as TR
from .errors import ConfigError
from .postproc import PROFILES, read_detections_jsonl, whole_int, write_detections_jsonl
from .synth import (SCENARIOS, build_scenario, gen_sequence, load_dataset_root,
                    load_video_dir, oracle_detections, write_dataset)

MAP_CONF = 0.02       # detection threshold of the held-out mAP a theta sweep reports
GRAD_TOL = 1e-4       # grad-check fails at a relative error this large


class OutputGuard:
    """Tracks paths created by one command so a failure can remove them."""

    def __init__(self):
        self.paths = []

    def register(self, path):
        """path, with its parent directories made. The outermost of path
        and its parents that did not exist yet is removed on cleanup."""
        path = Path(path)
        missing = [p for p in (path, *path.parents) if not p.exists()]
        if missing:
            self.paths.append(missing[-1])
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def cleanup(self):
        for path in reversed(self.paths):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.exists():
                path.unlink()


def _log_config(out_dir, args, reads=()):
    """Writes run_config.txt and prints the [config] line: every option the
    command was given or resolved, and of the global --seed and --profile
    only those the command reads."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    skip = {"func", "settings", *({"seed", "profile"} - set(reads))}
    pairs = sorted((k, v) for k, v in vars(args).items() if k not in skip and v is not None)
    text = "".join(f"{k} = {v}\n" for k, v in pairs)
    (out_dir / "run_config.txt").write_text(text)
    print(f"[config] {' '.join(f'{k}={v}' for k, v in pairs)}")


def _train_config_from_args(args):
    """The run's TrainConfig. Each key of TR.CONFIG_KEYS comes from its
    explicit flag, else the --config file, else the TrainConfig default;
    args.seed and args.profile are set to what the run uses."""
    merged = TR.parse_config_file(args.config) if args.config else {}
    merged.update((k, v) for k in TR.CONFIG_KEYS if (v := getattr(args, k, None)) is not None)
    cfg = TR.TrainConfig(**merged, attention=not getattr(args, "no_attention", False))
    if cfg.seed < 0:            # numpy's generators take no negative seed
        raise ConfigError(f"seed = {cfg.seed}: must be >= 0")
    args.seed, args.profile = cfg.seed, cfg.profile
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args, guard):
    if args.videos < 1:
        raise ConfigError(f"--videos must be >= 1, got {args.videos}")
    out = guard.register(args.out)
    for i in range(args.videos):
        spec = build_scenario(args.scenario, args.seed + i,
                              **({"num_objects": args.objects, "length": args.frames}
                                 if args.scenario == "random"
                                 else {"length": args.frames}))
        seq = gen_sequence(spec)
        vdir = out / f"video_{i:03d}"
        write_dataset(seq, vdir)
        if args.emit_detections:
            write_detections_jsonl(vdir / "detections.jsonl", oracle_detections(seq))
    _log_config(out, args, reads=("seed",))
    print(f"[gen] wrote {args.videos} video(s) under {out}")
    return 0


def cmd_train(args, guard):
    out = guard.register(args.out)
    summary = TR.run_stage(args.stage, args.data, out, args.settings, init_ckpt=args.init)
    _log_config(out, args, reads=("seed", "profile"))
    print(f"[train] stage {args.stage} done: checkpoint at {summary['checkpoint']}, "
          f"loss log at {summary['loss_csv']}")
    return 0


def cmd_detect(args, guard):
    out = guard.register(args.out)
    params, model_cfg = net.load_checkpoint(args.ckpt)
    videos = load_dataset_root(args.data)
    out.mkdir(parents=True, exist_ok=True)
    for video in videos:
        frames = TR.detect_video(params, model_cfg, video, args.conf, args.profile)
        write_detections_jsonl(out / f"{video.name}.jsonl", frames)
    _log_config(out, args, reads=("profile",))
    print(f"[detect] wrote {len(videos)} detection file(s) under {out}")
    return 0


# tracker flag dest -> TrackerParams field
TRACKER_FLAGS = {"T": "match_threshold", "G": "generation_score", "tub_len": "tub_len_max",
                 "max_miss": "max_miss", "similarity": "similarity"}


def _tracker_params(args):
    """TrackerParams from the tracker flags that were given, its own defaults
    for the rest. The resolved values are written back onto args, so
    run_config.txt logs what the run used."""
    params = TK.TrackerParams(**{field: v for flag, field in TRACKER_FLAGS.items()
                                 if (v := getattr(args, flag)) is not None})
    for flag, field in TRACKER_FLAGS.items():
        setattr(args, flag, getattr(params, field))
    return params


def _detection_frames(path):
    """The detections JSONL file at path as [(frame, dets), ...] in frame order."""
    by_frame = read_detections_jsonl(path)
    return [(f, by_frame[f]) for f in sorted(by_frame)]


def cmd_track(args, guard):
    if args.dets and (args.mot or args.embeddings):     # flags --dets input ignores
        raise ConfigError(f"--dets input takes no {'--mot' if args.mot else '--embeddings'}")
    out = guard.register(args.out)
    if args.dets:
        frames = _detection_frames(args.dets)
    elif args.mot:
        frames = TK.ingest_detections(args.mot, args.embeddings)
    else:
        raise ConfigError("track needs --dets JSONL or --mot CSV input")
    tracked = TK.track_frames(frames, _tracker_params(args))
    TK.write_mot_csv(out, tracked)
    _log_config(out.parent, args)
    print(f"[track] wrote {out}")
    return 0


def cmd_eval_map(args, guard):
    video = load_video_dir(args.data)
    by_frame = read_detections_jsonl(args.dets)
    gts = {t: TR.frame_ground_truth(video, t) for t in range(1, len(video.frames) + 1)}
    aps, mean = EV.voc_map(by_frame, gts, iou_thresh=args.iou)
    for c in sorted(aps):
        print(f"[eval-map] class {c}: AP {aps[c]:.4f}")
    print(f"[eval-map] mAP {mean:.4f}")
    if args.out:
        out = guard.register(args.out)
        lines = ["class,ap"] + [f"{c},{aps[c]:.6f}" for c in sorted(aps)]
        lines.append(f"mean,{mean:.6f}")
        out.write_text("\n".join(lines) + "\n")
    return 0


def cmd_eval_mot(args, guard):
    if len(args.res) != len(args.gt):
        raise ConfigError(f"{len(args.res)} result files vs {len(args.gt)} gt files")
    named = []
    for res_path, gt_path in zip(args.res, args.gt):
        rep = EV.mot_metrics(TK.read_mot_csv(res_path), TK.read_mot_csv(gt_path),
                             iou_gate=args.iou)
        named.append((Path(res_path).stem, rep))
    if len(named) > 1:
        named.append(("ALL", EV.aggregate_reports([r for _n, r in named])))
    table = EV.format_mot_table(named)
    print(table, end="")
    if args.out:
        txt = guard.register(str(args.out) + ".txt")
        txt.write_text(table)
        csvp = guard.register(str(args.out) + ".csv")
        csvp.write_text(EV.mot_report_csv(named))
    return 0


def cmd_grad_check(args, guard):
    case = TR.BUILTIN_CASES[args.case](args.seed)
    rows = TR.grad_check(case)
    print(f"[grad-check] case {args.case}: {len(rows)} parameter tensors")
    for r in rows:
        print(f"  {r.name:32s} max_rel_err {r.max_rel_err:.3e}")
    worst = rows[0].max_rel_err if rows else 0.0
    print(f"[grad-check] worst {worst:.3e}")
    if args.out:
        out = guard.register(args.out)
        out.write_text("name,max_rel_err\n" + "".join(
            f"{r.name},{r.max_rel_err:.12e}\n" for r in rows))
    if worst >= GRAD_TOL:
        raise ConfigError(f"gradient check failed: {worst:.3e} >= {GRAD_TOL}")
    return 0


def _sweep_values(args):
    """The --values list: not empty; floats, or for tub_len the ints of
    whole numbers >= 1, the rule --tub-len follows."""
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {args.values!r}") from exc
    if not values:
        raise ConfigError(f"--values lists no value: {args.values!r}")
    if args.param == "tub_len":
        values = [whole_int(v) for v in values]
        if not all((v or 0) >= 1 for v in values):
            raise ConfigError(f"tub_len values must be whole numbers >= 1, got {args.values!r}")
    return values


# the flags each sweep kind never reads; a run that names one is refused
SWEEP_IGNORES = {"theta": ("dets", "gt_csv", *TRACKER_FLAGS),
                 "T": ("data", "val_data", "init", "epochs", "T"),
                 "tub_len": ("data", "val_data", "init", "epochs", "tub_len")}


def cmd_sweep(args, guard):
    for dest in SWEEP_IGNORES[args.param]:
        if getattr(args, dest) is not None:
            raise ConfigError(f"sweep --param {args.param} takes no --{dest.replace('_', '-')}")
    values = _sweep_values(args)
    # every value is checked before the first run trains or tracks
    if args.param == "theta":
        epochs = args.settings.epochs       # None: stage 3's default
        if epochs is not None and epochs < 1:   # no loss row to report
            raise ConfigError(f"sweep --param theta needs --epochs >= 1, got {epochs}")
        if not (args.data and args.init):
            raise ConfigError("sweep --param theta needs --data and --init")
        runs = [replace(args.settings, theta=theta) for theta in values]
        for cfg in runs:
            cfg.resolved(3)
    else:
        if not (args.dets and args.gt_csv):
            raise ConfigError(f"sweep --param {args.param} needs --dets and --gt-csv")
        base = _tracker_params(args)
        runs = [replace(base, **{TRACKER_FLAGS[args.param]: v}).validate() for v in values]
    out = guard.register(args.out)
    rows = []
    if args.param == "theta":
        for i, (theta, cfg) in enumerate(zip(values, runs)):
            run_dir = guard.register(out.parent / f"{out.stem}_theta{i}")
            summary = TR.run_stage(3, args.data, run_dir, cfg, init_ckpt=args.init)
            last = summary["loss_csv"].read_text().strip().splitlines()[-1]
            final_total = float(last.split(",")[-1])
            mean_ap = map_of_checkpoint(summary["checkpoint"],
                                        args.val_data or args.data, args.profile)
            rows.append((theta, final_total, mean_ap))
        header = "theta,final_total_loss,mAP"
        body = [f"{t},{ft:.6f},{m:.6f}" for t, ft, m in rows]
    else:
        frames = _detection_frames(args.dets)
        gt_rows = TK.read_mot_csv(args.gt_csv)
        for v, params in zip(values, runs):
            tracked = TK.track_frames(frames, params)
            res_path = guard.register(out.parent / f"{out.stem}_{args.param}{v}.csv")
            TK.write_mot_csv(res_path, tracked)
            rep = EV.mot_metrics(TK.read_mot_csv(res_path), gt_rows)
            rows.append((v, rep.mota, rep.ids))
        header = f"{args.param},MOTA,IDS"
        body = [f"{v},{mota:.6f},{ids}" for v, mota, ids in rows]
    out.write_text(header + "\n" + "\n".join(body) + "\n")
    _log_config(out.parent, args, reads=("seed", "profile") if args.param == "theta" else ())
    print(f"[sweep] wrote {out}")
    return 0


def map_of_checkpoint(ckpt, data, profile):
    """Held-out mAP of a checkpoint over every video under data, detections
    kept from confidence MAP_CONF, with the frames of all videos pooled
    into one evaluation."""
    params, model_cfg = net.load_checkpoint(ckpt)
    total_dets = {}
    total_gts = {}
    offset = 0
    for video in load_dataset_root(data):
        frames = TR.detect_video(params, model_cfg, video, MAP_CONF, profile,
                                 attach_av=False)
        for t, dets in frames:
            total_dets[offset + t] = dets
            total_gts[offset + t] = TR.frame_ground_truth(video, t)
        offset += len(video.frames)
    _aps, mean = EV.voc_map(total_dets, total_gts)
    return mean


def cmd_dump_attention(args, guard):
    params, model_cfg = net.load_checkpoint(args.ckpt)
    if not model_cfg.temporal:
        raise ConfigError(f"{args.ckpt}: a static (stage-1) checkpoint has no attention "
                          f"maps; dump-attention needs a temporal one")
    if not model_cfg.attention_enabled:
        raise ConfigError(f"{args.ckpt}: a --no-attention checkpoint has no attention "
                          f"maps; dump-attention needs one trained with attention")
    out = guard.register(args.out)
    video = load_video_dir(args.data)
    out.mkdir(parents=True, exist_ok=True)
    for t, (_head, maps) in enumerate(net.frame_outputs(video.frames, params, model_cfg),
                                      start=1):
        for lvl, m in enumerate(maps):
            T.save_tnsr(out / f"att_{t:06d}_l{lvl}.tnsr", m.data)
    _log_config(out, args)
    print(f"[dump-attention] wrote {len(video.frames)} frames x {len(maps)} levels to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(prog="seqdet",
                                description="Temporal detection and tubelet "
                                            "tracking on synthetic sequences")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--profile", choices=tuple(PROFILES), default=None, help="default vid")
    sub = p.add_subparsers(dest="command", required=True)

    tracker_flags = argparse.ArgumentParser(add_help=False)
    # unset flags take TrackerParams' defaults (see _tracker_params)
    tracker_flags.add_argument("--T", type=float)
    tracker_flags.add_argument("--G", type=float)
    tracker_flags.add_argument("--tub-len", dest="tub_len", type=int)
    tracker_flags.add_argument("--max-miss", dest="max_miss", type=int)
    tracker_flags.add_argument("--similarity", choices=TK.SIMILARITIES)

    g = sub.add_parser("gen", help="generate synthetic video datasets")
    g.add_argument("--scenario", default="random", choices=tuple(SCENARIOS))
    g.add_argument("--videos", type=int, default=1)
    g.add_argument("--frames", type=int, default=16)
    g.add_argument("--objects", type=int, default=2)
    g.add_argument("--out", required=True)
    g.add_argument("--emit-detections", action="store_true",
                   help="also write oracle detections with appearance vectors")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="run one training stage")
    t.add_argument("--stage", type=int, required=True, choices=tuple(TR.STAGE_LR))
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--init", default=None, help="previous stage checkpoint")
    for key, typ in TR.CONFIG_KEYS.items():
        if key not in ("seed", "profile"):      # global flags
            t.add_argument("--" + key.replace("_", "-"), dest=key, type=typ, default=None)
    t.add_argument("--no-attention", action="store_true")
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("detect", help="run a checkpoint over videos")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--conf", type=float, default=0.3)
    d.set_defaults(func=cmd_detect)

    k = sub.add_parser("track", parents=[tracker_flags],
                       help="assign identities to detections")
    k.add_argument("--dets", default=None, help="detections JSONL")
    k.add_argument("--mot", default=None, help="MOT CSV input (ingestion path)")
    k.add_argument("--embeddings", default=None, help="TNSR sidecar, one row per line")
    k.add_argument("--out", required=True)
    k.set_defaults(func=cmd_track)

    em = sub.add_parser("eval-map", help="detection AP against dataset gt")
    em.add_argument("--dets", required=True)
    em.add_argument("--data", required=True)
    em.add_argument("--iou", type=float, default=0.5)
    em.add_argument("--out", default=None)
    em.set_defaults(func=cmd_eval_map)

    eo = sub.add_parser("eval-mot", help="CLEAR-MOT metrics for result files")
    eo.add_argument("--res", nargs="+", required=True)
    eo.add_argument("--gt", nargs="+", required=True)
    eo.add_argument("--iou", type=float, default=0.5)
    eo.add_argument("--out", default=None, help="prefix for .txt/.csv reports")
    eo.set_defaults(func=cmd_eval_mot)

    gc = sub.add_parser("grad-check", help="analytic vs finite-difference gradients")
    gc.add_argument("--case", default="aclstm", choices=sorted(TR.BUILTIN_CASES))
    gc.add_argument("--out", default=None)
    gc.set_defaults(func=cmd_grad_check)

    sw = sub.add_parser("sweep", parents=[tracker_flags], help="metric vs parameter CSV")
    sw.add_argument("--param", required=True, choices=("theta", "T", "tub_len"))
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--out", required=True)
    sw.add_argument("--data", default=None)
    sw.add_argument("--val-data", dest="val_data", default=None)
    sw.add_argument("--init", default=None)
    sw.add_argument("--epochs", type=int, default=None)
    sw.add_argument("--dets", default=None)
    sw.add_argument("--gt-csv", dest="gt_csv", default=None)
    sw.set_defaults(func=cmd_sweep)

    da = sub.add_parser("dump-attention", help="write per-frame attention maps")
    da.add_argument("--ckpt", required=True)
    da.add_argument("--data", required=True)
    da.add_argument("--out", required=True)
    da.set_defaults(func=cmd_dump_attention)
    # flags are spelt in full: a flag that is gone is refused (exit 2), not
    # read as the prefix of another, as grad-check --h would be --help
    for parser in (p, *sub.choices.values()):
        parser.allow_abbrev = False
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    guard = OutputGuard()
    try:
        args.settings = _train_config_from_args(args)
        return args.func(args, guard)
    except (ValueError, OSError, FloatingPointError) as exc:
        # bad input or a diverged run (ParseError, ConfigError and ShapeError
        # are ValueErrors): one line, partial outputs removed
        guard.cleanup()
        print(f"seqdet: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: named as one, with its traceback
        guard.cleanup()
        print(f"seqdet: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
