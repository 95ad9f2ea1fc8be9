"""Command-line surface.

Commands: gen, train, detect, track, eval-map, eval-mot, grad-check,
sweep, dump-attention. Every run logs its resolved options; outputs
created by a failing run are removed; errors exit nonzero with a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation as EV
from . import net
from . import tensor as T
from . import tracker as TK
from . import train as TR
from .errors import ConfigError
from .postproc import read_detections_jsonl, write_detections_jsonl
from .synth import (build_scenario, gen_sequence, load_dataset_root,
                    load_video_dir, oracle_detections, write_dataset)

OUTDIR_ENV = "SEQDET_OUTDIR"


def _resolve_out(path):
    base = os.environ.get(OUTDIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


class OutputGuard:
    """Tracks paths created by one command so a failure can remove them."""

    def __init__(self):
        self.paths = []

    def register(self, path):
        path = Path(path)
        if not path.exists():
            self.paths.append(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def cleanup(self):
        for path in reversed(self.paths):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.exists():
                path.unlink()


def _log_config(out_dir, args):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = sorted((k, v) for k, v in vars(args).items()
                   if k != "func" and v is not None)
    text = "".join(f"{k} = {v}\n" for k, v in pairs)
    (out_dir / "run_config.txt").write_text(text)
    print(f"[config] {' '.join(f'{k}={v}' for k, v in pairs)}")


def _train_config_from_args(args):
    file_cfg = TR.parse_config_file(args.config) if args.config else {}
    merged = {"seed": args.seed, **file_cfg}
    for key in ("seq_len", "lr", "epochs", "theta", "k", "dropout", "clip",
                "asso_form", "profile"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    cfg = TR.TrainConfig(**{k: v for k, v in merged.items()
                            if k in TR.TrainConfig.__dataclass_fields__})
    if getattr(args, "no_attention", False):
        cfg = replace(cfg, attention=False)
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args, guard):
    out = guard.register(_resolve_out(args.out))
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
    _log_config(out, args)
    print(f"[gen] wrote {args.videos} video(s) under {out}")
    return 0


def cmd_train(args, guard):
    out = guard.register(_resolve_out(args.out))
    cfg = _train_config_from_args(args)
    summary = TR.run_stage(args.stage, args.data, out, cfg, init_ckpt=args.init)
    _log_config(out, args)
    print(f"[train] stage {args.stage} done: checkpoint at {summary['checkpoint']}, "
          f"loss log at {summary['loss_csv']}")
    return 0


def _load_model(ckpt):
    params, meta = net.load_checkpoint(ckpt)
    return params, net.ModelConfig.from_meta(meta)


def cmd_detect(args, guard):
    out = guard.register(_resolve_out(args.out))
    params, model_cfg = _load_model(args.ckpt)
    videos = load_dataset_root(args.data)
    out.mkdir(parents=True, exist_ok=True)
    for video in videos:
        frames = TR.detect_video(params, model_cfg, video, args.conf, args.profile)
        write_detections_jsonl(out / f"{video.name}.jsonl", frames)
    _log_config(out, args)
    print(f"[detect] wrote {len(videos)} detection file(s) under {out}")
    return 0


def _tracker_params(args):
    return TK.TrackerParams(match_threshold=args.T, generation_score=args.G,
                            tub_len_max=args.tub_len, max_miss=args.max_miss,
                            similarity=args.similarity).validate()


def cmd_track(args, guard):
    out = guard.register(_resolve_out(args.out))
    if args.dets:
        by_frame = read_detections_jsonl(args.dets)
        frames = [(f, by_frame[f]) for f in sorted(by_frame)]
    elif args.mot:
        frames = TK.ingest_detections(args.mot, args.embeddings, canvas=args.canvas)
    else:
        raise ConfigError("track needs --dets JSONL or --mot CSV input")
    tracked = TK.track_frames(frames, _tracker_params(args))
    TK.write_mot_csv(out, tracked, canvas=args.canvas)
    _log_config(out.parent, args)
    print(f"[track] wrote {out}")
    return 0


def cmd_eval_map(args, guard):
    video = load_video_dir(args.data)
    by_frame = read_detections_jsonl(args.dets)
    gts = {t: (video.boxes_norm[t - 1], video.classes[t - 1])
           for t in range(1, len(video.frames) + 1)}
    aps, mean = EV.voc_map(by_frame, gts, iou_thresh=args.iou)
    for c in sorted(aps):
        print(f"[eval-map] class {c}: AP {aps[c]:.4f}")
    print(f"[eval-map] mAP {mean:.4f}")
    if args.out:
        out = guard.register(_resolve_out(args.out))
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
        txt = guard.register(_resolve_out(str(args.out) + ".txt"))
        txt.write_text(table)
        csvp = guard.register(_resolve_out(str(args.out) + ".csv"))
        csvp.write_text(EV.mot_report_csv(named))
    return 0


def cmd_grad_check(args, guard):
    case = TR.BUILTIN_CASES[args.case](args.seed)
    rows = TR.grad_check(case, h=args.h)
    print(f"[grad-check] case {args.case}: {len(rows)} parameter tensors")
    for r in rows:
        print(f"  {r.name:32s} max_rel_err {r.max_rel_err:.3e}")
    worst = rows[0].max_rel_err if rows else 0.0
    print(f"[grad-check] worst {worst:.3e}")
    if args.out:
        out = guard.register(_resolve_out(args.out))
        out.write_text("name,max_rel_err\n" + "".join(
            f"{r.name},{r.max_rel_err:.12e}\n" for r in rows))
    if worst >= args.tol:
        raise ConfigError(f"gradient check failed: {worst:.3e} >= {args.tol}")
    return 0


def _sweep_values(args):
    try:
        return [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {args.values!r}") from exc


def cmd_sweep(args, guard):
    out = guard.register(_resolve_out(args.out))
    values = _sweep_values(args)
    rows = []
    if args.param == "theta":
        if not (args.data and args.init):
            raise ConfigError("sweep --param theta needs --data and --init")
        for i, theta in enumerate(values):
            cfg = replace(_train_config_from_args(args), theta=theta)
            run_dir = guard.register(out.parent / f"{out.stem}_theta{i}")
            summary = TR.run_stage(3, args.data, run_dir, cfg, init_ckpt=args.init)
            last = summary["loss_csv"].read_text().strip().splitlines()[-1]
            final_total = float(last.split(",")[-1])
            mean_ap = map_of_checkpoint(summary["checkpoint"],
                                        args.val_data or args.data, args.eval_conf,
                                        args.profile)
            rows.append((theta, final_total, mean_ap))
        header = "theta,final_total_loss,mAP"
        body = [f"{t},{ft:.6f},{m:.6f}" for t, ft, m in rows]
    else:
        if not (args.dets and args.gt_csv):
            raise ConfigError(f"sweep --param {args.param} needs --dets and --gt-csv")
        by_frame = read_detections_jsonl(args.dets)
        frames = [(f, by_frame[f]) for f in sorted(by_frame)]
        gt_rows = TK.read_mot_csv(args.gt_csv)
        for v in values:
            params = _tracker_params(args)
            if args.param == "T":
                params = replace(params, match_threshold=v)
            else:
                params = replace(params, tub_len_max=max(int(v), 1))
            tracked = TK.track_frames(frames, params)
            res_path = guard.register(out.parent / f"{out.stem}_{args.param}{v}.csv")
            TK.write_mot_csv(res_path, tracked, canvas=args.canvas)
            rep = EV.mot_metrics(TK.read_mot_csv(res_path), gt_rows)
            rows.append((v, rep.mota, rep.ids))
        header = f"{args.param},MOTA,IDS"
        body = [f"{v},{mota:.6f},{ids}" for v, mota, ids in rows]
    out.write_text(header + "\n" + "\n".join(body) + "\n")
    _log_config(out.parent, args)
    print(f"[sweep] wrote {out}")
    return 0


def map_of_checkpoint(ckpt, data, conf, profile):
    """Held-out mAP of a checkpoint over every video under data, with the
    frames of all videos pooled into one evaluation."""
    params, model_cfg = _load_model(ckpt)
    total_dets = {}
    total_gts = {}
    offset = 0
    for video in load_dataset_root(data):
        frames = TR.detect_video(params, model_cfg, video, conf, profile,
                                 attach_av=False)
        for t, dets in frames:
            total_dets[offset + t] = dets
            total_gts[offset + t] = (video.boxes_norm[t - 1], video.classes[t - 1])
        offset += len(video.frames)
    _aps, mean = EV.voc_map(total_dets, total_gts,
                            num_classes=model_cfg.num_classes)
    return mean


def cmd_dump_attention(args, guard):
    out = guard.register(_resolve_out(args.out))
    params, model_cfg = _load_model(args.ckpt)
    video = load_video_dir(args.data)
    out.mkdir(parents=True, exist_ok=True)
    maps = TR.dump_attention_maps(params, model_cfg, video)
    for t, per_level in enumerate(maps, start=1):
        for lvl, m in enumerate(per_level):
            T.save_tnsr(out / f"att_{t:06d}_l{lvl}.tnsr", m)
    _log_config(out, args)
    print(f"[dump-attention] wrote {len(maps)} frames x {len(maps[0])} levels to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(prog="seqdet",
                                description="Temporal detection and tubelet "
                                            "tracking on synthetic sequences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--profile", choices=("vid", "mot"), default="vid")
    sub = p.add_subparsers(dest="command", required=True)

    tracker_flags = argparse.ArgumentParser(add_help=False)
    tracker_flags.add_argument("--T", type=float, default=1.0)
    tracker_flags.add_argument("--G", type=float, default=0.3)
    tracker_flags.add_argument("--tub-len", dest="tub_len", type=int, default=10)
    tracker_flags.add_argument("--max-miss", dest="max_miss", type=int, default=10)
    tracker_flags.add_argument("--similarity", default="attention_iou",
                               choices=("attention_iou", "iou_only"))
    tracker_flags.add_argument("--canvas", type=int, default=96)

    g = sub.add_parser("gen", help="generate synthetic video datasets")
    g.add_argument("--scenario", default="random",
                   choices=("random", "crossing-pair", "scale-change"))
    g.add_argument("--videos", type=int, default=1)
    g.add_argument("--frames", type=int, default=16)
    g.add_argument("--objects", type=int, default=2)
    g.add_argument("--out", required=True)
    g.add_argument("--emit-detections", action="store_true",
                   help="also write oracle detections with appearance vectors")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="run one training stage")
    t.add_argument("--stage", type=int, required=True, choices=(1, 2, 3))
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--init", default=None, help="previous stage checkpoint")
    for flag, typ in (("--epochs", int), ("--lr", float), ("--seq-len", int),
                      ("--theta", float), ("--k", int), ("--dropout", float),
                      ("--clip", float)):
        t.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ, default=None)
    t.add_argument("--asso-form", dest="asso_form", default=None,
                   choices=("running", "global"))
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
    gc.add_argument("--h", type=float, default=1e-5)
    gc.add_argument("--tol", type=float, default=1e-4)
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
    sw.add_argument("--eval-conf", dest="eval_conf", type=float, default=0.02)
    sw.add_argument("--dets", default=None)
    sw.add_argument("--gt-csv", dest="gt_csv", default=None)
    sw.set_defaults(func=cmd_sweep)

    da = sub.add_parser("dump-attention", help="write per-frame attention maps")
    da.add_argument("--ckpt", required=True)
    da.add_argument("--data", required=True)
    da.add_argument("--out", required=True)
    da.set_defaults(func=cmd_dump_attention)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    guard = OutputGuard()
    try:
        return args.func(args, guard)
    except Exception as exc:  # one-line diagnostic, partial outputs removed
        guard.cleanup()
        print(f"seqdet: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
