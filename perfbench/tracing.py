"""Per-layer timing taken from outside the program.

A `Tracer` replaces selected seqdet functions with timing wrappers at
every place they are looked up: the defining module and every seqdet
module that bound the name with `from .x import name`. Calls made through
`module.func` and lazy `from .x import func` inside a function body read
the defining module's attribute at call time, so they are covered too.
`uninstall` puts every original back.

Self time is a call's duration minus the time of the wrapped calls it
made. Backward closures run inside `tensor.backward` and are not module
functions, so backward time cannot be split by layer from out here.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("tensor", "net", "loss", "train", "postproc", "tracker", "evaluation",
           "synth", "cli")

# The layer boundaries. Tensor ops are left unwrapped on purpose: their
# forward time stays in the net/loss function that builds the graph.
TARGETS = {
    "tensor": ("backward", "load_tnsr", "save_tnsr"),
    "net": ("backbone_forward", "unify_low_channels", "temporal_pyramid_forward",
            "head_forward", "load_checkpoint", "save_checkpoint", "init_params"),
    "loss": ("match_priors", "hard_negative_indices", "loc_conf_loss",
             "attention_loss", "association_loss_node", "frame_loss_node"),
    "train": ("run_stage", "detect_video", "detections_for_frame",
              "score_list_nodes", "sgd_step", "rmsprop_step", "clip_gradients"),
    "postproc": ("make_priors", "decode", "softmax_rows", "select_class_candidates",
                 "nms", "iou", "iou_matrix", "write_detections_jsonl",
                 "read_detections_jsonl"),
    "tracker": ("track_frames", "update_tracks", "tubelet_similarity",
                "attention_vector_for_box", "write_mot_csv", "read_mot_csv"),
    "evaluation": ("voc_map", "mot_metrics"),
    "synth": ("gen_sequence", "write_dataset", "oracle_detections",
              "load_video_dir", "load_dataset_root"),
    "cli": ("main",),
}

# Work counters, filled by hooks on the wrapped calls.
COUNTERS = ("tensor.graph_nodes_total", "postproc.nms.candidates",
            "postproc.nms.kept", "loss.matched_priors", "loss.mined_negatives",
            "tracker.births", "tracker.inherits")


def _modules():
    return {name: importlib.import_module(f"seqdet.{name}") for name in MODULES}


def graph_size(root):
    """Number of distinct nodes reachable from root through parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.stats = {}           # "module.func" -> [calls, inclusive_s, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._child = []          # per open call: wrapped-child and hook time
        self._patches = []        # (module, attribute, original)

    # -- counters -----------------------------------------------------------

    def _before(self, name, args):
        if name == "tensor.backward":
            self.counts["tensor.graph_nodes_total"] += graph_size(args[0])
        elif name == "tracker.update_tracks":
            return args[1].next_id
        return None

    def _after(self, name, args, result, before):
        if name == "postproc.nms":
            self.counts["postproc.nms.candidates"] += len(args[0])
            self.counts["postproc.nms.kept"] += len(result)
        elif name == "loss.match_priors":
            self.counts["loss.matched_priors"] += result.num_matched
        elif name == "loss.hard_negative_indices":
            self.counts["loss.mined_negatives"] += len(result)
        elif name == "tracker.update_tracks":
            dets, state = result
            births = state.next_id - before
            self.counts["tracker.births"] += births
            self.counts["tracker.inherits"] += sum(d.id >= 0 for d in dets) - births

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = time.perf_counter()
            before = self._before(name, args)
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                inner = child.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - inner
            self._after(name, args, result, before)
            if child:
                # the parent sees this call, hooks included, as child time
                child[-1] += time.perf_counter() - h0
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        wrapped = {}
        for mod_name, names in TARGETS.items():
            for fn_name in names:
                orig = getattr(mods[mod_name], fn_name)
                wrapped[id(orig)] = (orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def work_counts(self):
        """Every count that must repeat exactly between identical rounds."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out.update(self.counts)
        return out

    def table(self):
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'function':40s} {'calls':>8s} {'self_s':>10s} {'incl_s':>10s}"]
        lines += [f"{name:40s} {s[0]:8d} {s[2]:10.4f} {s[1]:10.4f}"
                  for name, s in rows if s[0]]
        return "\n".join(lines)
