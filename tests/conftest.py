import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


# settings for the staged-training acceptance run; chosen so the whole
# pipeline stays well inside a 30-minute CPU budget. The scenes flicker
# and blink (objects vanish on random frames while staying annotated), so
# temporal memory has something real to contribute over the static model.
# Learning rates scale the stage defaults by 10x: the toy run takes a few
# hundred optimizer steps where the full-scale schedule takes thousands.
TRAINED_RUN = {
    "seed": 11,
    "train_videos": 6,
    "val_videos": 4,
    "train_len": 24,
    "val_len": 16,
    "flicker": 0.3,
    "blink": 0.25,
    "s1_epochs": 20,
    "s2_epochs": 60,
    "s3_epochs": 14,
    "s2_lr": 1e-3,
    "s3_lr": 1e-4,
}


def build_acceptance_dataset(root, cfg=TRAINED_RUN):
    from seqdet.synth import gen_sequence, random_scene, write_dataset

    for i in range(cfg["train_videos"]):
        seq = gen_sequence(random_scene(100 + i, num_objects=2,
                                        length=cfg["train_len"],
                                        flicker=cfg["flicker"],
                                        blink=cfg["blink"]))
        write_dataset(seq, root / "train" / f"video_{i:03d}")
    for i in range(cfg["val_videos"]):
        seq = gen_sequence(random_scene(900 + i, num_objects=2,
                                        length=cfg["val_len"],
                                        flicker=cfg["flicker"],
                                        blink=cfg["blink"]))
        write_dataset(seq, root / "val" / f"video_{i:03d}")
    return root


@pytest.fixture(scope="session")
def trained_pipeline(tmp_path_factory):
    """Full staged training used by the training-order acceptance checks.

    Runs the static stage, the recurrent stage with and without attention,
    and the fine-tuning stage with the association term, then evaluates
    held-out mAP for each checkpoint.
    """
    from seqdet import train as TR
    from seqdet.cli import map_of_checkpoint

    cfg = TRAINED_RUN
    root = build_acceptance_dataset(tmp_path_factory.mktemp("acc_data"), cfg)
    out = tmp_path_factory.mktemp("acc_runs")
    t0 = time.time()
    s1 = TR.run_stage(1, root / "train", out / "s1",
                      TR.TrainConfig(seed=cfg["seed"], epochs=cfg["s1_epochs"]))
    s2 = TR.run_stage(2, root / "train", out / "s2",
                      TR.TrainConfig(seed=cfg["seed"], epochs=cfg["s2_epochs"],
                                     lr=cfg["s2_lr"]),
                      init_ckpt=s1["checkpoint"])
    cv = TR.run_stage(2, root / "train", out / "convlstm",
                      TR.TrainConfig(seed=cfg["seed"], epochs=cfg["s2_epochs"],
                                     lr=cfg["s2_lr"], attention=False),
                      init_ckpt=s1["checkpoint"])
    s3 = TR.run_stage(3, root / "train", out / "s3",
                      TR.TrainConfig(seed=cfg["seed"], epochs=cfg["s3_epochs"],
                                     lr=cfg["s3_lr"]),
                      init_ckpt=s2["checkpoint"])
    elapsed = time.time() - t0
    maps = {name: map_of_checkpoint(run["checkpoint"], root / "val", "vid")
            for name, run in (("static", s1), ("stage2", s2),
                              ("convlstm", cv), ("stage3", s3))}
    return {"root": root, "runs": {"static": s1, "stage2": s2,
                                   "convlstm": cv, "stage3": s3},
            "maps": maps, "train_seconds": elapsed}
