"""Record the values the benchmark checks outputs against, per seed:
every stage's L_total column and each track video's MOTA, IDS and mAP.

    python3 perfbench/record_reference.py --first 0 --count 64

Record only on a commit whose behaviour is the accepted reference; the
entries of other seeds in reference.json are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--count", type=int, default=64)
    args = p.parse_args(argv)
    error = run.bootstrap()
    if error:
        print(f"record_reference: {error}", file=sys.stderr)
        return 2
    import workloads as W

    reference = W.load_reference()
    for seed in range(args.first, args.first + args.count):
        reference[str(seed)] = W.record_seed(run.WORK / "record", seed)
        print(f"[record] seed {seed}", flush=True)
    seeds = sorted(reference, key=int)
    W.REFERENCE_PATH.write_text(
        "{\n" + ",\n".join(f"{json.dumps(s)}: {json.dumps(reference[s], sort_keys=True)}"
                           for s in seeds) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
