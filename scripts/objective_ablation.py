#!/usr/bin/env python3
"""Objective ablation campaign over seeded synthetic instances.

Maps a family preset and its sizes to `engine.campaign`, instances seeded
0, 1, ..., and prints the family with `engine.summarize`'s summary: the
campaign `subquant analyze --synthetic SPEC --sweep N` runs and summarizes.

Over the first 10 seeds (`--instances 10`), at the defaults
(weight-anisotropic, d = 32, m = 32, rank 4, bits 4/8), joint beats
activation-only on all 10 but weight-only on only 2 (`win_rate_vs_weight`
0.2; 0.18 over the default 50 seeds). With `--dim 64 --out-features 64
--rank 8`, joint beats weight-only on 9 of 10 (`win_rate_vs_weight` 0.9;
0.86 over 50 seeds).
"""

import argparse
import json
import sys

from subquant import formats
from subquant.engine import campaign, summarize
from subquant.synth import aligned_spec, weight_anisotropic_spec

FAMILIES = {"weight-anisotropic": weight_anisotropic_spec, "aligned": aligned_spec}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=sorted(FAMILIES),
                    default="weight-anisotropic")
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--tokens", type=int, default=256)
    ap.add_argument("--out-features", type=int, default=32)
    ap.add_argument("--rank", type=int, default=4)
    ap.add_argument("--bits-low", type=int, default=4)
    ap.add_argument("--bits-high", type=int, default=8)
    ap.add_argument("--report", default=None,
                    help="optional JSONL path for all per-instance reports")
    args = ap.parse_args()

    spec = FAMILIES[args.family](args.dim, args.tokens, args.out_features, seed=0)
    runs = campaign(spec, args.instances, rank=args.rank,
                    bits_low=args.bits_low, bits_high=args.bits_high)
    if args.report:
        formats.write_report(args.report, [rep for run in runs for rep in run])
    print(json.dumps({"family": args.family, **summarize(runs)}, indent=2,
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
