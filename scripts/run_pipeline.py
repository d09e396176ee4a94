#!/usr/bin/env python3
"""End-to-end demo of the CLI pipeline on a synthetic layer.

Generates a seeded instance, writes the tensors to disk (X and W as f32, the
dtype of real calibration dumps and checkpoints, so calibrate folds a mapped
f32 shard and weight, and simulate maps the shard), then drives calibrate ->
solve -> simulate through the `subquant` CLI and prints the resulting error
report.
"""

import argparse
import json
import os
import sys
import tempfile

from subquant import formats
from subquant.cli import main as cli
from subquant.synth import generate_instance, weight_anisotropic_spec


def run(workdir, d, n, m, rank, bits_low, bits_high, seed):
    x, w = generate_instance(weight_anisotropic_spec(d, n, m, seed=seed))
    x_path = os.path.join(workdir, "x.cqt")
    w_path = os.path.join(workdir, "w.cqt")
    formats.write_tensor(x_path, "x", x, dtype="f32")
    formats.write_tensor(w_path, "w", w, dtype="f32")

    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as f:
        json.dump({"groups": [{"name": "demo", "kind": "attn-input", "dim": d,
                               "activations": [x_path], "weights": [w_path]}],
                   "rank_ratio": rank / d, "seed": seed, "bits_low": bits_low,
                   "bits_high": bits_high},
                  f, indent=2)

    stats = os.path.join(workdir, "stats.cqb")
    plan = os.path.join(workdir, "plan.cqb")
    report = os.path.join(workdir, "report.jsonl")
    for argv in (
        ["calibrate", "--config", cfg_path, "--out", stats],
        ["solve", "--stats", stats, "--config", cfg_path, "--out", plan],
        ["simulate", "--plan", plan, "--x", x_path, "--w", w_path,
         "--out", report],
    ):
        code = cli(argv)
        if code != 0:
            print(f"step {argv[0]} failed with exit code {code}", file=sys.stderr)
            return code

    row = formats.read_report(report)[0]
    print(json.dumps(row.to_json(), indent=2, sort_keys=True))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default=None,
                    help="directory for artifacts (default: temp dir)")
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--tokens", type=int, default=256)
    ap.add_argument("--out-features", type=int, default=32)
    ap.add_argument("--rank", type=int, default=4,
                    help="the plan's rank, written to the config as rank_ratio "
                         "= rank / dim")
    ap.add_argument("--bits-low", type=int, default=4)
    ap.add_argument("--bits-high", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        return run(args.workdir, args.dim, args.tokens, args.out_features,
                   args.rank, args.bits_low, args.bits_high, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        return run(tmp, args.dim, args.tokens, args.out_features,
                   args.rank, args.bits_low, args.bits_high, args.seed)


if __name__ == "__main__":
    sys.exit(main())
