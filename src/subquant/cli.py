"""Command-line front end: calibrate -> solve -> simulate -> analyze -> compare.

Exit codes: 0 success, 1 numerical failure (no convergence / no signal /
quantizer range overflow), 2 usage, I/O, or schema errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import formats
from .calib import (
    CalibStats,
    GROUP_KINDS,
    ProjectionGroup,
    accumulate_activations,
    attach_weights,
)
from .engine import analyze_layer, build_plan, campaign, execute_plan
from .errors import (
    FormatError,
    NoConvergenceError,
    NoSignalError,
    ScaleRangeError,
    SubquantError,
)
from .solver import OBJECTIVES, ROTATIONS, shared_rotations
from .synth import SyntheticInstanceSpec


@dataclasses.dataclass
class RunConfig:
    groups: list = dataclasses.field(default_factory=list)
    rank_ratio: float = 0.125
    bits_low: int = 4
    bits_high: int = 8
    objective: str = "joint"
    seed: int = 0
    rotation: str = "random"

    def __post_init__(self):
        if not 0.0 < self.rank_ratio < 1.0:
            raise ValueError(f"rank_ratio must be in (0, 1), got {self.rank_ratio}")
        for name, bits in (("bits_low", self.bits_low), ("bits_high", self.bits_high)):
            if not 2 <= bits <= 16:
                raise ValueError(f"{name} must be in [2, 16], got {bits}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.rotation not in ROTATIONS:
            raise ValueError(f"rotation must be one of {ROTATIONS}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    obj = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(obj) - known
    if unknown:
        raise FormatError(f"{path}: unknown config fields {sorted(unknown)}")
    cfg = RunConfig(**obj)
    # CLI flags override config-file values
    for flag in ("rank_ratio", "bits_low", "bits_high", "objective", "seed", "rotation"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, flag, value)
    cfg.__post_init__()
    return cfg


def default_rank(d: int, rank_ratio: float) -> int:
    return max(1, int(d * rank_ratio))


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config, args)
    if not cfg.groups:
        raise FormatError(f"{args.config}: config declares no groups")
    stats_list = []
    for i, g in enumerate(cfg.groups):
        where = f"{args.config}: groups[{i}]"
        for key in ("name", "kind", "dim"):
            if key not in g:
                raise FormatError(f"{where} missing field {key!r}")
        if g["kind"] not in GROUP_KINDS:
            raise FormatError(f"{where}.kind: unknown kind {g['kind']!r}")
        group = ProjectionGroup(kind=g["kind"], dim=g["dim"], name=g["name"])
        stats = CalibStats.empty(group)
        for path in g.get("activations", []):
            try:
                batch = formats.map_tensor(path)
                stats = accumulate_activations(stats, batch)
            except FormatError:
                raise  # its message already names the file
            except (OSError, ValueError) as e:
                raise FormatError(
                    f"{where} (group {g['name']!r}): activation file {path}: {e}") from e
            del batch  # releases the file's mapping
        weights = []
        for path in g.get("weights", []):
            try:
                weights.append(formats.read_tensor(path))
            except OSError as e:
                raise FormatError(
                    f"{where} (group {g['name']!r}): weight file {path}: {e}") from e
        if weights:
            stats = attach_weights(stats, weights)
        stats_list.append(stats)
    formats.write_stats(args.out, stats_list)
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args)
    stats_list = formats.read_stats(args.stats)
    plans = []
    with shared_rotations():  # every group gets the config's one seed
        for stats in stats_list:
            rank = args.rank if args.rank is not None else default_rank(
                stats.group.dim, cfg.rank_ratio)
            plans.append(build_plan(
                stats, rank, cfg.bits_low, cfg.bits_high, objective=cfg.objective,
                seed=cfg.seed, rotation=cfg.rotation))
    formats.write_plan(args.out, plans)
    return 0


def _select_plan(plans, group_name):
    if group_name is None:
        return plans[0]
    for plan in plans:
        if plan.group.name == group_name:
            return plan
    raise FormatError(f"no plan for group {group_name!r}")


def cmd_simulate(args) -> int:
    plans = formats.read_plan(args.plan)
    plan = _select_plan(plans, args.group)
    if args.bypass:
        plan = dataclasses.replace(plan, spec_low=None, spec_high=None,
                                   spec_low_w=None, spec_high_w=None)
    x = formats.read_tensor(args.x)
    w = formats.read_tensor(args.w)
    _, report = execute_plan(x, w, plan)
    formats.write_report(args.out, [report], fmt=args.format)
    return 0


def cmd_analyze(args) -> int:
    cfg = load_config(args.config, args)
    if args.synthetic is not None:
        with open(args.synthetic, "r", encoding="utf-8") as f:
            spec = SyntheticInstanceSpec.from_json(json.load(f))
        d = spec.d
    elif args.x is not None and args.w is not None and not args.sweep:
        x = formats.read_tensor(args.x)
        w = formats.read_tensor(args.w)
        d = x.shape[1]
    else:
        raise FormatError("analyze needs either --synthetic or both --x and --w "
                          "(--sweep needs --synthetic)")
    rank = args.rank if args.rank is not None else default_rank(d, cfg.rank_ratio)

    if args.sweep:
        runs = campaign(spec, args.sweep, rank, cfg.bits_low, cfg.bits_high,
                        seed0=cfg.seed, rotation=cfg.rotation)
        summary = {"instances": args.sweep,
                   "win_rate": float(np.mean([j.exact_error <= a.exact_error
                                              for j, a, _ in runs])),
                   "mean_relative_reduction": float(np.mean(
                       [j.relative_reduction for j, _, _ in runs]))}
        print(json.dumps(summary, sort_keys=True))
    elif args.synthetic is not None:
        runs = campaign(spec, 1, rank, cfg.bits_low, cfg.bits_high,
                        seed0=spec.seed, rotation=cfg.rotation)
    else:
        runs = [analyze_layer(x, w, rank, cfg.bits_low, cfg.bits_high,
                              seed=cfg.seed, rotation=cfg.rotation)]
    formats.write_report(args.out, [rep for run in runs for rep in run],
                         fmt=args.format)
    return 0


def cmd_compare(args) -> int:
    a = formats.read_report(args.report_a)
    b = formats.read_report(args.report_b)
    diff = {"rows_a": len(a), "rows_b": len(b), "deltas": []}
    for i, (ra, rb) in enumerate(zip(a, b)):
        row = {"row": i}
        for col in formats.REPORT_COLUMNS:
            va, vb = ra.get(col), rb.get(col)
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                if va != vb:
                    row[col] = vb - va
            elif va != vb:
                row[col] = [va, vb]
        if len(row) > 1:
            diff["deltas"].append(row)
    diff["identical"] = len(a) == len(b) and not diff["deltas"]
    text = json.dumps(diff, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subquant",
        description="Mixed-precision quantization with joint weight-activation "
                    "subspace selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--rank-ratio", dest="rank_ratio", type=float, default=None)
        p.add_argument("--bits-low", dest="bits_low", type=int, default=None)
        p.add_argument("--bits-high", dest="bits_high", type=int, default=None)
        p.add_argument("--objective", choices=OBJECTIVES, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rotation", choices=ROTATIONS, default=None)

    p = sub.add_parser("calibrate", help="accumulate statistics from tensor files")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("solve", help="solve subspace partitions from statistics")
    common(p)
    p.add_argument("--stats", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="execute a plan on an (X, W) pair")
    p.add_argument("--plan", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--group", default=None)
    p.add_argument("--bypass", action="store_true",
                   help="disable quantization (full-precision reference)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="compare joint / activation-only / "
                                       "weight-only objectives on one layer")
    common(p)
    p.add_argument("--synthetic", default=None,
                   help="JSON file with a synthetic instance spec")
    p.add_argument("--x", default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--sweep", type=int, default=0,
                   help="run N seeded draws of the --synthetic spec (seeds "
                        "--seed, --seed + 1, ...) and print a summary row")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="diff two report files")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoConvergenceError, NoSignalError, ScaleRangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SubquantError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
