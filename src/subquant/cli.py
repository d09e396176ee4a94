"""Command-line front end: calibrate -> solve -> simulate -> analyze -> compare.

Exit codes: 0 success; 1 exactly when the error is an ArithmeticError, a
numerical failure (no convergence / no signal / a quantizer range or a
measurement that overflows); 2 for any other error: usage, I/O (OSError) or
bad input (ValueError). An error that names its input keeps its class.
calibrate and solve form, and hand their writer, one group at a time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import formats
from .calib import ProjectionGroup, calibrate
from .engine import (
    analyze_layer, bit_widths, build_plan, campaign, measure_plan, summarize)
from .errors import Checked, FormatError, SEED, check, check_fields, is_real, located
from .solver import OBJECTIVE, OBJECTIVES, ROTATION, rank_rule
from .synth import SyntheticInstanceSpec


@dataclasses.dataclass
class RunConfig(Checked):
    """A run's config: its plan fields, and the `groups` that calibrate reads,
    each entry parsed to a ConfigGroup, so every command checks them all."""

    groups: list = dataclasses.field(default_factory=list)
    rank_ratio: float = 0.125
    bits_low: int = 4
    bits_high: int = 8
    objective: str = "joint"
    seed: int = 0
    rotation: str = "random"

    def __post_init__(self):
        check_fields(self, (
            ("rank_ratio", lambda v: is_real(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
            *bit_widths(self),
            ("objective", *OBJECTIVE),
            ("seed", *SEED),
            ("rotation", *ROTATION),
            ("groups", lambda v: isinstance(v, list), "a list"),
        ))
        self.groups = [ConfigGroup.from_json(entry, f"groups[{i}]")
                       for i, entry in enumerate(self.groups)]
        names = [g.name for g in self.groups]
        for name in names:
            if names.count(name) > 1:
                raise FormatError(f"two groups are named {name!r}")


@dataclasses.dataclass(frozen=True)
class ConfigGroup(Checked):
    """One `groups` entry of a config: the projection group it names, and the
    tensor files that calibrate reads for it."""

    name: str
    kind: str
    dim: int
    activations: tuple[str, ...] = ()
    weights: tuple[str, ...] = ()
    group: ProjectionGroup = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "group", ProjectionGroup(self.kind, self.dim, self.name))
        paths = (lambda v: isinstance(v, (list, tuple))
                 and all(isinstance(p, str) for p in v), "a list of file paths")
        # without activations Sigma_X is 0, and every objective is weight-only;
        # without weights Sigma_W is 0, and every objective is activation-only
        check_fields(self, (("activations", *paths), ("weights", *paths),
                            ("activations", len, f"non-empty for group {self.name!r}"),
                            ("weights", len, f"non-empty for group {self.name!r}")))
        for key in ("activations", "weights"):
            object.__setattr__(self, key, tuple(getattr(self, key)))


def load_config(path: str | None, objective: str | None = None,
                **defaults) -> RunConfig:
    """The config file's fields over `defaults`, over RunConfig's; an
    `objective` given overrides the file's. No file reads as an empty one."""
    obj = {}
    if path is not None:
        with open(path, "rb") as f:
            obj = formats.parse_json(f.read(), f"{path}: invalid JSON config")
    chosen = {} if objective is None else {"objective": objective}
    return RunConfig.from_json(defaults | obj if isinstance(obj, dict) else obj,
                               path, **chosen)


def rank_of(cfg: RunConfig, d: int, path: str | None = None) -> int:
    """The rank_ratio of d of the config read from `path`, at least 1, and
    below d, else a ValueError names the ratio. The floor of d * ratio is
    taken with 1e-9 to spare, so the ratio r / d gives r for every r < d <=
    4096, though d * (r / d) may round to just below r."""
    rank = max(1, math.floor(d * cfg.rank_ratio + 1e-9))
    where = f"{path}: rank_ratio" if path else "rank_ratio"
    check(f"{where} {cfg.rank_ratio!r} at dim {d}: rank", rank, *rank_rule(d))
    return rank


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    if not cfg.groups:
        raise FormatError(f"{args.config}: config declares no groups")

    def calibrated():
        for i, g in enumerate(cfg.groups):
            where = None  # the file being read, as an error names it

            def mapped(kind, paths):
                nonlocal where
                for path in paths:
                    where = (f"{args.config}: groups[{i}] (group {g.name!r}): "
                             f"{kind} file {path}")
                    yield formats.map_tensor(path)

            try:
                yield calibrate(g.group, mapped("activation", g.activations),
                                mapped("weight", g.weights))
            except FormatError:
                raise  # its message already names the file
            except (OSError, ValueError, ArithmeticError) as e:
                raise located(e, where) from e
    formats.write_stats(args.out, calibrated())
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.objective)

    def solved():
        for i, stats in enumerate(formats.read_stats(args.stats)):
            try:
                yield build_plan(stats, rank_of(cfg, stats.group.dim, args.config),
                                 cfg.bits_low, cfg.bits_high, objective=cfg.objective,
                                 seed=cfg.seed, rotation=cfg.rotation)
            except (ValueError, ArithmeticError) as e:
                raise located(e, f"{args.stats}: groups[{i}] "
                                 f"(group {stats.group.name!r})") from e
    formats.write_plan(args.out, solved())
    return 0


def cmd_simulate(args) -> int:
    plans = formats.read_plan(args.plan, args.group)
    if args.group is not None and len(plans) != 1:
        raise FormatError(f"{args.plan} holds {len(plans)} groups named "
                          f"{args.group!r}, not one")
    if len(plans) > 1:
        raise FormatError(f"{args.plan} holds groups {[p.group.name for p in plans]}: "
                          "choose one with --group")
    x, w = formats.map_tensor(args.x), formats.map_tensor(args.w)
    try:
        report = measure_plan(x, w, plans[0])
    except (ValueError, ArithmeticError) as e:
        raise located(e, f"--x {args.x} --w {args.w}") from e
    formats.write_report(args.out, [report])
    return 0


def cmd_analyze(args) -> int:
    if args.synthetic is not None and (args.x is not None or args.w is not None):
        raise FormatError("analyze takes --synthetic or --x and --w, not both")
    if args.synthetic is None and (args.x is None or args.w is None or args.sweep):
        raise FormatError("analyze needs either --synthetic or both --x and --w "
                          "(--sweep needs --synthetic)")
    if args.synthetic is not None:
        with open(args.synthetic, "rb") as f:
            obj = formats.parse_json(f.read(), f"{args.synthetic}: invalid JSON spec")
        spec = SyntheticInstanceSpec.from_json(obj, args.synthetic)
        # draw k is seeded run_seed + k: the config's seed, else the spec's
        cfg = load_config(args.config, seed=spec.seed)
        runs = campaign(spec, args.sweep or 1, rank_of(cfg, spec.d, args.config),
                        cfg.bits_low, cfg.bits_high, seed0=cfg.seed,
                        rotation=cfg.rotation)
    else:
        cfg = load_config(args.config)
        x, w = formats.map_tensor(args.x), formats.map_tensor(args.w)
        rank = rank_of(cfg, w.shape[0], args.config)
        try:
            runs = [analyze_layer(x, w, rank, cfg.bits_low, cfg.bits_high,
                                  seed=cfg.seed, rotation=cfg.rotation)]
        except (ValueError, ArithmeticError) as e:
            raise located(e, f"--x {args.x} --w {args.w}") from e
    formats.write_report(args.out, [rep for run in runs for rep in run])
    print(json.dumps(summarize(runs), sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    a = formats.read_report(args.report_a)
    b = formats.read_report(args.report_b)
    diff = {"rows_a": len(a), "rows_b": len(b), "deltas": []}
    for i, (ra, rb) in enumerate(zip(a, b)):
        ra, rb = ra.to_json(), rb.to_json()
        row = {"row": i}
        for col in formats.REPORT_COLUMNS:
            va, vb = ra[col], rb[col]
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
        formats.atomic_write(args.out, [(text + "\n").encode("utf-8")])
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subquant",
        description="Mixed-precision quantization with joint weight-activation "
                    "subspace selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="accumulate statistics from tensor files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("solve", help="solve subspace partitions from statistics")
    p.add_argument("--config", default=None)
    p.add_argument("--objective", choices=OBJECTIVES, default=None)
    p.add_argument("--stats", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="execute a plan on an (X, W) pair")
    p.add_argument("--plan", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--group", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="compare joint / activation-only / "
                                       "weight-only objectives on one layer")
    p.add_argument("--config", default=None)  # its objective is unread: all three run
    p.add_argument("--synthetic", default=None,
                   help="JSON file with a synthetic instance spec")
    p.add_argument("--x", default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--sweep", type=int, default=0,
                   help="run N draws of the --synthetic spec, seeded S, S + 1, "
                        "...; S is the config's seed, else the spec's")
    p.add_argument("--out", required=True)
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
    except (OSError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, ArithmeticError) else 2


if __name__ == "__main__":
    sys.exit(main())
