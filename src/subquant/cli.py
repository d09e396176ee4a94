"""Command-line front end: calibrate -> solve -> simulate -> analyze -> compare.

Exit codes: 0 success, 1 numerical failure (no convergence / no signal /
a quantizer range or a measurement that overflows), 2 usage, I/O, or schema
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import formats
from .calib import (
    CalibStats,
    ProjectionGroup,
    accumulate_activations,
    attach_weights,
)
from .engine import (
    analyze_layer, bit_widths, build_plan, campaign, measure_plan, summarize)
from .errors import (
    Checked,
    FormatError,
    NoConvergenceError,
    NoSignalError,
    ScaleRangeError,
    SubquantError,
    check_fields,
    is_real,
)
from .solver import OBJECTIVE, OBJECTIVES, ROTATION, ROTATIONS, SEED
from .synth import SyntheticInstanceSpec


@dataclasses.dataclass
class RunConfig(Checked):
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


_FLAGS = ("rank_ratio", "bits_low", "bits_high", "objective", "seed", "rotation")


def load_config(path: str | None, args: argparse.Namespace, **defaults) -> RunConfig:
    """The config file's fields over `defaults`, overridden by the flags given.
    The merged values are checked together; an error names the file unless
    the field at fault came from a flag."""
    flags = {k: getattr(args, k) for k in _FLAGS if getattr(args, k, None) is not None}
    if path is None:
        return RunConfig(**defaults | flags)
    with open(path, "rb") as f:
        obj = formats.parse_json(f.read(), f"{path}: invalid JSON config")
    try:
        return RunConfig.from_json(defaults | obj if isinstance(obj, dict) else obj,
                                   path, **flags)
    except FormatError as e:
        if getattr(e.__cause__, "field", None) in flags:
            raise e.__cause__ from None
        raise


def rank_of(args, cfg: RunConfig, d: int) -> int:
    """--rank if given, else the config's rank_ratio of d, at least 1."""
    return args.rank if args.rank is not None else max(1, int(d * cfg.rank_ratio))


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config, args)
    if not cfg.groups:
        raise FormatError(f"{args.config}: config declares no groups")
    groups = [ConfigGroup.from_json(entry, f"{args.config}: groups[{i}]")
              for i, entry in enumerate(cfg.groups)]
    names = [g.name for g in groups]
    for name in names:
        if names.count(name) > 1:
            raise FormatError(f"{args.config}: two groups are named {name!r}")
    stats_list = []
    for i, g in enumerate(groups):
        where = f"{args.config}: groups[{i}]"
        stats = CalibStats.empty(g.group)
        for path in g.activations:
            try:
                batch = formats.map_tensor(path)
                stats = accumulate_activations(stats, batch)
            except FormatError:
                raise  # its message already names the file
            except (OSError, ValueError) as e:
                raise FormatError(
                    f"{where} (group {g.name!r}): activation file {path}: {e}") from e
            del batch  # releases the file's mapping
        weights = []
        for path in g.weights:
            try:
                weights.append(formats.read_tensor(path))
            except OSError as e:
                raise FormatError(
                    f"{where} (group {g.name!r}): weight file {path}: {e}") from e
        try:
            stats_list.append(attach_weights(stats, weights))
        except ValueError as e:
            # an energy that overflows is the fault of the files together
            path = (g.weights[e.member] if hasattr(e, "member")
                    else ", ".join(g.weights))
            raise FormatError(
                f"{where} (group {g.name!r}): weight file {path}: {e}") from e
    formats.write_stats(args.out, stats_list)
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args)
    plans = [build_plan(stats, rank_of(args, cfg, stats.group.dim), cfg.bits_low,
                        cfg.bits_high, objective=cfg.objective, seed=cfg.seed,
                        rotation=cfg.rotation)
             for stats in formats.read_stats(args.stats)]
    formats.write_plan(args.out, plans)
    return 0


def cmd_simulate(args) -> int:
    plans = formats.read_plan(args.plan)
    if args.group is not None:
        plans = [plan for plan in plans if plan.group.name == args.group]
        if len(plans) != 1:
            raise FormatError(f"{args.plan} holds {len(plans)} groups named "
                              f"{args.group!r}, not one")
    elif len(plans) > 1:
        names = [plan.group.name for plan in plans]
        raise FormatError(f"{args.plan} holds groups {names}: "
                          "choose one with --group")
    x = formats.read_tensor(args.x)
    w = formats.read_tensor(args.w)
    formats.write_report(args.out, [measure_plan(x, w, plans[0])])
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
        # draw k is seeded run_seed + k: --seed, else the config's, else the spec's
        cfg = load_config(args.config, args, seed=spec.seed)
        runs = campaign(spec, args.sweep or 1, rank_of(args, cfg, spec.d), cfg.bits_low,
                        cfg.bits_high, seed0=cfg.seed, rotation=cfg.rotation)
    else:
        cfg = load_config(args.config, args)
        x = formats.read_tensor(args.x)
        w = formats.read_tensor(args.w)
        runs = [analyze_layer(x, w, rank_of(args, cfg, x.shape[1]), cfg.bits_low,
                              cfg.bits_high, seed=cfg.seed, rotation=cfg.rotation)]
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
        formats.atomic_write(args.out, (text + "\n").encode("utf-8"))
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subquant",
        description="Mixed-precision quantization with joint weight-activation "
                    "subspace selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def plan_flags(p, objective=True):
        """--config and the flags that override its plan fields."""
        p.add_argument("--config", default=None)
        p.add_argument("--rank-ratio", dest="rank_ratio", type=float, default=None)
        p.add_argument("--bits-low", dest="bits_low", type=int, default=None)
        p.add_argument("--bits-high", dest="bits_high", type=int, default=None)
        if objective:
            p.add_argument("--objective", choices=OBJECTIVES, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rotation", choices=ROTATIONS, default=None)

    p = sub.add_parser("calibrate", help="accumulate statistics from tensor files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("solve", help="solve subspace partitions from statistics")
    plan_flags(p)
    p.add_argument("--stats", required=True)
    p.add_argument("--rank", type=int, default=None)
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
    plan_flags(p, objective=False)  # analyze runs all three objectives
    p.add_argument("--synthetic", default=None,
                   help="JSON file with a synthetic instance spec")
    p.add_argument("--x", default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--sweep", type=int, default=0,
                   help="run N draws of the --synthetic spec, seeded S, S + 1, "
                        "...; S is --seed, else the config's seed, else the spec's")
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
    except (SubquantError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        numerical = (NoConvergenceError, NoSignalError, ScaleRangeError)
        return 1 if isinstance(e, numerical) else 2


if __name__ == "__main__":
    sys.exit(main())
