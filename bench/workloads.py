"""The benchmark's workloads: input generation, one op, the per-op checks
and the quality metrics over a fixed, seed-determined instance set.

Every workload drives `subquant` through its public API only; the program
sees the generated inputs, never the workload seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from subquant import cli, engine, formats, solver, synth

BITS_LOW, BITS_HIGH = 4, 8
ORTHO_TOL = 1e-8       # max |u^T u - I|
SURROGATE_TOL = 1e-8   # |surrogate - top-r eigenvalue sum| / ||M||_F

PROFILES = {
    "full": {
        "ablation": {"d": 64, "n": 256, "m": 64, "rank": 8, "instances": 32},
        "wide": {"d": 256, "n": 1024, "m": 768, "rank": 32},
        "pipeline": {"d": 64, "shards": 32, "shard_tokens": 16384,
                     "eval_tokens": 16384, "rank_ratio": 0.125,
                     "groups": [["attn-input", [64, 64, 64]],
                                ["mlp-input", [256, 256]]]},
    },
    # the self-test's sizes: same code paths, a fraction of a second per op
    "tiny": {
        "ablation": {"d": 16, "n": 64, "m": 16, "rank": 2, "instances": 3},
        "wide": {"d": 32, "n": 128, "m": 96, "rank": 4},
        "pipeline": {"d": 16, "shards": 3, "shard_tokens": 256,
                     "eval_tokens": 256, "rank_ratio": 0.125,
                     "groups": [["attn-input", [16, 16, 16]],
                                ["mlp-input", [32, 32]]]},
    },
}


def instance_seed(seed: int, workload: str, k: int) -> int:
    """Seed of the k-th instance of a workload run with `seed`."""
    key = [seed, sum(map(ord, workload)), k]
    return int(np.random.SeedSequence(key).generate_state(1)[0] >> 1)


def energy(a: np.ndarray) -> float:
    return float(np.sum(a * a))


def partition_problems(stats, part) -> list[str]:
    """The solve's checks: u orthogonal, and the surrogate objective equal to
    the top-r eigenvalue sum from an independent eigvalsh."""
    out = []
    d = part.u.shape[0]
    resid = float(np.max(np.abs(part.u.T @ part.u - np.eye(d))))
    if not resid <= ORTHO_TOL:
        out.append(f"|u^T u - I|_max = {resid:.3e}")
    m = part.lambda_x * stats.sigma_x + part.lambda_w * stats.sigma_w
    top = float(np.sum(np.linalg.eigvalsh((m + m.T) / 2.0)[::-1][:part.rank]))
    got = solver.surrogate_objective(part, stats)
    if not abs(got - top) <= SURROGATE_TOL * float(np.linalg.norm(m)):
        out.append(f"surrogate {got!r} vs eigvalsh top-{part.rank} sum {top!r}")
    return out


def report_problems(row: dict) -> list[str]:
    return [f"report {k} = {v!r}" for k, v in row.items()
            if isinstance(v, (int, float)) and not math.isfinite(v)]


def _manifest_entry(path: str, shape) -> dict:
    return {"file": os.path.basename(path), "shape": list(shape),
            "bytes": os.path.getsize(path)}


class Workload:
    """One workload bound to an inputs directory. `cycle` ops make up the
    fixed instance set; op k runs instance k % cycle."""

    cycle = 1

    def __init__(self, inputs: str, seed: int, profile: str = "full"):
        self.inputs = inputs
        self.seed = seed
        self.p = PROFILES[profile][self.name]
        self.quality_values: dict[int, dict] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def setup(self) -> list[dict]:
        """Generate and write the inputs; return their shapes and bytes."""
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Problems found in op i's outputs (outside the timed region).
        Records the instance's quality values when there are none."""
        raise NotImplementedError

    def checked_op(self, i: int):
        return self.check(i, self.op(i)), None

    def first_quality(self, run_extra):
        """Instance 0's quality values; runs it untimed when the loop did not
        complete it. None when it failed."""
        if 0 not in self.quality_values:
            run_extra(lambda: self.checked_op(0))
        return self.quality_values.get(0)

    def quality(self, run_extra) -> dict[str, float]:
        """rel_error and joint_gain over the fixed instance set.

        `run_extra(fn)` runs an untimed extra op: `fn()` returns (problems,
        value); the op is counted, and failed when it raises or finds a
        problem. It returns the value, or None when the op failed."""
        raise NotImplementedError


class _NpzInstances(Workload):
    """Instances drawn with `synth.weight_anisotropic_spec`, kept in one npz."""

    def setup(self):
        p = self.p
        arrays = {}
        for k in range(self.cycle):
            s = instance_seed(self.seed, self.name, k)
            x, w = synth.generate_instance(
                synth.weight_anisotropic_spec(p["d"], p["n"], p["m"], s))
            arrays[f"x{k}"], arrays[f"w{k}"] = x, w
        path = self.path("instances.npz")
        np.savez(path, **arrays)
        return [{"file": os.path.basename(path), "bytes": os.path.getsize(path),
                 "arrays": {k: list(v.shape) for k, v in arrays.items()}}]

    def load(self):
        with np.load(self.path("instances.npz")) as z:
            self.x = [z[f"x{k}"] for k in range(self.cycle)]
            self.w = [z[f"w{k}"] for k in range(self.cycle)]
        self.seeds = [instance_seed(self.seed, self.name, k) for k in range(self.cycle)]
        self.y_energy = [energy(x @ w) for x, w in zip(self.x, self.w)]

    def check(self, i, out):
        problems = []
        for stats, part in out["solves"]:
            problems += partition_problems(stats, part)
        for rep in out["reports"]:
            problems += report_problems(rep.to_json())
        if not problems and i not in self.quality_values:
            self.quality_values[i] = self.instance_quality(i, out)
        return problems


class Ablation(_NpzInstances):
    """The paper's campaign: `engine.analyze_layer` solves the joint,
    activation-only and weight-only objectives on one instance."""

    name = "ablation"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cycle = self.p["instances"]

    def op(self, i):
        # analyze_layer returns reports only; keep each solve's (stats,
        # partition) for the checks. This costs a few microseconds per op.
        solves = []
        solve = engine.solve_partition

        def capture(stats, *args, **kwargs):
            part = solve(stats, *args, **kwargs)
            solves.append((stats, part))
            return part

        engine.solve_partition = capture
        try:
            reports = engine.analyze_layer(self.x[i], self.w[i], self.p["rank"],
                                           BITS_LOW, BITS_HIGH, seed=self.seeds[i])
        finally:
            engine.solve_partition = solve
        return {"reports": reports, "solves": solves}

    def instance_quality(self, i, out):
        joint = next(r for r in out["reports"] if r.objective == "joint")
        return {"rel_error": joint.exact_error / self.y_energy[i],
                "joint_gain": joint.relative_reduction}

    def quality(self, run_extra):
        for i in range(self.cycle):
            if i not in self.quality_values:
                run_extra(lambda i=i: self.checked_op(i))
        vals = [self.quality_values[i] for i in sorted(self.quality_values)]
        return {"rel_error": _median([v["rel_error"] for v in vals]),
                "joint_gain": _mean([v["joint_gain"] for v in vals])}


class Wide(_NpzInstances):
    """One layer at the north star's large-d axis: statistics, joint plan and
    simulated execution."""

    name = "wide"

    def _plan(self, stats, objective):
        return engine.build_plan(stats, self.p["rank"], BITS_LOW, BITS_HIGH,
                                 objective=objective, seed=self.seeds[0])

    def op(self, i):
        stats = engine.stats_from_tensors(self.x[i], self.w[i])
        plan = self._plan(stats, "joint")
        _, report = engine.execute_plan(self.x[i], self.w[i], plan)
        return {"reports": [report], "solves": [(stats, plan.partition)]}

    def instance_quality(self, i, out):
        return {"stats": out["solves"][0][0],
                "exact_error": out["reports"][0].exact_error}

    def quality(self, run_extra):
        joint = self.first_quality(run_extra)
        if joint is None:
            return {"rel_error": 0.0, "joint_gain": 0.0}

        def baseline():
            plan = self._plan(joint["stats"], "activation")
            _, report = engine.execute_plan(self.x[0], self.w[0], plan)
            problems = (partition_problems(joint["stats"], plan.partition)
                        + report_problems(report.to_json()))
            return problems, report.exact_error

        act = run_extra(baseline)
        gain = 0.0 if act is None else 1.0 - joint["exact_error"] / act
        return {"rel_error": joint["exact_error"] / self.y_energy[0],
                "joint_gain": gain}


class Pipeline(Workload):
    """The user's path: `cli.main` calibrate -> solve -> simulate over two
    projection groups with Hadamard rotation, all through tensor files."""

    name = "pipeline"

    def setup(self):
        p = self.p
        manifest, groups = [], []
        train = p["shards"] * p["shard_tokens"]
        for g, (kind, parts) in enumerate(self.p["groups"]):
            spec = synth.weight_anisotropic_spec(
                p["d"], train + p["eval_tokens"], sum(parts),
                instance_seed(self.seed, self.name, g))
            x, w = synth.generate_instance(spec)
            acts = []
            for k in range(p["shards"]):
                path = self.path(f"{kind}.x{k:03d}.cqt")
                formats.write_tensor(
                    path, f"{kind}.x{k}",
                    x[k * p["shard_tokens"]:(k + 1) * p["shard_tokens"]], dtype="f32")
                acts.append(path)
            manifest.append(_manifest_entry(acts[0], (p["shard_tokens"], p["d"]))
                            | {"files": len(acts)})
            path = self.path(f"{kind}.x_eval.cqt")
            formats.write_tensor(path, f"{kind}.x_eval", x[train:], dtype="f32")
            manifest.append(_manifest_entry(path, (p["eval_tokens"], p["d"])))
            w = w.astype(np.float32)
            weights, col = [], 0
            for j, cols in enumerate(parts):
                path = self.path(f"{kind}.w{j}.cqt")
                formats.write_tensor(path, f"{kind}.w{j}", w[:, col:col + cols],
                                     dtype="f32")
                manifest.append(_manifest_entry(path, (p["d"], cols)))
                weights.append(path)
                col += cols
            path = self.path(f"{kind}.w_fused.cqt")
            formats.write_tensor(path, f"{kind}.w_fused", w, dtype="f32")
            manifest.append(_manifest_entry(path, w.shape))
            groups.append({"name": kind, "kind": kind, "dim": p["d"],
                           "activations": acts, "weights": weights})
            del x, w  # the next group's draw needs the memory
        # the rotation seed follows the groups' instance seeds
        rotation_seed = instance_seed(self.seed, self.name, len(groups))
        config = {"groups": groups, "seed": rotation_seed,
                  "rank_ratio": p["rank_ratio"], "bits_low": BITS_LOW,
                  "bits_high": BITS_HIGH, "objective": "joint",
                  "rotation": "hadamard"}
        with open(self.path("config.json"), "w", encoding="utf-8") as f:
            json.dump(config, f, indent=1, sort_keys=True)
        return manifest

    def load(self):
        self.names = [kind for kind, _ in self.p["groups"]]
        self.y_energy = {}
        for kind in self.names:
            x = formats.read_tensor(self.path(f"{kind}.x_eval.cqt"))
            w = formats.read_tensor(self.path(f"{kind}.w_fused.cqt"))
            self.y_energy[kind] = energy(x @ w)
        self.first_reports = None

    def _run(self, objective, calibrate=True):
        """[calibrate ->] solve -> simulate each group, through `cli.main`."""
        cfg = self.path("config.json")
        stats, plan = self.path("stats.cqb"), self.path(f"plan.{objective}.cqb")
        steps = [["calibrate", "--config", cfg, "--out", stats]] if calibrate else []
        steps += [["solve", "--stats", stats, "--config", cfg,
                   "--objective", objective, "--out", plan]]
        steps += [["simulate", "--plan", plan, "--group", kind,
                   "--x", self.path(f"{kind}.x_eval.cqt"),
                   "--w", self.path(f"{kind}.w_fused.cqt"),
                   "--out", self.path(f"report.{objective}.{kind}.jsonl")]
                  for kind in self.names]
        for argv in steps:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"subquant {argv[0]} exited with {code}")

    def op(self, i):
        self._run("joint")

    def _outputs(self, objective):
        reports = {}
        for kind in self.names:
            with open(self.path(f"report.{objective}.{kind}.jsonl"), "rb") as f:
                reports[kind] = f.read()
        stats = formats.read_stats(self.path("stats.cqb"))
        plans = formats.read_plan(self.path(f"plan.{objective}.cqb"))
        problems = []
        for st, plan in zip(stats, plans):
            problems += partition_problems(st, plan.partition)
        for kind, raw in reports.items():
            for line in raw.decode("utf-8").splitlines():
                problems += report_problems(json.loads(line))
        return problems, reports

    def check(self, i, out):
        problems, reports = self._outputs("joint")
        if self.first_reports is None:
            self.first_reports = reports
        elif reports != self.first_reports:
            problems.append("reports differ from the run's first op")
        if not problems and not self.quality_values:
            self.quality_values[0] = {
                kind: json.loads(raw)["exact_error"] for kind, raw in reports.items()}
        return problems

    def quality(self, run_extra):
        joint = self.first_quality(run_extra)
        if joint is None:
            return {"rel_error": 0.0, "joint_gain": 0.0}

        def baseline():
            self._run("activation", calibrate=False)
            problems, reports = self._outputs("activation")
            return problems, {k: json.loads(raw)["exact_error"]
                              for k, raw in reports.items()}

        act = run_extra(baseline)
        gains = [] if act is None else [1.0 - joint[k] / act[k] for k in self.names]
        return {"rel_error": _median([joint[k] / self.y_energy[k] for k in self.names]),
                "joint_gain": _mean(gains)}


def _median(vals):
    return float(np.median(vals)) if vals else 0.0


def _mean(vals):
    return float(np.mean(vals)) if vals else 0.0


WORKLOADS = {w.name: w for w in (Ablation, Pipeline, Wide)}
