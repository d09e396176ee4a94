"""Child process of the benchmark.

    python3 bench/worker.py setup --workload W --seed N --inputs DIR --out F [--trace 1]
    python3 bench/worker.py ops   --workload W --seed N --inputs DIR --out F
                                  --seconds S [--trace 1] [--spans F]

`setup` generates a workload's inputs into DIR. `ops` runs the closed loop
(one client, next op after the previous one completes) on those inputs and
writes a JSON summary to F. Set-up runs in its own process, so the `ops`
process's peak RSS covers only the timed ops. run_bench.py starts both.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)  # the checkout's program, never an installed copy

import numpy as np  # noqa: E402

import subquant  # noqa: E402
from subquant import calib, cli, engine, formats, solver, synth  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import PROFILES, WORKLOADS  # noqa: E402

MAX_ERRORS = 5  # failure messages kept per run; every failure is counted


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append("; ".join(problems))

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors}


def run_pass(wl, seconds: float, tracer: Tracer | None = None, first: int = 0) -> dict:
    """Closed loop: run ops until their summed time reaches `seconds`, not
    starting one that would, on the mean so far, end past it. Only the op
    call is timed; its checks run between ops."""
    tally = Tally()
    op_times = []
    cpu = 0.0
    k = first
    while True:
        i = k % wl.cycle
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(i)
            else:
                with tracer.op_span(k):
                    out = wl.op(i)
            problems = None
        except Exception as e:  # a failed op is counted, not fatal
            problems = [f"op {k}: {type(e).__name__}: {e}"]
        op_times.append(time.perf_counter() - t0)
        cpu += cpu_seconds() - c0
        if problems is None:
            try:
                problems = wl.check(i, out)
            except Exception as e:
                problems = [f"check {k}: {type(e).__name__}: {e}"]
        tally.record(problems)
        k += 1
        total = sum(op_times)
        if total + total / len(op_times) > seconds:
            break
    return {**tally.to_json(), "completed": tally.attempted - tally.failed,
            "seconds": sum(op_times), "cpu_s": cpu, "op_times": op_times,
            "next": k}


def run_extra(tally: Tally, fn):
    try:
        problems, value = fn()
    except Exception as e:
        problems = [f"extra: {type(e).__name__}: {e}"]
    tally.record(problems)
    return None if problems else value


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _read(args, kwargs, result):
    return {"bytes_read": os.path.getsize(_path_arg(args, kwargs))}


def _write(args, kwargs, result):
    return {"bytes_written": os.path.getsize(_path_arg(args, kwargs))}


def _write_plan(args, kwargs, result):
    n = os.path.getsize(_path_arg(args, kwargs))
    return {"bytes_written": n, "plan_bytes": n}


def _elements(args, kwargs, result):
    return {"elements": int(np.size(args[0] if args else kwargs["x"]))}


def _tokens(args, kwargs, result):
    return {"tokens": int(np.shape(args[1] if len(args) > 1 else kwargs["batch"])[0])}


def _flops(args, kwargs, result):
    """Matmul flops of execute_plan, computed from shapes: X u (2nd^2),
    u^T W (2d^2m), the reference Y and the two subspace products (4ndm)."""
    n, d = np.shape(args[0])
    m = np.shape(args[1])[1]
    return {"flops": 2 * n * d * d + 2 * d * d * m + 4 * n * d * m}


def _cli(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"command": argv[0], "exit": result}


# (module, name it binds, span name, measure)
TARGETS = [
    (solver, "sym_eig", "linalg.sym_eig", None),
    (solver, "random_orthogonal", "linalg.random_orthogonal", None),
    (solver, "hadamard", "linalg.hadamard", None),
    (calib, "gram_input", "linalg.gram_input", None),
    (calib, "gram_weight", "linalg.gram_weight", None),
    (engine, "solve_partition", "solver.solve_partition", None),
    (engine, "quantize", "quantizer.quantize", _elements),
    (engine, "accumulate_activations", "calib.accumulate_activations", _tokens),
    (engine, "attach_weights", "calib.attach_weights", None),
    (cli, "accumulate_activations", "calib.accumulate_activations", _tokens),
    (cli, "attach_weights", "calib.attach_weights", None),
    (cli, "build_plan", "engine.build_plan", None),
    (cli, "execute_plan", "engine.execute_plan", _flops),
    # the entry points the workloads call
    (engine, "analyze_layer", "engine.analyze_layer", None),
    (engine, "stats_from_tensors", "engine.stats_from_tensors", None),
    (engine, "build_plan", "engine.build_plan", None),
    (engine, "execute_plan", "engine.execute_plan", _flops),
    (cli, "main", "cli.main", _cli),
] + [
    (formats, name, f"formats.{name}",
     _write_plan if name == "write_plan" else _write if name.startswith("write_") else _read)
    for name in sorted(vars(formats))
    if name.startswith(("read_", "write_")) and callable(getattr(formats, name))
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the span names of boundaries not found."""
    return [f"{mod.__name__}.{attr}" for mod, attr, name, measure in TARGETS
            if not tracer.wrap(mod, attr, name, measure)]


def numpy_info() -> dict:
    info = {"version": np.__version__, "blas": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning
        pass
    return info


def cmd_setup(args) -> dict:
    wl = WORKLOADS[args.workload](args.inputs, args.seed, args.profile)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.wrap(synth, "generate_instance", "synth.generate_instance")
        tracer.op = "setup"
    manifest = wl.setup()
    if tracer is not None:
        tracer.restore()
        tracer.write_jsonl(args.spans)
    return {"manifest": manifest}


def cmd_ops(args) -> dict:
    wl = WORKLOADS[args.workload](args.inputs, args.seed, args.profile)
    wl.load()
    out = {"numpy": numpy_info()}
    if not args.trace:
        out["plain"] = run_pass(wl, args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra = Tally()
        out["quality"] = wl.quality(lambda fn: run_extra(extra, fn))
        out["extra"] = extra.to_json()
        return out
    out["plain"] = run_pass(wl, args.seconds / 2)
    tracer = Tracer()
    out["missing_boundaries"] = install(tracer)
    try:
        out["traced"] = run_pass(wl, args.seconds / 2, tracer, first=out["plain"]["next"])
    finally:
        tracer.restore()
    tracer.write_jsonl(args.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("role", choices=("setup", "ops"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--profile", choices=sorted(PROFILES), default="full")
    args = ap.parse_args(argv)
    if not os.path.abspath(subquant.__file__).startswith(SRC + os.sep):
        print(f"worker: imported subquant from {subquant.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = cmd_setup(args) if args.role == "setup" else cmd_ops(args)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
