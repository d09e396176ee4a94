"""In-memory spans for the benchmark's traced run.

A span records name, start, end, parent span and op id. Spans are recorded
by wrappers that the tracer puts around the names one `subquant` module binds
from another (for example `subquant.solver.sym_eig`), so nothing under `src/`
changes. Spans stay in memory and are written out as JSONL at the end.

Stdlib only: the orchestrating process aggregates spans without numpy.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; wrappers record only inside one."""
        self.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def wrap(self, module, attr: str, name: str, measure=None) -> bool:
        """Replace `module.attr` by a recording wrapper.

        `measure(args, kwargs, result)` returns extra span fields. Returns
        False, and wraps nothing, when the module no longer binds `attr`: its
        metrics then read 0."""
        orig = getattr(module, attr, None)
        if orig is None:
            return False

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return orig(*args, **kwargs)
            with self.span(name) as rec:
                result = orig(*args, **kwargs)
                if measure is not None:
                    rec.update(measure(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))
        return True

    def restore(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover. Children of one
    span run one after another (the program is single-threaded in Python),
    so their durations add up without overlap."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def per_layer(spans: list[dict], plain: dict, traced: dict,
              setup_spans: list[list[dict]]) -> dict[str, float]:
    """Per-op layer metrics from the spans of the traced pass.

    `plain` and `traced` are pass summaries (completed, seconds, cpu_s,
    attempted, failed); `setup_spans` holds the spans of each set-up run."""
    ops = max(traced["completed"], 1)
    selfs = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    for s in spans:
        name = s["name"]
        d = s["end"] - s["start"]
        dur[name] += d
        calls[name] += 1
        for key in ("elements", "tokens", "flops", "bytes_read", "bytes_written",
                    "plan_bytes"):
            attr[key] += s.get(key, 0)
        if name == "cli.main":
            dur["cli." + s.get("command", "?")] += d
            attr["nonzero_exits"] += s.get("exit", 1) != 0

    def total(prefix):
        return sum(v for k, v in dur.items() if k.startswith(prefix))

    rotation = ("linalg.random_orthogonal", "linalg.hadamard")
    quant_s = dur["quantizer.quantize"]
    gen = [sum(s["end"] - s["start"] for s in run
               if s["name"] == "synth.generate_instance") for run in setup_spans]
    plain_rate = plain["completed"] / plain["seconds"] if plain["seconds"] else 0.0
    traced_rate = traced["completed"] / traced["seconds"] if traced["seconds"] else 0.0
    attempted = plain["attempted"] + traced["attempted"]
    return {
        "op.wall_s": dur["op"] / ops,
        "linalg.eig_s": dur["linalg.sym_eig"] / ops,
        "linalg.eig_calls": calls["linalg.sym_eig"] / ops,
        "linalg.rotation_s": sum(dur[n] for n in rotation) / ops,
        "linalg.rotation_calls": sum(calls[n] for n in rotation) / ops,
        "linalg.gram_s": total("linalg.gram_") / ops,
        "calib.busy_s": total("calib.") / ops,
        "calib.tokens": attr["tokens"] / ops,
        "solver.self_s": sum(selfs[s["id"]] for s in spans
                             if s["name"] == "solver.solve_partition") / ops,
        "solver.calls": calls["solver.solve_partition"] / ops,
        "quantizer.busy_s": quant_s / ops,
        "quantizer.elements": attr["elements"] / ops,
        "quantizer.ns_per_element": (quant_s * 1e9 / attr["elements"]
                                     if attr["elements"] else 0.0),
        "engine.self_s": sum(selfs[s["id"]] for s in spans
                             if s["name"].startswith("engine.")) / ops,
        "engine.flops_computed": attr["flops"] / ops,
        "formats.read_s": total("formats.read_") / ops,
        "formats.write_s": total("formats.write_") / ops,
        "formats.bytes_read": attr["bytes_read"] / ops,
        "formats.bytes_written": attr["bytes_written"] / ops,
        "formats.plan_bytes": attr["plan_bytes"] / ops,
        "cli.calibrate_s": dur["cli.calibrate"] / ops,
        "cli.solve_s": dur["cli.solve"] / ops,
        "cli.simulate_s": dur["cli.simulate"] / ops,
        "cli.nonzero_exits": attr["nonzero_exits"] / ops,
        "synth.generate_s": statistics.median(gen) if gen else 0.0,
        "proc.cpu_util": plain["cpu_s"] / plain["seconds"] if plain["seconds"] else 0.0,
        "trace.overhead": traced_rate / plain_rate if plain_rate else 0.0,
        "failed_frac": ((plain["failed"] + traced["failed"]) / attempted
                        if attempted else 0.0),
    }
