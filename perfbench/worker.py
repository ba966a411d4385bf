"""One benchmark process: set up a workload, say "ready", run it, report.

run.py starts this with the checkout's src/ on PYTHONPATH and the checkout
root as working directory.  The first stdout line, "ready", ends set-up;
the last is a JSON object with the run's counts, peak memory, machine facts
and, for a traced run, the per-layer metrics.  Spans are kept in memory and,
for a traced run, written to .perfbench_work/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import SpeedSampler

# mean milliseconds per call, for each span name with a `<name>_ms` metric
MEAN_MS = ("threshold.context", "graphs.build", "families.build", "families.dp",
           "families.degree", "spectral.decompose", "spectral.residual_check",
           "removal.nearest_exact", "removal.center_set", "removal.case_table",
           "removal.bound_check")
# per-trial microseconds at p50 and p90
PER_TRIAL_US = ("threshold.rng", "threshold.sample", "threshold.superstar")
# the parts of a removal report; removal.repeat_factor is the report's wall
# time over the sum of one call to each
REPORT_PARTS = ("families.dp", "families.degree", "spectral.decompose",
                "removal.nearest_exact", "removal.center_set")


class Tracer:
    """Spans (name, op, start_ns, end_ns); `op` ties the spans of one op."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []

    def call(self, name: str, op: int, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans.append((name, op, start, time.perf_counter_ns()))
        return out

    def durations(self) -> dict[str, list[tuple[float, int]]]:
        """Span name -> [(seconds, op)] in call order."""
        by: dict[str, list[tuple[float, int]]] = {}
        for name, op, start, end in self.spans:
            by.setdefault(name, []).append(((end - start) * 1e-9, op))
        return by

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for name, op, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "start_ns": start,
                                     "end_ns": end}) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor(),
             "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return facts


def layer_metrics(tracer: Tracer, wl, untraced_s: float, traced_s: float,
                  untraced_again_s: float) -> dict:
    untraced = (untraced_s + untraced_again_s) / 2
    by = tracer.durations()
    secs = {name: [d for d, _ in spans] for name, spans in by.items()}
    m = {f"{name}_ms": 1e3 * mean(secs.get(name, [])) for name in MEAN_MS}
    m["cli.import_ms"] = 1e3 * mean(secs["cli.import"])
    for name in PER_TRIAL_US:
        for q in (50, 90):
            m[f"{name}_us.p{q}"] = 1e6 * percentile(secs.get(name, []), q)

    decide = by.get("mis.decide", [])
    decide_ms = [1e3 * d for d, _ in decide]
    nodes = [n for _, n, _ in wl.decisions]
    worst = max(decide, default=(0.0, 0))
    m.update({
        "mis.decide_ms.p50": percentile(decide_ms, 50),
        "mis.decide_ms.p90": percentile(decide_ms, 90),
        "mis.decide_ms.max": 1e3 * worst[0],
        "mis.decide_max_trial": worst[1],
        "mis.nodes.p50": percentile(nodes, 50),
        "mis.nodes.max": max(nodes, default=0),
        "mis.nodes_total": sum(nodes),
        "mis.us_per_node": 1e3 * sum(decide_ms) / sum(nodes) if nodes else 0.0,
        "threshold.searches": len(wl.decisions),
        "threshold.search_after_superstar_frac":
            sum(x for _, _, x in wl.decisions) / len(wl.decisions)
            if wl.decisions else 0.0,
        "threshold.decisions_per_trial":
            len(wl.decisions) / wl.trial_indices if wl.trial_indices else 0.0,
        "removal.center_set_candidates": wl.center_set_candidates,
        "trace.untraced_ms": 1e3 * untraced,
        "trace.overhead_ms": 1e3 * (traced_s - untraced),
    })
    parts = sum(mean(secs.get(name, [])) for name in REPORT_PARTS)
    report = mean(secs.get("cli.removal", []))
    m["removal.repeat_factor"] = report / parts if parts else 0.0
    return m


def guarded(fn, i: int, unit_ops: int) -> tuple[int, int]:
    """A unit that raises counts all its ops as failed; the run goes on."""
    try:
        return fn(i)
    except Exception:
        traceback.print_exc()
        return unit_ops, unit_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    tracer.call("cli.import", -1, __import__, "kneserlab.cli")
    import kneserlab

    src = (Path.cwd() / "src").resolve()
    if Path(kneserlab.__file__).resolve().parent.parent != src:
        print(f"kneserlab imported from {kneserlab.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.smoke, tracer)
    wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    attempted = failed = 0
    if args.trace:
        units = wl.trace_units(args.seconds)
        passes = []  # untraced, traced, untraced: the second untraced pass
        # cancels the first pass's warm-up out of the tracing overhead
        for run in (wl.run_unit, wl.traced_unit, wl.run_unit):
            start = time.perf_counter()
            for i in range(units):
                a, f = guarded(run, i, wl.unit_ops)
                attempted, failed = attempted + a, failed + f
            passes.append(time.perf_counter() - start)
        wl.probe()
        a, f = wl.digest_checks()
        attempted, failed = attempted + a, failed + f
    else:
        i = 0
        with SpeedSampler() as speed:
            start = time.perf_counter()
            while True:
                a, f = guarded(wl.run_unit, i, wl.unit_ops)
                attempted, failed = attempted + a, failed + f
                i += 1
                elapsed = time.perf_counter() - start
                if elapsed >= args.seconds and i % wl.units_per_pass == 0:
                    break
        busy = elapsed - speed.spent
        ops = attempted
    a, f = wl.final_checks()
    attempted, failed = attempted + a, failed + f

    result = {
        "attempted": attempted,
        "failed": failed,
        "machine": machine_facts(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, wl, *passes)
        tracer.write(Path(".perfbench_work") / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        result["raw_ops_per_s"] = ops / busy
        result["ops_per_s"] = ops / (busy * speed.scale())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
