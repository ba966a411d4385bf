"""kneserlab benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run it from the root of a source checkout; it imports the package from the
checkout's src/ and refuses to run without it.  Workloads and metrics are
listed in BENCHMARK.json.  Every workload is a closed loop: one client in
one process, one op after another, with workers=1.

With --trace 0 the last stdout line holds the end-to-end metrics: setup_s,
the median set-up time (interpreter start, import, building the inputs) over
SETUP_REPEATS set-up-only processes and the measuring one; ops_per_s over
the timed loop; and peak_rss_mb of the measuring process.  Both times are
scaled to a reference machine speed (see calibrate.py).  Every op's output
is checked.  With --trace 1 a separate process replays a fixed number of
units untraced, traced and untraced again; its last line holds the
per-layer metrics, with the tracing overhead, and it also checks stdout
digests at two fixed seeds.
Lines before it give the machine facts and a summary that includes
fail_frac = failed / attempted.  --smoke shrinks every input, for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
KERNEL_BUDGET_S = 0.05  # per calibration sample, one before each set-up
CHILD_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def start_worker(args, workload: str, setup_only: bool):
    """Start a worker and wait for its "ready"; (set-up seconds, process)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc)
        fail(f"{workload}: worker exited during set-up (code {proc.returncode})")
    return setup_s, proc


def finish(proc) -> str:
    """The worker's remaining stdout; kills it if it overruns the timeout."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("worker timed out")
    return out


def run_workload(args, workload: str, spec: dict) -> dict:
    setups, kernel = [], []
    for n in range(SETUP_REPEATS + 1):  # the last process goes on to measure
        kernel.append(kernel_seconds(KERNEL_BUDGET_S))
        setup_s, proc = start_worker(args, workload, setup_only=n < SETUP_REPEATS)
        setups.append(setup_s)
        out = finish(proc)
        if proc.returncode != 0:
            fail(f"{workload}: worker exited with code {proc.returncode}")
    child = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values = child["layers"]
        metrics = spec["per_layer"]
    else:
        setup_s = statistics.median(setups) * REFERENCE_S / statistics.mean(kernel)
        values = {"setup_s": setup_s, "ops_per_s": child["ops_per_s"],
                  "peak_rss_mb": child["peak_rss_mb"]}
        metrics = spec["end_to_end"]
    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        summary = (f"tracing overhead {values['trace.overhead_ms']:.6g} ms on "
                   f"{values['trace.untraced_ms']:.6g} ms untraced")
    else:
        summary = " ".join(f"{m['name']}={values[m['name']]:.6g} {m['unit']}"
                           for m in metrics)
        summary += f" ({child['raw_ops_per_s']:.6g} ops/s unscaled)"
    print("machine: " + json.dumps(child["machine"]))
    print(f"{workload} seed={args.seed} trace={args.trace}: {summary} "
          f"fail_frac={failed / attempted:.6g} ({failed}/{attempted} ops failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "kneserlab" / "__init__.py").is_file():
        fail(f"no kneserlab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}, all")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for workload in names if args.workload == "all" else [args.workload]:
        print(json.dumps(run_workload(args, workload, spec)), flush=True)


if __name__ == "__main__":
    main()
