"""Cold-process benchmark of quandlekit's verification engine.

    python3 perfbench/run.py --workload census-catalog --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout; the package is loaded from ``src``.
Every batch runs in a fresh Python process, one at a time, with one
numpy/BLAS thread, so the module caches of quandlekit start cold as they do
for every CLI call.  Batches repeat on the seed's inputs until the next one
would overrun ``--seconds``; at least one always runs.  Setup time is also
sampled by processes that stop after setup.

Every time metric is in nominal seconds: wall time scaled by the machine
speed that ``speed.SpeedProbe`` samples while the batch runs.  The details
line also gives the raw times.

``--trace 0`` prints the end-to-end metrics (medians over batches).
``--trace 1`` runs traced batches only and prints the per-layer metrics of
the one with the median wall time; the per-layer times are raw.  Spans and
full results go to ``.perfbench-out/`` in the checkout.

The last line of stdout is the result; the line before it holds the
details: provenance, per-batch figures and any failed output checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("census-catalog", "h3-maps", "quandle-enum")
SETUP_PROBES = 15
DEADLINE_S = 170.0  # every run ends well within three minutes

# One thread per process: the box has two cores and the benchmark loads one.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs of each workload, for the benchmark's own tests")
    return p.parse_args(argv)


class ChildFailed(RuntimeError):
    pass


def run_child(args, kind: str, traced: bool, batch: int, started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 1:
        raise ChildFailed("out of time before the batch could start")
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-batch{batch}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), kind, str(args.seed),
           repr(time.monotonic()), "1" if traced else "0", "1" if args.tiny else "0", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{kind} batch passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{kind} batch exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 100


def percentile(values, p: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def measure(args) -> tuple:
    """Run the setup probes and the batches; returns (setup samples, batches)."""
    started = time.monotonic()
    setups = [run_child(args, "setup", False, 0, started) for _ in range(SETUP_PROBES)]
    batches, durations = [], []
    while True:
        t0 = time.monotonic()
        batch = run_child(args, args.workload, bool(args.trace), len(batches), started)
        durations.append(time.monotonic() - t0)
        batches.append(batch)
        setups.append(batch)
        elapsed = time.monotonic() - started
        if elapsed + statistics.median(durations) > args.seconds:
            break
    return setups, batches


def median_batch(batches: list) -> dict:
    """The batch with the median wall time (the lower one for an even count)."""
    ordered = sorted(batches, key=lambda b: b["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def summarize(args, setups, batches) -> tuple:
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    # The percentile is fixed by one batch's sample count; pooling the batches
    # only adds samples beyond it.
    per_batch = len(batches[0]["unit_ms"])
    p_tail = tail_percentile(per_batch)
    pooled = [x for b in batches for x in b["unit_nominal_ms"]]
    pooled_raw = [x for b in batches for x in b["unit_ms"]]
    if args.trace:
        layers = median_batch(batches)["layers"]
        metric = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                  for name, value in layers.items()}
    else:
        metric = {
            "wall_s": {"value": statistics.median(b["wall_nominal_s"] for b in batches),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_nominal_s"] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(b["peak_rss_mb"] for b in batches),
                            "unit": "MB"},
            "unit_p50_ms": {"value": statistics.median(pooled), "unit": "ms"},
            "unit_tail_ms": {"value": percentile(pooled, p_tail), "unit": "ms"},
        }
    details = {
        "provenance": {
            **batches[0]["versions"],
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "seed": args.seed,
            "workload": args.workload,
            "caps": batches[0]["caps"],
        },
        "batches": len(batches),
        "traced": bool(args.trace),
        "nominal_wall_s": [b["wall_nominal_s"] for b in batches],
        "raw_wall_s": [b["wall_s"] for b in batches],
        "nominal_setup_s": [s["setup_nominal_s"] for s in setups],
        "raw_setup_s": [s["setup_s"] for s in setups],
        "raw_unit_p50_ms": statistics.median(pooled_raw),
        "raw_unit_tail_ms": percentile(pooled_raw, p_tail),
        "unit_samples_per_batch": per_batch,
        "unit_samples": len(pooled),
        "unit_tail_percentile": p_tail,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": [p for b in batches for p in b["problems"]][:20],
    }
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metric}
    return details, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quandlekit" / "__init__.py").is_file():
        print(f"error: no quandlekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups, batches = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details, result = summarize(args, setups, batches)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
