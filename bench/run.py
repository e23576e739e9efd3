"""Benchmark of the induced-decomp package: CLI and library jobs, end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload blowup-verify --seed 1 --seconds 20 --trace 0

Workloads: blowup-verify, dense-sweep, oracle-search, designs-large (see
jobs.py and spec.json).  The run starts a fresh single-threaded worker
process with the package on its path, which runs closed-loop,
back-to-back jobs in whole passes until --seconds have passed, then
checks every artifact independently and compares artifact digests with
the other passes and with earlier runs of the same source.  Set-up time
is the median of several fresh processes that import the package and
build the inputs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced pass with --trace 1.  The exit code
is 1 when an output check or the determinism check fails, 2 when the
package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 160


def worker_env() -> dict[str, str]:
    """Environment for worker processes: the checkout's package, one BLAS
    thread, and no budget override from the caller's environment."""
    env = {k: v for k, v in os.environ.items() if k != "INDUCED_DECOMP_BUDGET_NODES"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def setup_seconds(args, env) -> float:
    """Process start to first job ready: interpreter, imports and inputs."""
    command = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        probe = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise RuntimeError(f"set-up probe exited with {probe.returncode}")
        samples.append(float(probe.stdout.split()[-1]) - start)
    return statistics.median(samples)


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def report(result: dict, workload: str) -> None:
    walls = ", ".join(f"{w:.3f}" for w in result["pass_seconds"])
    print(f"workload {workload}: {result['jobs_per_pass']} jobs per pass, passes of {walls} s")
    print("outcomes " + " ".join(f"{k}={v}" for k, v in result["outcomes"].items()))
    print(
        f"job_tail_s is p{result['tail_percentile']} of the {result['jobs_per_pass']} jobs' "
        f"median scaled times over {result['passes']} passes"
    )
    print(
        f"speed probe median {result['probe_median_s']:.5f} s (times are scaled to "
        f"{result['reference_probe_s']} s); unscaled jobs_per_s {result['raw_jobs_per_s']:.3f}"
    )
    for seconds, key in result["slowest"]:
        print(f"slow job {seconds:.3f} s {key}")
    for key in sorted(result["digests"]):
        print(f"digest {result['digests'][key]} {key}")
    for key in result["nondeterministic"]:
        print(f"NONDETERMINISTIC within run: {key}")
    for key in result["ledger_mismatch"]:
        print(f"NONDETERMINISTIC against an earlier run of the same source: {key}")
    for error in result["errors"]:
        sys.stderr.write(error + "\n")
    for name in result.get("missing_spans", ()):
        sys.stderr.write(f"trace: span target {name} not found, skipped\n")
    for layer, share in sorted(result.get("layer_shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"layer {layer}: {share:.1%} of the traced pass (self time)")
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "induced_decomp" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    try:
        setup_s = setup_seconds(args, env)
        worker = subprocess.run(
            [
                sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--run-dir", str(run_dir),
            ],
            env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        )
        if worker.returncode != 0:
            print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report(result, args.workload)
    values = result["layers"] if args.trace else dict(result, setup_s=setup_s)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units(section).items()
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
