"""One benchmark run in a fresh process: timed passes, then output checks.

run.py starts this with a clean environment; it is not meant to be run
by hand.  Each pass clears the package's caches first, so every pass
does the same work from the same cold start a CLI call has.  A run makes
whole passes until --seconds have passed, and at least MIN_PASSES.

Two things steady the job times.  Before each job, outside its timing,
the cyclic garbage collector runs and freezes what survives, so a job's
own collections cost the same whatever ran before it (the seed reorders
the jobs).  And a fixed pure-Python probe, which calls nothing of the
package, is timed right before each job: the speed of a shared machine
swings by up to 1.6x within a second and by more between runs, in CPU
time as well as wall time, and a job's time is scaled by
REFERENCE_PROBE_S over the median probe time around it.  The scaled
times are seconds at the machine speed that gave REFERENCE_PROBE_S; the
raw wall times are printed beside them.  A job's time is its median over
the passes.

With --trace 1 the run makes one untraced pass and then one traced pass
of the same jobs; the difference of their wall times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import jobs
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
# Every timing is a median of at least this many passes.
MIN_PASSES = 3
# Median time of speed_probe() on the machine of spec.json's trajectory[0]
# (2-vCPU Xeon VM, Python 3.11.7).  A constant: changing it rescales every
# time metric.
REFERENCE_PROBE_S = 0.007
# Probes on each side of a job that enter the median it is scaled by.
PROBE_HALF_WINDOW = 2


def speed_probe() -> int:
    """A fixed few milliseconds of allocation, hashing, sorting and JSON
    encoding, the kinds of work the package's jobs do, without the package."""
    rows = [(i * 7919 % 10007, str(i)) for i in range(6000)]
    index = {key: text for key, text in rows}
    total = sum(len(index[i * 31 % 10007]) for i in range(6000) if i * 31 % 10007 in index)
    return total + len(json.dumps(sorted(rows)[:2000]))


def cache_clearers() -> list:
    """cache_clear of every lru_cache in the package, found by inspection."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "induced_decomp" or name.startswith("induced_decomp."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value.cache_clear
    return list(found.values())


def source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.run_dir = run_dir
        self.groups = jobs.build(workload, seed)
        self.jobs = [job for group in self.groups for job in group]
        self.clearers = cache_clearers()
        self.records: list[dict] = []
        self.artifacts: dict[str, Path | bytes] = {}
        self.errors: list[str] = []

    def one_pass(self, index: int, tracer: tracing.Tracer | None = None) -> float:
        """Run every job once, back to back, clearing the package's caches
        before each group; return the summed job time."""
        workdir = self.run_dir / f"pass{index}"
        workdir.mkdir()
        wall = 0.0
        job_id = -1
        for group in self.groups:
            for clear in self.clearers:
                clear()
            for job in group:
                job_id += 1
                wall += self._one_job(job, job_id, workdir, index, tracer)
        gc.unfreeze()
        if index > 0:
            shutil.rmtree(workdir)
        return wall

    def _one_job(self, job, job_id: int, workdir: Path, index: int, tracer) -> float:
        """Run one job and record its time, probe time, outcome and artifact digest."""
        gc.collect()
        gc.freeze()
        t0 = perf_counter()
        speed_probe()
        probe = perf_counter() - t0
        t0 = perf_counter()
        try:
            if tracer is None:
                outcome, artifact = jobs.run(job, workdir)
            else:
                tracer.current_job = job_id
                with tracer.span(f"bench.{job.kind}"):
                    outcome, artifact = jobs.run(job, workdir)
        except Exception:
            outcome, artifact = jobs.CRASH, None
            self.errors.append(f"{job.key}: {traceback.format_exc()}")
        seconds = perf_counter() - t0
        data = artifact.read_bytes() if isinstance(artifact, Path) else artifact
        if tracer is not None and isinstance(artifact, Path):  # a file the CLI wrote
            tracer.count["cli.artifact_bytes"] += len(data)
        self.records.append({
            "key": job.key,
            "pass": index,
            "seconds": seconds,
            "probe": probe,
            "outcome": outcome,
            "digest": hashlib.sha256(data or outcome.encode()).hexdigest(),
        })
        if index == 0 and artifact is not None:
            self.artifacts[job.key] = artifact
        return seconds

    def check(self) -> tuple[dict[str, str], dict[str, float]]:
        """Final outcome and missing pair fraction per artifact key."""
        checker = jobs.Checker(self.artifacts)
        first = {r["key"]: r for r in reversed(self.records)}
        final: dict[str, str] = {}
        frac: dict[str, float] = {}
        for job in self.jobs:
            outcome, value = first[job.key]["outcome"], None
            if outcome == jobs.OK:
                try:
                    outcome, value = checker.check(job)
                except Exception as exc:  # a malformed artifact is a wrong output
                    outcome = jobs.WRONG
                    self.errors.append(f"{job.key}: check failed: {exc!r}")
            final[job.key] = outcome
            if job.hosted:
                frac[job.key] = 1.0 if value is None else value
        return final, frac

    def digests(self) -> tuple[dict[str, str], list[str]]:
        """Artifact digests, and the keys whose bytes differed between passes."""
        seen: dict[str, str] = {}
        unstable = []
        for r in self.records:
            if seen.setdefault(r["key"], r["digest"]) != r["digest"] and r["key"] not in unstable:
                unstable.append(r["key"])
        return seen, unstable


def compare_ledger(digests: dict[str, str]) -> list[str]:
    """Check digests against earlier runs of the same source, then record them."""
    ledger_path = ROOT / ".bench_out" / f"digests-{source_digest()[:16]}.json"
    ledger_path.parent.mkdir(exist_ok=True)
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    differing = [k for k, d in digests.items() if ledger.get(k, d) != d]
    ledger.update(digests)
    tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=0, sort_keys=True))
    os.replace(tmp, ledger_path)
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.run_dir or Path("."))
    if args.setup_only:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    result: dict = {"tail_percentile": stats.tail_percentile(len(run.jobs))}
    if args.trace:
        # Pass 0 absorbs first-pass costs (heap growth, lazy imports), so the
        # traced pass is compared with a warm untraced one.
        walls = [run.one_pass(0)]
        untraced = run.one_pass(1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.one_pass(2, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = traced - untraced
        result["layers"] = layers
        result["layer_shares"] = {
            layer: seconds / traced for layer, seconds in tracer.layer_self_times().items()
        }
        result["missing_spans"] = tracer.missing
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        walls = []
        start = perf_counter()
        while len(walls) < MIN_PASSES or perf_counter() - start < args.seconds:
            walls.append(run.one_pass(len(walls)))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    final, frac = run.check()
    digests, unstable = run.digests()
    differing = compare_ledger(digests)
    records = [r for r in run.records if r["pass"] < len(walls)]  # timed, untraced passes
    outcomes = [
        jobs.WRONG if r["key"] in unstable or r["key"] in differing else
        final[r["key"]] if r["outcome"] == jobs.OK else r["outcome"]
        for r in records
    ]
    by_key: dict[str, list[float]] = {}
    for index in range(len(walls)):
        in_pass = [r for r in records if r["pass"] == index]
        scaled = stats.scaled(
            [r["seconds"] for r in in_pass], [r["probe"] for r in in_pass],
            REFERENCE_PROBE_S, PROBE_HALF_WINDOW,
        )
        for r, seconds in zip(in_pass, scaled):
            by_key.setdefault(r["key"], []).append(seconds)
    job_seconds = {key: statistics.median(times) for key, times in by_key.items()}
    hosted = [frac[r["key"]] for r in records if r["key"] in frac]
    result.update({
        "passes": len(walls),
        "pass_seconds": walls,
        "jobs_per_pass": len(run.jobs),
        "outcomes": {o: outcomes.count(o) for o in jobs.OUTCOMES},
        "attempted": len(records),
        "failed": sum(outcomes.count(o) for o in jobs.FAILED),
        "jobs_per_s": len(records) / sum(sum(times) for times in by_key.values()),
        "raw_jobs_per_s": len(records) / sum(walls),
        "probe_median_s": statistics.median(r["probe"] for r in records),
        "reference_probe_s": REFERENCE_PROBE_S,
        "job_p50_s": statistics.median(job_seconds.values()),
        "job_tail_s": stats.percentile(list(job_seconds.values()), result["tail_percentile"]),
        "ok_ratio": outcomes.count(jobs.OK) / len(records),
        "missing_pair_frac": statistics.fmean(hosted) if hosted else 0.0,
        "digests": digests,
        "nondeterministic": unstable,
        "ledger_mismatch": differing,
        "errors": run.errors,
        "slowest": sorted(((t, key) for key, t in job_seconds.items()), reverse=True)[:8],
    })
    result["correct"] = not (
        unstable or differing or result["outcomes"][jobs.WRONG] or result["outcomes"][jobs.CRASH]
    )
    (run.run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
