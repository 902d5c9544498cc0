"""The prefixcircuits benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

It imports the library from src/ next to this directory; there is nothing to
build. The seed draws the workload's job list (jobs.py), which one process
with one thread runs in passes until --seconds are spent, checking every
output against answers that do not come from the code under test. Timings
are wall-clock on a shared, unpinned machine.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer sums of the
traced ones plus trace.overhead_s. Each metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The run record, with the environment and,
when traced, every span, is written to .perfbench_out/. Exits 1 if any job's
output is wrong or no mutant was rejected, 2 if the library cannot be
imported from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter
from importlib.metadata import PackageNotFoundError, version
from importlib.util import find_spec
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 4
SETUP_PROBES = 7
TAIL_RUNGS = (99, 90, 75, 50)


def percentile(sorted_samples, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    k = (len(sorted_samples) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_samples) - 1)
    return sorted_samples[lo] + (sorted_samples[hi] - sorted_samples[lo]) * (k - lo)


def tail_rank(count):
    """The highest rung percentile with at least ten of `count` samples beyond
    it, or None."""
    for p in TAIL_RUNGS:
        if count - -(-count * p // 100) >= 10:
            return p
    return None


def _version(package):
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed):
    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "note": "wall-clock, shared and unpinned sandbox",
    }


def setup_times():
    """Seconds to import the library and call every layer once, in fresh
    processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_passes(jobs, job_list, checker, seconds, trace):
    """Passes over the job list until the next would end past `seconds`;
    with `trace`, every second pass is traced."""
    passes = []
    start = perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(jobs.run_pass(job_list, checker, traced))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(passes, setup, rung):
    wall = median(p.wall_s for p in passes)
    samples = sorted(s for p in passes for s in p.job_s)
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "gates_per_s": (passes[0].counts["gates"] / wall, "gates/s"),
        "job_p50_ms": (1e3 * percentile(samples, 50), "ms"),
        "job_tail_ms": (1e3 * percentile(samples, rung), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(jobs, passes):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    sums, calls = [], []
    for p in traced:
        s, c = Counter(), Counter()
        for name, start, end, _, _ in p.spans:
            s[name] += end - start
            c[name] += 1
        sums.append(s)
        calls.append(c)
    metrics = {}
    for name in jobs.LAYER_SPANS:
        metrics[f"{name}_s"] = (median(s[name] for s in sums), "s")
        metrics[f"{name}_calls"] = (median_low(c[name] for c in calls), "count")
    for name in jobs.LAYER_COUNTS:
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = (median_low(p.counts[name] for p in traced), unit)
    overhead = median(p.wall_s for p in traced) - median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        import jobs
    except ImportError as e:
        print(f"error: cannot import the library from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    if not Path(jobs.core.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {jobs.core.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(jobs.WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    setup = [] if args.trace else setup_times()
    job_list = jobs.make_jobs(args.workload, args.seed)
    rung = tail_rank(len(job_list) * MIN_PASSES)
    checker = jobs.Checker()
    jobs.run_pass([jobs.TOUCH], checker)  # first calls, before any timing
    checker.rejects = 0
    passes = run_passes(jobs, job_list, checker, args.seconds, args.trace)

    metrics = per_layer(jobs, passes) if args.trace else end_to_end(passes, setup, rung)
    failures = [(i, f) for i, p in enumerate(passes) for f in p.failures]
    attempted = len(job_list) * len(passes)
    correct = not failures and checker.rejects > 0

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes of "
          f"{len(job_list)} jobs, {len(failures)} failed, {checker.rejects} mutants "
          f"rejected; job_tail_ms is p{rung} of {attempted - len(failures)} samples")
    print("# env " + json.dumps(env))
    for i, (job, message) in failures[:10]:
        print(f"pass {i} job {job}: {message}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "jobs": len(p.job_s),
                    "failures": p.failures} for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": [[i, *span] for i, p in enumerate(passes) for span in p.spans],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
