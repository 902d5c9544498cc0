"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jobs
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_seed_fixes_the_job_list(workload):
    assert jobs.make_jobs(workload, 7) == jobs.make_jobs(workload, 7)
    assert jobs.make_jobs(workload, 7) != jobs.make_jobs(workload, 8)
    assert run.tail_rank(len(jobs.make_jobs(workload, 7)) * run.MIN_PASSES)


def test_tail_rank_keeps_ten_samples_beyond():
    assert [run.tail_rank(c) for c in (1000, 999, 100, 99, 40, 39, 20, 19)] == \
        [99, 90, 90, 75, 75, 50, 50, None]
    for count in range(1, 2000):
        p = run.tail_rank(count)
        if p is not None:
            samples = list(range(count))
            assert sum(s > run.percentile(samples, p) for s in samples) >= 10


def test_percentile_matches_numpy():
    samples = sorted(np.random.default_rng(0).exponential(size=101).tolist())
    for p in (50, 75, 90, 99):
        assert run.percentile(samples, p) == pytest.approx(np.percentile(samples, p))


def _bump(field):
    def wrap(real):
        def wrong(*args, **kwargs):
            out = real(*args, **kwargs)
            return dataclasses.replace(out, **{field: getattr(out, field) + 1})
        return wrong
    return wrap


WRONG_ANSWERS = [  # (workload, kind, module, function, wrapper)
    ("sweep_small", "circuit", jobs.core, "metrics", _bump("depth")),
    ("sweep_small", "mutant", jobs.core, "validate_prefix", lambda real: lambda c: True),
    ("sweep_small", "evaluate", jobs.core, "evaluate",
     lambda real: lambda c, xs, op: real(c, xs, lambda a, b: op(b, a))),
    ("sweep_small", "edges", jobs.kronecker, "level_edges",
     lambda real: lambda *args: real(*args)[1:]),
    ("adder_resources", "estimate", jobs.qadder, "estimate_resources",
     _bump("toffoli_count")),
    ("adder_verify", "verify_mutant", jobs.qadder, "verify_adder",
     lambda real: lambda *args, **kwargs: dataclasses.replace(
         real(*args, **kwargs), ok=True)),
]


@pytest.mark.parametrize("workload, kind, module, name, wrap", WRONG_ANSWERS)
def test_wrong_answer_counts_as_error(monkeypatch, workload, kind, module, name, wrap):
    job_list = [job for job in jobs.make_jobs(workload, 7) if job[0] == kind or (
        kind == "evaluate" and job[0] == "circuit" and job[1]["evaluate"] is not None)]
    job_list = job_list[:20]
    checker = jobs.Checker()
    assert job_list and not jobs.run_pass(job_list, checker).failures
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    assert len(jobs.run_pass(job_list, checker).failures) == len(job_list)


def test_roundtrip_change_counts_as_error(monkeypatch):
    job = next(job for job in jobs.TOUCH[1]["jobs"] if job[0] == "roundtrip")
    monkeypatch.setattr(jobs.serialization, "import_json",
                        lambda text: jobs.classic.serial(json.loads(text)["n"]))
    assert jobs.run_pass([job], jobs.Checker()).failures


@pytest.mark.parametrize("workload", ["sweep_small", "adder_verify"])
def test_tracing_changes_no_work(workload):
    job_list = [job for job in jobs.make_jobs(workload, 7)
                if job[1].get("n", 0) <= 256][:400]
    checker = jobs.Checker()
    plain = jobs.run_pass(job_list, checker)
    traced = jobs.run_pass(job_list, checker, traced=True)
    assert not plain.failures and not traced.failures
    assert len(plain.job_s) == len(traced.job_s) == len(job_list)
    assert plain.counts == traced.counts and plain.counts["gates"] > 0
    assert not plain.spans
    job_spans = [span for span in traced.spans if span[0].startswith("job.")]
    assert [span[4] for span in job_spans] == list(range(len(job_list)))
    for name, start, end, parent, job in traced.spans:
        if parent is not None:
            _, job_start, job_end, _, parent_job = traced.spans[parent]
            assert parent_job == job and job_start <= start <= end <= job_end


def test_per_layer_names_match_the_spec():
    job_list = [jobs.TOUCH, ("cli", {"argv": ["check-kron", "--max-dim", "3"]})]
    checker = jobs.Checker()
    passes = [jobs.run_pass(job_list, checker, traced) for traced in (False, True)]
    metrics = run.per_layer(jobs, passes)
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(value > 0 for name, (value, _) in metrics.items()
               if name != "trace.overhead_s")


def test_command_reports_every_metric_and_fails_on_errors(monkeypatch, capsys):
    assert run.main(["--workload", "sweep_small", "--seed", "3", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    monkeypatch.setattr(jobs.core, "metrics", _bump("size")(jobs.core.metrics))
    assert run.main(["--workload", "sweep_small", "--seed", "3", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "sweep_small", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and '"correct"' not in done.stdout
