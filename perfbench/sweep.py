"""``sweep``: the figure-5 smoke job list through the process-pool runtime.

Why this workload: it is the only one that exercises ``repro.runtime``.
One round runs ``repro.experiments.figure5.build_jobs("smoke")`` (24 tune
jobs) through ``Runtime(jobs=nproc).run`` with a fresh cache directory,
so no job is a cache hit.  A change to the execution paths (the pool,
the queue, the cache) must not slow it down.  The job list is the
figure's own and does not depend on the run's seed: its jobs already
span three training sizes, two grids and three ranks, and a fixed list
keeps the wall time of a 2-worker pool (set by how the jobs pack onto
the workers) the same from seed to seed.

Layers inside a job run in the pool's worker processes.  In a traced
round the parent replaces ``repro.runtime.executor.retry_call`` (which
``_run_one`` looks up in the worker) by a wrapper that, inside the
worker, installs the fit-path patches around the job, counts retries
and writes the job's per-layer aggregate to a file the parent sums.
This relies on the pool forking its workers from the parent, which is
the default start method on Linux.
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench import layers, spans
from perfbench.common import Workload, median, nproc, peak_rss_mb_children


def _job_tracer(original, trace_dir: str):
    """``retry_call`` replacement that traces one job inside a worker."""

    def traced_retry_call(fn, **kwargs):
        rec = spans.Recorder().install(layers.completion_table())
        retries = []
        outer = kwargs.pop("on_retry", None)

        def on_retry(*args):
            retries.append(1)
            if outer is not None:
                outer(*args)

        try:
            with rec.span("runtime.job", request=f"{os.getpid()}:{time.monotonic_ns()}"):
                result = original(fn, on_retry=on_retry, **kwargs)
        finally:
            rec.unpatch()
            payload = {
                "agg": spans.aggregate(rec.spans),
                "counters": rec.counters,
                "retries": len(retries),
            }
            fd, tmp = tempfile.mkstemp(dir=trace_dir, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, tmp[: -len(".tmp")] + ".json")
        return result

    return traced_retry_call


def canonical_records(records) -> str:
    """Records as canonical JSON, without the per-grid-point fit times.

    Each ``results`` row of a tune record ends in the wall-clock seconds
    that configuration took to fit: the one run-dependent field (the
    repository's own sequential-vs-parallel checks drop it too).
    Everything else must be byte-identical.
    """
    norm = []
    for rec in records:
        rec = dict(rec)
        if "results" in rec:
            rec["results"] = [row[:3] for row in rec["results"]]
        norm.append(rec)
    return json.dumps(norm, sort_keys=True, separators=(",", ":"))


class Sweep(Workload):
    name = "sweep"
    why = (
        "figure5 smoke job list (24 tune jobs) through Runtime(jobs=nproc) "
        "with a fresh cache each round; the only workload on repro.runtime"
    )
    root = "runtime.job"
    SIZE = {"n_jobs": None, "jobs": None}

    def setup(self) -> None:
        from repro.experiments.figure5 import build_jobs
        from repro.runtime import Runtime

        specs = build_jobs("smoke")
        if self.size["n_jobs"] is not None:
            specs = specs[: self.size["n_jobs"]]
        self.specs = specs
        self.jobs = self.size["jobs"] or nproc()
        # Warm-up: two jobs through a pool into a throwaway cache.  The
        # parent runs no job itself, so forked workers inherit no warm
        # dataset cache from it.
        with tempfile.TemporaryDirectory() as cache:
            Runtime(jobs=self.jobs, cache_dir=cache).run(specs[:2])

    def table(self) -> list:
        from repro.runtime.cache import ResultCache

        return [(ResultCache, "put", "runtime.cache_put")]

    def round(self, rec, mode: str, index: int) -> dict:
        from repro.runtime import Runtime, executor

        # The pool's workers use every CPU: sample the probe on each CPU
        # before the round, while nothing else runs.
        if self.probe is not None:
            self.probe.sample_every_cpu(passes=8)
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = Path(tmp) / "cache"
            trace_dir = Path(tmp) / "trace"
            trace_dir.mkdir()
            runtime = Runtime(jobs=self.jobs, cache_dir=cache_dir)
            original = executor.retry_call
            if rec is not None:
                executor.retry_call = _job_tracer(original, str(trace_dir))
            try:
                t0 = time.perf_counter()
                records = runtime.run(self.specs)
                wall = time.perf_counter() - t0
            finally:
                executor.retry_call = original
            job_s = [
                json.loads(p.read_text())["elapsed_seconds"]
                for p in sorted(cache_dir.glob("*/*.json"))
            ]
            out = {
                "wall_s": wall,
                "attempted": len(self.specs),
                "failed": len(self.specs) - runtime.executed - runtime.hits,
                "records": canonical_records(records),
                "job_s": job_s,
                "executed": runtime.executed,
                "hits": runtime.hits,
                "best_errors": [r["best_error"] for r in records if r],
            }
            if rec is not None:
                payloads = [
                    json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))
                ]
                out["child_agg"] = spans.merge(p["agg"] for p in payloads)
                out["child_counters"] = {}
                for p in payloads:
                    for k, v in p["counters"].items():
                        out["child_counters"][k] = out["child_counters"].get(k, 0) + v
                out["retries"] = sum(p["retries"] for p in payloads)
        return out

    def e2e(self, rounds: list) -> dict:
        # Jobs differ in size, so a percentile of the pooled job times
        # would sit between two jobs and jump between them: each job's
        # median over the rounds is taken first.  ``job_s`` lists the
        # jobs in cache-key order, the same in every round.
        # The tail is the mean of the slowest tenth of the jobs: the p90
        # of 24 values would interpolate between two particular jobs.
        job_ms = [1e3 * median(times) for times in zip(*(r["job_s"] for r in rounds))]
        slowest = sorted(job_ms)[-max(1, len(job_ms) // 10) :]
        return {
            "p50_ms": float(np.mean(job_ms)),
            "tail_ms": float(np.mean(slowest)),
            "throughput": len(self.specs) / median([r["wall_s"] for r in rounds]),
            "mlogq": median([e for r in rounds for e in r["best_errors"]]),
            "peak_rss_mb": peak_rss_mb_children(),
        }

    def layer(self, traced: list) -> dict:
        per_round = []
        for r in traced:
            job_s = sum(r["job_s"])
            per_round.append(
                {
                    "runtime.job_s": job_s,
                    "runtime.efficiency": job_s / (self.jobs * r["wall_s"]),
                    "runtime.executed": r["executed"],
                    "runtime.hits": r["hits"],
                    "runtime.retries": r["retries"],
                    **layers.counter_metrics(r["child_counters"]),
                }
            )
        return {k: median([m[k] for m in per_round]) for k in per_round[0]}

    def check(self, rounds: list) -> list:
        from repro.runtime import Runtime

        failures = []
        for r in rounds:
            if r["executed"] != len(self.specs) or r["hits"] != 0:
                failures.append(
                    f"sweep: executed={r['executed']} hits={r['hits']}, "
                    f"want executed={len(self.specs)} hits=0"
                )
        with tempfile.TemporaryDirectory() as cache:
            reference = canonical_records(Runtime(jobs=1, cache_dir=cache).run(self.specs))
        failures += check_records([r["records"] for r in rounds], reference)
        return failures

    def report(self, rounds: list) -> list:
        walls = [r["wall_s"] for r in rounds]
        return [("sweep_s", median(walls), f"s (median of {len(walls)} sweeps)")]


def check_records(runs: list, reference: str) -> list:
    """Each run's records must be byte-identical to the jobs=1 reference."""
    return [
        f"sweep: round {i} records differ from the Runtime(jobs=1) run"
        for i, records in enumerate(runs)
        if records != reference
    ]
