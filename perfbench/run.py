"""One benchmark for the fit, sweep, serve and stream paths of ``repro``.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fit --seed 0 --seconds 20 --trace 0

Each run sets up its workload several times (the median is ``setup_s``),
then repeats fixed rounds of work derived from ``--seed`` until
``--seconds`` have passed, checks the outputs, and prints one line per
metric followed by a JSON summary as the last line of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``failed / attempted`` is the run's failure ratio: operations that
raised, were refused (HTTP 503/504, ``ok: false``) or answered wrongly.
A failed correctness check makes ``correct`` false and the exit code 1.

With ``--trace 0`` the metrics are the end-to-end ones (:data:`E2E`),
measured with no tracing.  With ``--trace 1`` untraced and traced rounds
alternate; the traced rounds patch each layer's public callables (see
``layers.py``) and the metrics are the per-layer ones, plus
``trace.coverage`` (Σ layer self time ÷ the root span's time) and
``trace.overhead`` (median traced round ÷ median untraced round − 1).

Every run reports every end-to-end metric, so the metrics are defined
for each workload's own unit of work:

===========  ====================  ===================  =================  ==================
metric       fit                   sweep                serve              stream
===========  ====================  ===================  =================  ==================
p50_ms       ``CPRModel.fit``,     one job (its         one 1-row          one ``observe``
             mean of the six       ``ResultCache``      request            batch
             cases' medians        time), mean of the   (client), median   median
                                   24 jobs' medians
tail_ms      p90 of the cases'     mean of the slowest  p90 of the same    p90 of the same
             median fit times      tenth of the jobs'
                                   median times
throughput   held-out rows/s of    jobs/s: 24 ÷         rows answered/s    rows absorbed/s
             ``predict``           median sweep wall
mlogq        median held-out       median best_error    of the HTTP        mean prequential
             MLogQ of the fits     of the 24 jobs       answers            batch MLogQ
peak_rss_mb  this process          pool workers         the fleet worker   this process
===========  ====================  ===================  =================  ==================

Each workload's figures in its own terms (``fit_s``, ``sweep_s``,
``serve_point_p99_ms``, ``stream_batch_p90_ms``, ...) are printed as
extra lines of an untraced run, before the JSON summary.

The host this runs on is shared, and its speed drifts by tens of
percent over minutes.  The CPU-bound workloads (fit, sweep, stream)
therefore time a fixed numpy kernel between their operations
(``SpeedProbe``) and report ``setup_s``, ``p50_ms``, ``tail_ms`` and
``throughput`` scaled to a reference speed; the printed extra lines are
as measured.  The serve workload is not scaled: its request latency is
dominated by the TCP stack's delayed-ACK timer, which host speed does
not move.

The environment is pinned identically for every run: BLAS and OpenMP
use one thread, temporary files and the kernel-calibration sidecar live
in the run's own directory under ``perfbench/_runs/``, and no kernel
backend is forced.  The run prints what it pinned and resolved.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``(name, unit)`` of every end-to-end metric.
E2E = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput", "1/s"),
    ("mlogq", "mlogq"),
    ("peak_rss_mb", "MB"),
]

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 3

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment(rundir: Path) -> None:
    """Pin threads and per-run paths before numpy or repro is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tmp = rundir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["REPRO_KERNEL_CALIBRATION"] = str(rundir / "kernel_calibration.json")
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    # Import the benchmark as the ``perfbench`` package, not as loose
    # top-level modules from the script's directory.
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        del sys.path[0]
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment() -> dict:
    import numpy as np

    from repro.core.completion.backends import resolve_backend
    from perfbench.common import nproc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "kernel_backend": resolve_backend().name,
    }


def workloads() -> dict:
    from perfbench.fit import Fit
    from perfbench.serve import Serve
    from perfbench.stream import Stream
    from perfbench.sweep import Sweep

    return {w.name: w for w in (Fit, Sweep, Serve, Stream)}


def traced_round(workload, index: int):
    """One round with the workload's layers patched; spans aggregated."""
    from perfbench import spans

    rec = spans.Recorder().install(workload.table())
    try:
        with rec.span("round"):
            r = workload.round(rec, "traced", index)
    finally:
        rec.unpatch()
    agg = spans.aggregate(rec.spans)
    if "child_agg" in r:
        agg = spans.merge([agg, r.pop("child_agg")])
    r["agg"] = agg
    r["counters"] = dict(rec.counters)
    r["recorder"] = rec
    return r


def per_layer(workload, untraced: list, traced: list) -> dict:
    from perfbench import layers, spans
    from perfbench.common import median

    per_round = []
    for r in traced:
        m = layers.self_time_metrics(r["agg"])
        m.update(layers.counter_metrics(r["counters"]))
        m["trace.coverage"] = spans.coverage(r["agg"], workload.root, ignore=("round",))
        per_round.append(m)
    out = {name: 0.0 for name, _ in layers.PER_LAYER}
    for name in {k for m in per_round for k in m}:
        out[name] = median([m.get(name, 0.0) for m in per_round])
    out.update(workload.layer(traced))

    def wall(r):
        return r.get("overhead_wall_s", r["wall_s"])

    out["trace.overhead"] = (
        median([wall(r) for r in traced]) / median([wall(r) for r in untraced]) - 1.0
    )
    return out


def run(workload, seconds: float, trace: bool, setups: int = N_SETUPS) -> dict:
    """Set up, measure, check, tear down; return the result and report lines."""
    from perfbench.common import SpeedProbe, median

    setup_s = []
    try:
        for i in range(setups):
            if i:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        rounds, traced = [], []
        if workload.scaled and not trace:
            workload.probe = SpeedProbe()
        t_start = time.perf_counter()
        while True:
            index = len(rounds)
            rounds.append(workload.round(None, "untraced" if trace else "e2e", index))
            if trace:
                traced.append(traced_round(workload, index))
            if time.perf_counter() - t_start >= seconds:
                break
        if trace:
            from perfbench.layers import PER_LAYER

            values = per_layer(workload, rounds, traced)
            metrics = {
                name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER
            }
        else:
            values = dict(workload.e2e(rounds), setup_s=median(setup_s))
            if workload.probe is not None:
                scale = workload.probe.scale()
                for name in ("setup_s", "p50_ms", "tail_ms"):
                    values[name] *= scale
                values["throughput"] /= scale
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
        report = workload.report(rounds)
        failures = workload.check(rounds + traced)
    finally:
        workload.teardown()
    every = rounds + traced
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every) + len(failures),
        "metrics": metrics,
        "failures": failures,
        "report": report,
        "setup_s": setup_s,
        "rounds": len(rounds),
        "probe": workload.probe,
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "sweep", "serve", "stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rundir = HERE / "_runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    pin_environment(rundir)
    try:
        env = environment()
        workload = workloads()[args.workload](args.seed, rundir)
        print(f"# perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# environment {json.dumps(env, sort_keys=True)}")
        print(f"# why: {workload.why}")
        result = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(rundir / "tmp", ignore_errors=True)

    if result["traced"]:
        result["traced"][0]["recorder"].dump(rundir / "spans.json.gz")
    print(f"# setup_s samples {[round(s, 4) for s in result['setup_s']]}, "
          f"rounds {result['rounds']}")
    probe = result["probe"]
    if probe is not None:
        from perfbench.common import median

        print(f"# speed probe: median {1e3 * median(probe.samples):.3f} ms over "
              f"{len(probe.samples)} passes; times scaled by {probe.scale():.4f}")
    for name, m in result["metrics"].items():
        print(f"{args.workload:7s} {name:28s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        for name, value, unit in result["report"]:
            print(f"{args.workload:7s} {name:28s} {value:14.6g} {unit}")
    for failure in result["failures"]:
        print(f"# CHECK FAILED: {failure}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
