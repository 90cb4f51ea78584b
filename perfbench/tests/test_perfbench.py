"""The benchmark's own tests: tiny runs of every workload.

Each workload runs at a tiny size, untraced and traced: every named
metric must come out with its unit, counts must repeat exactly from run
to run, and a deliberately perturbed output must trip the correctness
check.
"""
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.serve import check_answers  # noqa: E402
from perfbench.stream import probe_mismatch  # noqa: E402
from perfbench.sweep import check_records  # noqa: E402

TINY = {
    "fit": {"apps": ("amg",), "ranks": (2,), "n_train": 256, "n_test": 256, "cells": 4},
    "sweep": {"n_jobs": 2, "jobs": 2},
    "serve": {
        "n_train": 256,
        "rank": 2,
        "cells": 4,
        "batch_rows": 8,
        "requests_per_conn": 4,
    },
    "stream": {"batches": 6, "batch": 16, "probe": 8, "warm_batches": 2},
}

COUNTS = {
    "fit": ("completion.sweeps", "completion.mode_updates", "completion.nnz"),
    "sweep": ("completion.sweeps", "completion.mode_updates", "runtime.executed"),
    "serve": ("serve.requests", "interp.corners_per_row"),
    "stream": (
        "stream.publishes",
        "stream.fits",
        "stream.partials",
        "stream.refits_drift",
        "stream.refits_domain",
        "completion.sweeps",
    ),
}


@pytest.fixture(autouse=True)
def _isolated_calibration(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(tmp_path / "calibration.json"))
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)


def tiny_run(name, tmp_path, trace, seed=0):
    workload = bench.workloads()[name](seed, tmp_path, size=TINY[name])
    return bench.run(workload, seconds=0, trace=trace, setups=1)


def needs_fleet(name):
    if name != "serve":
        return
    from repro.serve import shm_store

    if not (hasattr(os, "fork") and shm_store.shared_memory_available()):
        pytest.skip("the serve workload needs fork")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    by_name = bench.workloads()
    assert [w["name"] for w in spec["workloads"]] == list(by_name)
    for w in spec["workloads"]:
        assert w["why"] == by_name[w["name"]].why


@pytest.mark.parametrize("name", ["fit", "sweep", "serve", "stream"])
def test_tiny_run_emits_every_metric(name, tmp_path):
    needs_fleet(name)
    e2e = tiny_run(name, tmp_path, trace=False)
    assert e2e["correct"], e2e["failures"]
    assert e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in e2e["metrics"].items()] == bench.E2E
    for k, m in e2e["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, (k, m)

    traced = tiny_run(name, tmp_path, trace=True)
    assert traced["correct"], traced["failures"]
    assert [(k, m["unit"]) for k, m in traced["metrics"].items()] == layers.PER_LAYER
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert 0.5 < values["trace.coverage"] <= 1.0 + 1e-9


@pytest.mark.parametrize("name", ["fit", "sweep", "serve", "stream"])
def test_counts_repeat_exactly(name, tmp_path):
    needs_fleet(name)
    first = tiny_run(name, tmp_path / "a", trace=True)["metrics"]
    second = tiny_run(name, tmp_path / "b", trace=True)["metrics"]
    assert first[COUNTS[name][0]]["value"] > 0
    for key in COUNTS[name]:
        assert first[key]["value"] == second[key]["value"], key
    if name == "sweep":
        assert first["runtime.hits"]["value"] == 0


def test_perturbed_fit_prediction_trips_the_check(tmp_path):
    workload = bench.workloads()["fit"](0, tmp_path, size=TINY["fit"])
    workload.setup()
    r = workload.round(None, "e2e", 0)
    assert workload.check([r]) == []
    r["fits"][0]["finite_positive"] = False
    assert workload.check([r])
    r["fits"][0].update(finite_positive=True, app="amg", rank=4, mlogq=1.0)
    assert workload.check([r])


def test_perturbed_serve_answer_trips_the_check():
    requests = [{"expect": np.array([1.0, 2.0])}, {"expect": np.array([3.0])}]
    assert check_answers(requests, [(0, [1.0, 2.0]), (1, [3.0])], "t") == []
    assert check_answers(requests, [(0, [1.0, 2.0 * (1 + 1e-9)]), (1, [3.0])], "t")
    assert check_answers(requests, [(0, [1.0, None]), (1, [3.0])], "t")
    assert check_answers(requests, [(0, [1.0]), (1, [3.0])], "t")


def test_perturbed_sweep_record_trips_the_check():
    reference = json.dumps([{"app": "amg", "best_error": 0.1}])
    assert check_records([reference], reference) == []
    assert check_records([json.dumps([{"app": "amg", "best_error": 0.1000001}])], reference)


def test_perturbed_stream_probe_trips_the_check():
    expected = np.array([1.0, 2.0, 3.0])
    assert probe_mismatch(expected.copy(), expected) == 0
    assert probe_mismatch(expected * (1 + 1e-9), expected) == 3
    assert probe_mismatch(expected[:2], expected) == 3
