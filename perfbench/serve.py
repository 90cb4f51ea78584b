"""``serve``: a closed loop over HTTP/1.1 keep-alive against a ServeFleet.

Why this workload: it is the only one where transport and framing matter
and completion does no work.  A ``kripke`` rank-4, 16-cell model is
fitted during set-up and served by a one-worker fleet (one worker keeps
``SO_REUSEPORT`` connection hashing out of the variance).  Two client
connections each send their next request only after the previous reply
arrived.  Requests come in two classes: ``point`` (1 row, a scheduler
querying one configuration) and ``batch`` (128 rows, an autotuner
ranking candidates), half of each, in an order and over held-out
configurations drawn from the run's seed.

The clients are stock ``http.client`` keep-alive connections with no
socket options, exactly as a caller would use them, so any stall the
server's write pattern causes shows in the numbers.  The fleet runs
without the shared-memory store (``shm=False``): with one worker there
is nothing to share, and the run keeps all its state in the run
directory.  The worker's stderr (one access-log line per request) goes
to ``fleet.log`` in the run directory.

A traced round adds two ``stats`` requests around the loop (engine time
and rows per flush, from inside the worker) and replays the same request
bodies through an in-process ``ModelServer.handle`` with the fit/predict
path patched, which splits a request into JSON decode, handle, predict
layers and JSON encode.
"""
from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from perfbench import layers
from perfbench.common import (
    Workload,
    median,
    nproc,
    peak_rss_mb_pid,
    percentile,
    seeds,
)

MODEL = "kripke"


def _start_logged(fleet, log_path: Path) -> None:
    """Start ``fleet`` with its forked workers' stderr on ``log_path``."""
    sys.stderr.flush()
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    saved = os.dup(2)
    try:
        os.dup2(log_fd, 2)
        fleet.start()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
        os.close(log_fd)


def _post(conn, body: bytes):
    conn.request("POST", "/", body, {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


class Serve(Workload):
    name = "serve"
    why = (
        "closed loop of 2 keep-alive HTTP connections on a 1-worker ServeFleet, "
        "1-row and 128-row requests; transport and predict, no completion"
    )
    root = "serve.replay"
    # A request's latency is dominated by the TCP stack's delayed-ACK
    # timer, which host speed does not move: times are reported as measured.
    scaled = False
    SIZE = {
        "n_train": 4096,
        "rank": 4,
        "cells": 16,
        "batch_rows": 128,
        "requests_per_conn": 64,
        "connections": 2,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fleet = None
        self._n_setup = 0

    def setup(self) -> None:
        from repro.apps import get_application
        from repro.core import CPRModel
        from repro.datasets import generate_dataset
        from repro.serve import ModelRegistry, ModelServer, ServeFleet

        size = self.size
        s_query, s_class = seeds(self.seed, 2)
        app = get_application(MODEL)
        # The served model is one fixed artifact; the seed varies the
        # traffic (request order and the configurations queried).
        train = generate_dataset(app, size["n_train"], seed=0)
        self.model = CPRModel(
            space=app.space, cells=size["cells"], rank=size["rank"], seed=0
        ).fit(train.X, train.y)

        # The request sequence: per connection, half of each class in a
        # seeded order, over held-out configurations.
        conns = min(size["connections"], nproc())
        n_req = conns * size["requests_per_conn"]
        classes = np.random.default_rng(s_class).permutation(np.arange(n_req) % 2)
        rows = np.where(classes == 1, size["batch_rows"], 1)
        held_out = generate_dataset(app, int(rows.sum()), seed=s_query)
        bounds = np.concatenate([[0], np.cumsum(rows)])
        self.requests = []
        for i in range(n_req):
            X = held_out.X[bounds[i] : bounds[i + 1]]
            self.requests.append(
                {
                    "cls": "batch" if classes[i] else "point",
                    "conn": i % conns,
                    "body": json.dumps(
                        {"op": "predict", "model": MODEL, "x": X.tolist()}
                    ).encode(),
                    "expect": self.model.predict(X),
                    "y": held_out.y[bounds[i] : bounds[i + 1]],
                }
            )
        self.connections = conns

        self._n_setup += 1
        registry_dir = Path(self.rundir) / "tmp" / f"registry-{self._n_setup}"
        ModelRegistry(registry_dir).publish(MODEL, self.model)
        self.local = ModelServer(ModelRegistry(registry_dir))
        self.fleet = ServeFleet(
            registry_dir, workers=1, default_model=MODEL, shm=False
        )
        _start_logged(self.fleet, Path(self.rundir) / "fleet.log")
        self._warm_up()
        self._replay(None)

    def _warm_up(self) -> None:
        """Wait for the worker to answer, then send each class a few times.

        The in-process server is warmed by one replay after this.
        """
        deadline = time.monotonic() + 30.0
        warm = [r for r in self.requests if r["cls"] == "point"][:4]
        warm += [r for r in self.requests if r["cls"] == "batch"][:4]
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.fleet.port, timeout=30)
            try:
                for r in warm:
                    status, _ = _post(conn, r["body"])
                    if status != 200:
                        raise RuntimeError(f"warm-up request answered {status}")
                return
            except ConnectionError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
            finally:
                conn.close()

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
            self.local.close()

    def table(self) -> list:
        return layers.serve_table()

    def _stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.fleet.port, timeout=30)
        try:
            status, body = _post(conn, b'{"op": "stats"}')
        finally:
            conn.close()
        stats = json.loads(body)
        engine = stats["engines"][0] if stats.get("engines") else {}
        return {
            "batches": engine.get("batches", 0),
            "queries": engine.get("queries", 0),
            "total_seconds": engine.get("total_seconds", 0.0),
            "shed": stats["admission"]["shed"],
        }

    def _client(self, conn_id: int, out: list) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.fleet.port, timeout=60)
        try:
            for i, r in enumerate(self.requests):
                if r["conn"] != conn_id:
                    continue
                t0 = time.perf_counter()
                try:
                    status, body = _post(conn, r["body"])
                except (OSError, http.client.HTTPException) as exc:
                    status, body = None, str(exc).encode()
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", self.fleet.port, timeout=60
                    )
                out.append((i, time.perf_counter() - t0, status, body))
        finally:
            conn.close()

    def round(self, rec, mode: str, index: int) -> dict:
        before = self._stats() if mode == "traced" else None
        results: list = []
        threads = [
            threading.Thread(target=self._client, args=(c, results))
            for c in range(self.connections)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        after = self._stats() if mode == "traced" else None

        samples = []
        for i, client_s, status, body in sorted(results, key=lambda x: x[0]):
            try:
                resp = json.loads(body) if status is not None else {}
            except ValueError:
                resp = {}
            samples.append(
                {
                    "i": i,
                    "cls": self.requests[i]["cls"],
                    "client_ms": 1e3 * client_s,
                    "ok": status == 200 and bool(resp.get("ok")),
                    "server_ms": resp.get("latency_ms"),
                    "y": resp.get("y"),
                }
            )
        out = {
            "wall_s": wall,
            "attempted": len(samples),
            "failed": sum(not s["ok"] for s in samples),
            "samples": samples,
            "rows": sum(len(r["expect"]) for r in self.requests),
        }
        if mode != "e2e":
            out["overhead_wall_s"], out["replayed"] = self._replay(rec)
        if before is not None:
            out["stats"] = {k: after[k] - before[k] for k in after}
        return out

    def _replay(self, rec):
        """The same request bodies through an in-process ``handle``."""
        answers = []
        t0 = time.perf_counter()
        if rec is None:
            for r in self.requests:
                resp = self.local.handle(json.loads(r["body"]))
                answers.append(json.dumps(resp).encode())
        else:
            with rec.span("serve.replay"):
                for i, r in enumerate(self.requests):
                    with rec.span("server.request", request=i):
                        with rec.span("server.json_decode"):
                            request = json.loads(r["body"])
                        resp = self.local.handle(request)
                        with rec.span("server.json_encode"):
                            answers.append(json.dumps(resp).encode())
        wall = time.perf_counter() - t0
        return wall, [json.loads(a).get("y") for a in answers]

    def e2e(self, rounds: list) -> dict:
        from repro.metrics import mlogq

        point = [s["client_ms"] for r in rounds for s in r["samples"] if s["cls"] == "point"]
        pred, true = [], []
        for r in rounds:
            for s in r["samples"]:
                if s["ok"]:
                    pred.extend(s["y"])
                    true.extend(self.requests[s["i"]]["y"])
        return {
            "p50_ms": median(point),
            "tail_ms": percentile(point, 90),
            "throughput": sum(r["rows"] for r in rounds) / sum(r["wall_s"] for r in rounds),
            "mlogq": mlogq(np.asarray(pred), np.asarray(true)),
            "peak_rss_mb": max(peak_rss_mb_pid(p) for p in self.fleet.worker_pids()),
        }

    def layer(self, traced: list) -> dict:
        samples = [s for r in traced for s in r["samples"] if s["ok"]]
        client = float(np.mean([s["client_ms"] for s in samples]))
        server = float(np.mean([s["server_ms"] for s in samples]))
        batches = sum(r["stats"]["batches"] for r in traced)
        engine_ms = (
            1e3 * sum(r["stats"]["total_seconds"] for r in traced) / batches
            if batches
            else 0.0
        )
        return {
            "serve.client_ms": client,
            "serve.server_ms": server,
            "serve.transport_ms": client - server,
            "engine.predict_ms": engine_ms,
            "engine.rows_per_flush": (
                sum(r["stats"]["queries"] for r in traced) / batches if batches else 0.0
            ),
            "server.batch_wait_ms": server - engine_ms,
            "serve.requests": median([r["attempted"] for r in traced]),
            "serve.failed": median([r["failed"] for r in traced]),
            "serve.shed": median([r["stats"]["shed"] for r in traced]),
        }

    def check(self, rounds: list) -> list:
        failures = []
        for k, r in enumerate(rounds):
            answers = [(s["i"], s["y"]) for s in r["samples"] if s["ok"]]
            failures += check_answers(self.requests, answers, f"round {k} HTTP")
            if "replayed" in r:
                failures += check_answers(
                    self.requests, list(enumerate(r["replayed"])), f"round {k} replay"
                )
        return failures

    def report(self, rounds: list) -> list:
        out = []
        for cls in ("point", "batch"):
            ms = [s["client_ms"] for r in rounds for s in r["samples"] if s["cls"] == cls]
            note = f"ms ({len(ms)} requests)"
            out.append((f"serve_{cls}_p50_ms", median(ms), note))
            out.append((f"serve_{cls}_p90_ms", percentile(ms, 90), note))
            out.append((f"serve_{cls}_p99_ms", percentile(ms, 99), note))
        return out


def check_answers(requests: list, answers: list, where: str) -> list:
    """Served predictions must equal ``model.predict`` to rtol 1e-10."""
    failures = []
    for i, y in answers:
        expect = requests[i]["expect"]
        got = np.asarray(
            [np.nan if v is None else v for v in (y or [])], dtype=float
        )
        if got.shape != expect.shape or not np.allclose(got, expect, rtol=1e-10, atol=0):
            failures.append(f"serve: {where} request {i} answer differs from model.predict")
    return failures
