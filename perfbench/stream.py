"""``stream``: replay a drifting application through a StreamSession.

Why this workload: it uses ``core.completion`` differently from ``fit``
(warm starts, plan reuse and refit storms) beside registry writes and
reads.  One round replays 64 batches of 64 rows of
``DriftingApplication(amg)`` (runtimes double halfway through), back to
back, through a fresh ``StreamSession`` on a temporary
``ModelRegistry``.  Each batch is first scored through an in-process
``ModelServer.handle`` on ``amg-stream@latest`` (the read side), then
absorbed (the write side: ``partial_fit`` or refit, publish, engine swap
on the next read).  After every publish the served predictions on a
probe batch must equal the trainer model's.

Each round replays a different stream, seeded by the run's seed and the
round's index: which batches trigger refits depends on the data, so a
run averages over several streams.
"""
from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import nullcontext

import numpy as np

from perfbench import layers
from perfbench.common import (
    Workload,
    median,
    peak_rss_mb_self,
    percentile,
    request_span,
)

APP = "amg"


class Stream(Workload):
    name = "stream"
    why = (
        "DriftingApplication(amg) in 64-row batches through a StreamSession: "
        "served scoring, partial_fit/refit storms, publish and engine swap"
    )
    SIZE = {
        "batches": 64,
        "batch": 64,
        "probe": 64,
        "warm_batches": 8,
    }

    def setup(self) -> None:
        size = self.size
        self.shift_at = size["batches"] * size["batch"] // 2
        self._streams: dict = {}
        self.probe_X = self._app().space.sample(
            size["probe"], rng=np.random.default_rng((self.seed, 0))
        )
        # Warm-up: the first batches through a throwaway session, which
        # imports and exercises every layer once before timing starts.
        self._replay(None, self.stream(0)[: size["warm_batches"]])

    def _app(self):
        from repro.apps import get_application
        from repro.stream import DriftingApplication

        return DriftingApplication(get_application(APP), shift_at=self.shift_at)

    def stream(self, index: int) -> list:
        """The batches of the run's ``index``-th stream (seeded, cached)."""
        if index not in self._streams:
            app = self._app()
            rng = np.random.default_rng((self.seed, 1 + index))
            batches = []
            for _ in range(self.size["batches"]):
                X = app.space.sample(self.size["batch"], rng=rng)
                batches.append((X, app.measure(X, rng=rng)))
            self._streams = {index: batches}
        return self._streams[index]

    def table(self) -> list:
        return layers.stream_table()

    def _replay(self, rec, batches) -> dict:
        from repro.serve import ModelRegistry, ModelServer
        from repro.stream import StreamTask

        tmp = tempfile.mkdtemp(prefix="stream-registry-")
        registry = ModelRegistry(tmp)
        task = StreamTask(
            APP,
            n=len(batches) * self.size["batch"],
            batch=self.size["batch"],
            seed=self.seed,
            shift_at=self.shift_at,
        )
        _, session = task.build_session(registry)
        server = ModelServer(registry)
        # The probe check reads through its own server and registry
        # object, so it warms no cache the timed read path uses.
        checker = ModelServer(ModelRegistry(tmp))
        ref = f"{task.name}@latest"

        def served(X, via=server):
            resp = via.handle({"op": "predict", "model": ref, "x": X.tolist()})
            if not resp.get("ok"):
                raise RuntimeError(f"score request failed: {resp.get('error')}")
            return np.asarray(resp["y"], dtype=float)

        score = served if rec is None else rec.wrap(served, "stream.score")
        observe_s, errors, actions, mismatches = [], [], [], []
        failed = 0
        t_round = time.perf_counter()
        try:
            for k, (X, y) in enumerate(batches):
                self.tick()
                with request_span(rec, "stream.batch", k):
                    t0 = time.perf_counter()
                    record = session.observe(X, y, predict_fn=score)
                    observe_s.append(time.perf_counter() - t0)
                if record.get("batch_error") is not None:
                    errors.append(record["batch_error"])
                action = record["action"]
                actions.append(action if action != "refit" else f"refit:{record['reason']}")
                if action in ("failed", "deferred") or "publish_error" in record:
                    failed += 1
                if record.get("published_version") is not None:
                    with rec.suspend() if rec is not None else nullcontext():
                        mismatches.append(
                            probe_mismatch(
                                served(self.probe_X, checker),
                                session.model.predict(self.probe_X),
                            )
                        )
            wall = time.perf_counter() - t_round
        finally:
            server.close()
            checker.close()
            shutil.rmtree(tmp, ignore_errors=True)
        return {
            "wall_s": wall,
            "attempted": len(batches),
            "failed": failed,
            "observe_s": observe_s,
            "rows": sum(len(y) for _, y in batches),
            "errors": errors,
            "actions": actions,
            "publishes": len(session.published_versions),
            "publish_failures": session.publish_failures,
            "mismatches": mismatches,
        }

    def round(self, rec, mode: str, index: int) -> dict:
        return self._replay(rec, self.stream(index))

    def e2e(self, rounds: list) -> dict:
        ms = [1e3 * s for r in rounds for s in r["observe_s"]]
        return {
            "p50_ms": median(ms),
            "tail_ms": percentile(ms, 90),
            "throughput": sum(r["rows"] for r in rounds)
            / sum(sum(r["observe_s"]) for r in rounds),
            "mlogq": float(np.mean([e for r in rounds for e in r["errors"]])),
            "peak_rss_mb": peak_rss_mb_self(),
        }

    def layer(self, traced: list) -> dict:
        r = traced[0]
        acts = r["actions"]
        updates = sum(a != "noop" for a in acts)
        return {
            "stream.fits": acts.count("fit"),
            "stream.partials": acts.count("partial"),
            "stream.refits_drift": acts.count("refit:drift"),
            "stream.refits_domain": acts.count("refit:domain"),
            "stream.publishes": r["publishes"],
            "stream.partial_share": acts.count("partial") / updates if updates else 0.0,
        }

    def check(self, rounds: list) -> list:
        failures = []
        for k, r in enumerate(rounds):
            bad = sum(m > 0 for m in r["mismatches"])
            if bad:
                failures.append(
                    f"stream: round {k}: {bad} of {len(r['mismatches'])} publishes "
                    "served predictions that differ from the trainer model"
                )
            if r["publish_failures"]:
                failures.append(f"stream: round {k}: {r['publish_failures']} publish failures")
        return failures

    def report(self, rounds: list) -> list:
        m = self.e2e(rounds)
        n = sum(len(r["observe_s"]) for r in rounds)
        acts = rounds[0]["actions"]
        summary = ", ".join(f"{a}={acts.count(a)}" for a in sorted(set(acts)))
        return [
            ("stream_rows_per_s", m["throughput"], "rows/s"),
            ("stream_batch_p50_ms", m["p50_ms"], f"ms ({n} batches)"),
            ("stream_batch_p90_ms", m["tail_ms"], f"ms ({n} batches)"),
            ("stream_mlogq", m["mlogq"], "mlogq"),
            ("stream_actions", len(acts), f"batches per round: {summary}"),
        ]


def probe_mismatch(served, expected) -> int:
    """Probe rows whose served prediction differs from the trainer's."""
    served = np.asarray(served, dtype=float)
    if served.shape != expected.shape:
        return len(expected)
    return int(np.sum(~np.isclose(served, expected, rtol=1e-10, atol=0)))
