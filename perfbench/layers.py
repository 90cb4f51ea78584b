"""Which public callables each traced run wraps, and what they report.

Every entry is ``(owner, attribute, span name[, after])``: the callable is
replaced where its callers look it up, which is not always where it is
defined:

* ``cp_eval`` is bound into :mod:`repro.core.model` at import time, so the
  predict path's copy is patched there (the objective's copy in
  :mod:`repro.core.completion.objectives` stays inside the objective span);
* ``solve_batched_spd`` and ``khatri_rao_rows`` are imported inside
  function bodies, so they are patched on
  :mod:`repro.core.completion.state`;
* ``ObservationPlan.__init__`` builds nothing per mode: each
  ``ModePlan`` is built lazily by ``plan.mode(j)`` on the first sweep,
  so ``ModePlan.__init__`` is part of the plan span too.

Per-layer metric names (:data:`PER_LAYER`) are reported by every traced
run, as 0 where a workload does not exercise the layer.  Unless noted,
``*_ms`` is the layer's *self* time summed over one traced round (the
median over the run's traced rounds).  The ``serve.*`` latencies,
``engine.predict_ms`` and ``server.batch_wait_ms`` are means per HTTP
request, measured from outside the fleet.
"""
from __future__ import annotations

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = [
    # core.completion (fit path)
    ("completion.plan_ms", "ms"),
    ("completion.khatri_rao_ms", "ms"),
    ("completion.gram_ms", "ms"),
    ("completion.solve_ms", "ms"),
    ("completion.objective_ms", "ms"),
    ("completion.update_self_ms", "ms"),
    ("completion.als_self_ms", "ms"),
    ("completion.sweeps", "count"),
    ("completion.mode_updates", "count"),
    ("completion.nnz", "count"),
    # core.grid / core.tensor / core.model
    ("grid.build_ms", "ms"),
    ("tensor.assemble_ms", "ms"),
    ("model.impute_ms", "ms"),
    ("model.fit_self_ms", "ms"),
    ("model.partial_fit_self_ms", "ms"),
    # predict path: core.interp + cp_eval
    ("interp.weights_ms", "ms"),
    ("interp.corner_stack_ms", "ms"),
    ("completion.cp_eval_ms", "ms"),
    ("model.predict_self_ms", "ms"),
    ("interp.corners_per_row", "count"),
    # serve.fleet / serve.server / serve.engine, from outside
    ("serve.client_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("engine.predict_ms", "ms"),
    ("engine.rows_per_flush", "rows"),
    ("server.batch_wait_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.failed", "count"),
    ("serve.shed", "count"),
    # in-process replay through ModelServer.handle
    ("server.json_decode_ms", "ms"),
    ("server.json_encode_ms", "ms"),
    ("server.handle_self_ms", "ms"),
    # stream / serve.registry
    ("stream.observe_self_ms", "ms"),
    ("stream.score_ms", "ms"),
    ("buffer.append_ms", "ms"),
    ("trainer.partial_ms", "ms"),
    ("trainer.refit_ms", "ms"),
    ("drift.record_ms", "ms"),
    ("registry.publish_ms", "ms"),
    ("registry.load_ms", "ms"),
    ("stream.fits", "count"),
    ("stream.partials", "count"),
    ("stream.refits_drift", "count"),
    ("stream.refits_domain", "count"),
    ("stream.publishes", "count"),
    ("stream.partial_share", "ratio"),
    # runtime
    ("runtime.job_s", "s"),
    ("runtime.cache_put_ms", "ms"),
    ("runtime.efficiency", "ratio"),
    ("runtime.executed", "count"),
    ("runtime.hits", "count"),
    ("runtime.retries", "count"),
    # the trace itself
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]

#: Span name -> per-layer metric reporting its summed self time.
SELF_TIME_METRICS = {
    "completion.plan": "completion.plan_ms",
    "completion.khatri_rao": "completion.khatri_rao_ms",
    "completion.gram": "completion.gram_ms",
    "completion.solve": "completion.solve_ms",
    "completion.objective": "completion.objective_ms",
    "completion.mode_update": "completion.update_self_ms",
    "completion.als": "completion.als_self_ms",
    "grid.build": "grid.build_ms",
    "tensor.assemble": "tensor.assemble_ms",
    "model.impute": "model.impute_ms",
    "model.fit": "model.fit_self_ms",
    "model.partial_fit": "model.partial_fit_self_ms",
    "interp.weights": "interp.weights_ms",
    "interp.corner_stack": "interp.corner_stack_ms",
    "completion.cp_eval": "completion.cp_eval_ms",
    "model.predict": "model.predict_self_ms",
    "server.json_decode": "server.json_decode_ms",
    "server.json_encode": "server.json_encode_ms",
    "server.handle": "server.handle_self_ms",
    "stream.observe": "stream.observe_self_ms",
    "stream.score": "stream.score_ms",
    "buffer.append": "buffer.append_ms",
    "trainer.partial": "trainer.partial_ms",
    "trainer.refit": "trainer.refit_ms",
    "drift.record": "drift.record_ms",
    "registry.publish": "registry.publish_ms",
    "registry.load": "registry.load_ms",
    "runtime.cache_put": "runtime.cache_put_ms",
}


def _count_als(rec, span, result, args, kwargs) -> None:
    """One completion run: its sweeps and observed cells."""
    rec.count("completion.sweeps", result.n_sweeps)
    rec.count("completion.nnz", len(args[1]))


def _count_corners(rec, span, result, args, kwargs) -> None:
    """``corner_stack(grid, X)`` returns ``2^q * n`` corner rows."""
    rec.count("interp.corner_rows", len(result[0]))
    rec.count("interp.query_rows", len(args[1]))


def completion_table() -> list:
    """Fit and predict path: core.completion, grid, tensor, model, interp."""
    from repro.core import interp, model
    from repro.core.completion import OPTIMIZERS, als, state
    from repro.core.completion.backends import registered_backends
    from repro.core.grid import TensorGrid
    from repro.core.tensor import ObservedTensor

    table = [
        (state.ObservationPlan, "__init__", "completion.plan"),
        (state.ModePlan, "__init__", "completion.plan"),
        (state.ObservationPlan, "khatri_rao", "completion.khatri_rao"),
        (state, "khatri_rao_rows", "completion.khatri_rao"),
        (state.ModePlan, "gram", "completion.gram"),
        (state, "solve_batched_spd", "completion.solve"),
        (als, "ls_objective", "completion.objective"),
        (OPTIMIZERS, "als", "completion.als", _count_als),
        (TensorGrid, "from_space", "grid.build"),
        (ObservedTensor, "from_data", "tensor.assemble"),
        (ObservedTensor, "merge", "tensor.assemble"),
        (model.CPRModel, "_impute_unobserved_rows", "model.impute"),
        (model.CPRModel, "fit", "model.fit"),
        (model.CPRModel, "partial_fit", "model.partial_fit"),
        (model.CPRModel, "predict", "model.predict"),
        (interp, "interpolation_weights", "interp.weights"),
        (interp, "corner_stack", "interp.corner_stack", _count_corners),
        (model, "cp_eval", "completion.cp_eval"),
    ]
    seen = set()
    for backend in registered_backends():
        cls = type(backend)
        for klass in cls.__mro__:
            if "als_update" in klass.__dict__ and klass not in seen:
                seen.add(klass)
                table.append((klass, "als_update", "completion.mode_update"))
                break
    return table


def serve_table() -> list:
    """In-process replay of the serve requests through ModelServer.handle."""
    from repro.serve.server import ModelServer

    return [(ModelServer, "handle", "server.handle")] + completion_table()


def _name_update(rec, span, result, args, kwargs) -> None:
    """Name the trainer span after what the update did."""
    action = result.get("action")
    span.name = {
        "partial": "trainer.partial",
        "refit": "trainer.refit",
        "fit": "trainer.refit",
    }.get(action, "trainer.update")


def stream_table() -> list:
    """Stream session, registry and trainer, plus the fit/predict path."""
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import ModelServer
    from repro.stream.buffer import ObservationBuffer
    from repro.stream.drift import DriftMonitor
    from repro.stream.pipeline import StreamSession
    from repro.stream.trainer import IncrementalTrainer

    return [
        (StreamSession, "observe", "stream.observe"),
        (ObservationBuffer, "append", "buffer.append"),
        (IncrementalTrainer, "update", "trainer.update", _name_update),
        (DriftMonitor, "record", "drift.record"),
        (ModelRegistry, "publish", "registry.publish"),
        (ModelRegistry, "load_resolved", "registry.load"),
        (ModelServer, "handle", "server.handle"),
    ] + completion_table()


def self_time_metrics(agg: dict) -> dict:
    """Per-layer ``*_ms`` metrics from one round's :func:`spans.aggregate`."""
    out = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        a = agg.get(span_name)
        if a is not None:
            out[metric] = out.get(metric, 0.0) + a["self_ns"] / 1e6
    if "completion.mode_update" in agg:
        out["completion.mode_updates"] = agg["completion.mode_update"]["calls"]
    return out


def counter_metrics(counters: dict) -> dict:
    """Per-layer counts from a recorder's counters."""
    out = {}
    for name in ("completion.sweeps", "completion.nnz"):
        if name in counters:
            out[name] = counters[name]
    rows = counters.get("interp.query_rows", 0)
    if rows:
        out["interp.corners_per_row"] = counters["interp.corner_rows"] / rows
    return out
