"""Fleet serving: shm model store, multi-process workers, hot-swap, supervision."""
from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.apps import Broadcast
from repro.core import CPRModel
from repro.datasets import generate_dataset
from repro.serve import ModelRegistry, ServeFleet
from repro.serve import shm_store
from repro.serve.fleet import _new_socket, _SocketHTTPServer, make_worker_server
from repro.serve.server import _http_handler
from repro.utils.serialization import model_digest

pytestmark = pytest.mark.skipif(
    not shm_store.shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fleet workers are forked"
)


@pytest.fixture(scope="module")
def bcast_data():
    app = Broadcast()
    train = generate_dataset(app, 512, seed=0)
    test = generate_dataset(app, 32, seed=1)
    return app, train, test


def _fit(app, train, seed=0, rank=2):
    return CPRModel(
        space=app.space, cells=4, rank=rank, seed=seed, max_sweeps=5
    ).fit(train.X, train.y)


@pytest.fixture(scope="module")
def fitted(bcast_data):
    app, train, _ = bcast_data
    return _fit(app, train)


def _rpc(port, body, timeout=10.0, retries=40):
    """POST one protocol request; retries connection-level failures.

    Retries matter twice here: right after fleet start (workers may not
    be listening yet) and across a worker crash (a SYN racing process
    death can be lost before respawn).
    """
    last = None
    for _ in range(retries):
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
            try:
                conn.request("POST", "/", json.dumps(body))
                response = conn.getresponse()
                return response.status, json.loads(response.read())
            finally:
                conn.close()
        except (ConnectionError, OSError) as exc:
            last = exc
            time.sleep(0.05)
    raise last


# -- shared-memory store -------------------------------------------------------


def test_shm_pack_attach_zero_copy(bcast_data, fitted):
    """Attached models predict identically off read-only shared views."""
    _, _, test = bcast_data
    digest = model_digest(fitted)
    shm = shm_store.pack_model(fitted, digest)
    try:
        model, lease = shm_store.attach_model(digest)
        np.testing.assert_allclose(model.predict(test.X), fitted.predict(test.X))
        # The heavy arrays are views into the segment, not copies.
        assert shm_store.shared_fraction(model) > 0.5
        assert shm_store.shared_fraction(fitted) == 0.0
        del model
        lease.release()
    finally:
        shm.unlink()
        shm.close()
    with pytest.raises(FileNotFoundError):
        shm_store.attach_model(digest)


def test_shm_store_idempotent_and_bounded(fitted):
    import hashlib

    digests = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(3)]
    with shm_store.ShmModelStore(max_segments=2) as store:
        assert store.ensure(digests[0], fitted) is True
        assert store.ensure(digests[0], fitted) is False  # already resident
        store.ensure(digests[1], fitted)
        store.ensure(digests[2], fitted)  # evicts digests[0] (LRU)
        assert store.digests() == [digests[1], digests[2]]
        with pytest.raises(FileNotFoundError):
            shm_store.attach_model(digests[0])
        model, lease = shm_store.attach_model(digests[2])
        del model
        lease.release()
    # close() unlinked the survivors exactly once.
    for digest in digests:
        with pytest.raises(FileNotFoundError):
            shm_store.attach_model(digest)


def test_shm_segment_names_fit_posix_limits():
    digest = "ab" * 32
    name = shm_store.segment_name(digest)
    assert len(name) <= 30  # macOS: 31 chars including the leading slash
    assert name == shm_store.segment_name(digest)  # deterministic rendezvous


# -- worker serving stack, in-process ------------------------------------------


def _worker_cfg(tmp_path, **overrides):
    cfg = {
        "registry_dir": str(tmp_path),
        "host": "127.0.0.1",
        "port": 0,
        "default_model": "m",
        "max_batch": 64,
        "max_delay_ms": 1.0,
        "max_inflight": 8,
        "shm": True,
        "attach_wait_s": 0.2,
    }
    cfg.update(overrides)
    return cfg


def test_worker_server_serves_from_shm(tmp_path, bcast_data, fitted):
    _, _, test = bcast_data
    reg = ModelRegistry(tmp_path)
    mv = reg.publish("m", fitted)
    with shm_store.ShmModelStore() as store:
        store.ensure(mv.digest, fitted)
        server = make_worker_server(_worker_cfg(tmp_path))
        try:
            ping = server.handle({"op": "ping"})
            assert ping == {"ok": True, "op": "ping", "pid": os.getpid()}
            resp = server.handle({"op": "predict", "x": test.X[:4].tolist()})
            assert resp["ok"] and resp["model"] == "m@v1"
            np.testing.assert_allclose(resp["y"], fitted.predict(test.X[:4]))
            stats = server.handle({"op": "stats"})
            assert stats["pid"] == os.getpid()
            assert stats["engines"][0]["source"] == "shm"
            # Worker registries never build a private deserialized cache.
            assert stats["registry"]["capacity"] == 0
        finally:
            server.close()


def test_worker_server_disk_fallback_without_segment(tmp_path, bcast_data, fitted):
    """A worker racing ahead of the packer must serve, not fail."""
    _, _, test = bcast_data
    ModelRegistry(tmp_path).publish("m", fitted)
    server = make_worker_server(_worker_cfg(tmp_path, attach_wait_s=0.0))
    try:
        resp = server.handle({"op": "predict", "x": test.X[:2].tolist()})
        assert resp["ok"]
        np.testing.assert_allclose(resp["y"], fitted.predict(test.X[:2]))
        stats = server.handle({"op": "stats"})
        assert stats["engines"][0]["source"] == "local"
    finally:
        server.close()


def test_worker_http_server_disables_nagle_and_replies_in_one_write(
    tmp_path, bcast_data, fitted, recording_http_handler
):
    """A worker's HTTP stack, built in-process exactly as a forked worker
    builds it: accepted sockets set TCP_NODELAY and every reply leaves in
    one write, so a keep-alive client never waits on a delayed ACK."""
    _, _, test = bcast_data
    ModelRegistry(tmp_path).publish("m", fitted)
    server = make_worker_server(_worker_cfg(tmp_path, shm=False))
    handler, seen = recording_http_handler(_http_handler(server))
    sock = _new_socket("127.0.0.1", 0, reuseport=False)
    httpd = _SocketHTTPServer(sock, handler, listen=True)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", sock.getsockname()[1], timeout=5)
        try:
            for rows in (1, 16):
                body = json.dumps({"op": "predict", "x": test.X[:rows].tolist()})
                conn.request("POST", "/", body)
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read())["n"] == rows
        finally:
            conn.close()
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        server.close()
    assert seen["nodelay"] == [1]
    assert len(seen["writes"]) == 2


# -- the fleet proper ----------------------------------------------------------


@needs_fork
def test_fleet_serves_shared_models_and_hot_swaps(tmp_path, bcast_data, fitted):
    """End-to-end: shm-backed workers on one port, republish hot-swap.

    The acceptance property for the swap: while a cross-process publish
    of v2 propagates, every response is *exactly* v1's or v2's vector
    (matching its reported ref) — never a torn mix — and v2 arrives
    without any restart.
    """
    app, train, test = bcast_data
    ModelRegistry(tmp_path).publish("m", fitted)
    v2_model = _fit(app, train, seed=9, rank=3)
    Xq = test.X[:4]
    expect = {"m@v1": fitted.predict(Xq), "m@v2": v2_model.predict(Xq)}

    fleet = ServeFleet(
        tmp_path, workers=2, default_model="m", poll_interval_s=0.1
    )
    with fleet:
        status, out = _rpc(fleet.port, {"op": "predict", "x": Xq.tolist()})
        assert status == 200 and out["ok"] and out["model"] == "m@v1"
        np.testing.assert_allclose(out["y"], expect["m@v1"])

        # Some worker that has served a predict reports shm-backed bytes
        # and a pid the parent is supervising.
        source = None
        deadline = time.time() + 15
        while time.time() < deadline and source is None:
            _rpc(fleet.port, {"op": "predict", "x": Xq.tolist()})
            _, stats = _rpc(fleet.port, {"op": "stats"})
            assert stats["pid"] in fleet.worker_pids()
            if stats["engines"]:
                source = stats["engines"][0]["source"]
        assert source == "shm"

        # Republish from a *different* registry object (another process,
        # as far as the fleet can tell): only the manifest watch can see
        # it.
        ModelRegistry(tmp_path).publish("m", v2_model)
        served = set()
        deadline = time.time() + 15
        while time.time() < deadline:
            _, out = _rpc(fleet.port, {"op": "predict", "x": Xq.tolist()})
            assert out["ok"]
            served.add(out["model"])
            np.testing.assert_allclose(out["y"], expect[out["model"]])
            if out["model"] == "m@v2":
                break
            time.sleep(0.02)
        assert "m@v2" in served
    assert fleet.worker_pids() == []  # stop() tears every worker down


@needs_fork
def test_fleet_respawns_crashed_worker(tmp_path, bcast_data, fitted):
    _, _, test = bcast_data
    ModelRegistry(tmp_path).publish("m", fitted)
    fleet = ServeFleet(
        tmp_path, workers=2, default_model="m", poll_interval_s=0.05
    )
    with fleet:
        before = fleet.worker_pids()
        assert len(before) == 2
        os.kill(before[0], signal.SIGKILL)
        deadline = time.time() + 15
        while time.time() < deadline:
            if fleet.respawns >= 1 and len(fleet.worker_pids()) == 2:
                break
            time.sleep(0.05)
        after = fleet.worker_pids()
        assert len(after) == 2 and before[0] not in after
        # The fleet keeps answering across the crash (retries absorb the
        # window where a connection lands on the dying socket).
        _, out = _rpc(fleet.port, {"op": "predict", "x": test.X[:2].tolist()})
        assert out["ok"]
        np.testing.assert_allclose(out["y"], fitted.predict(test.X[:2]))


def _pinned_conn(port, timeout=5.0):
    """A persistent connection plus the pid of the worker it landed on.

    With SO_REUSEPORT the kernel assigns each TCP connection to one
    worker's accept queue at connect time, so a keep-alive connection
    keeps talking to that same worker for its whole life — which is what
    lets a test address a *specific* worker through the shared port.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("POST", "/", json.dumps({"op": "ping"}))
    out = json.loads(conn.getresponse().read())
    return conn, out["pid"]


@needs_fork
def test_fleet_hang_watchdog_replaces_stopped_worker(tmp_path, bcast_data, fitted):
    """A SIGSTOP'd worker is detected and replaced; survivors' in-flight
    clients see zero errors throughout."""
    _, _, test = bcast_data
    ModelRegistry(tmp_path).publish("m", fitted)
    Xq = test.X[:2]
    expect = fitted.predict(Xq)
    fleet = ServeFleet(
        tmp_path, workers=2, default_model="m", poll_interval_s=0.05,
        hang_timeout_s=1.0,
    )
    with fleet:
        # Pin one persistent connection to each worker.
        conns: dict = {}
        deadline = time.time() + 15
        while len(conns) < 2 and time.time() < deadline:
            try:
                conn, pid = _pinned_conn(fleet.port)
            except (ConnectionError, OSError):
                time.sleep(0.05)
                continue
            if pid in conns:
                conn.close()
            else:
                conns[pid] = conn
        assert len(conns) == 2
        stopped, survivor = list(conns)
        conns[stopped].close()

        os.kill(stopped, signal.SIGSTOP)
        # The survivor's clients must not observe a single failure while
        # the watchdog notices the frozen worker, kills, and replaces it.
        survivor_conn = conns[survivor]
        errors = 0
        deadline = time.time() + 20
        while time.time() < deadline and (
            fleet.hang_kills < 1
            or stopped in fleet.worker_pids()
            or len(fleet.worker_pids()) < 2
        ):
            survivor_conn.request(
                "POST", "/", json.dumps({"op": "predict", "x": Xq.tolist()})
            )
            resp = survivor_conn.getresponse()
            out = json.loads(resp.read())
            if resp.status != 200 or not out.get("ok"):
                errors += 1
            else:
                np.testing.assert_allclose(out["y"], expect)
            time.sleep(0.02)
        survivor_conn.close()
        assert errors == 0
        assert fleet.hang_kills >= 1 and fleet.respawns >= 1
        after = fleet.worker_pids()
        assert len(after) == 2 and stopped not in after
        # And the replacement answers exactly through the shared port.
        _, out = _rpc(fleet.port, {"op": "predict", "x": Xq.tolist()})
        assert out["ok"]
        np.testing.assert_allclose(out["y"], expect)


@needs_fork
def test_fleet_inherited_fd_mode(tmp_path, bcast_data, fitted):
    """The no-SO_REUSEPORT fallback serves from one inherited socket."""
    _, _, test = bcast_data
    ModelRegistry(tmp_path).publish("m", fitted)
    fleet = ServeFleet(
        tmp_path, workers=2, default_model="m", socket_mode="inherit",
        poll_interval_s=0.1,
    )
    with fleet:
        for _ in range(4):
            status, out = _rpc(fleet.port, {"op": "predict", "x": test.X[:3].tolist()})
            assert status == 200 and out["ok"]
            np.testing.assert_allclose(out["y"], fitted.predict(test.X[:3]))


def test_fleet_constructor_validation(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        ServeFleet(tmp_path, workers=0)
    with pytest.raises(ValueError, match="socket_mode"):
        ServeFleet(tmp_path, socket_mode="magic")


def test_cli_workers_requires_http(tmp_path):
    from repro.serve.server import main

    with pytest.raises(SystemExit):
        main(["--registry", str(tmp_path), "--stdin", "--workers", "2"])
