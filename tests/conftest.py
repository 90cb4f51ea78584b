"""Shared fixtures: small cached datasets and deterministic generators."""
from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.apps import ExaFMM, MatMul
from repro.datasets import generate_dataset


@pytest.fixture(autouse=True)
def _isolated_kernel_calibration(tmp_path, monkeypatch):
    """Point the kernel-calibration sidecar at a per-test path.

    Backend selection persists its calibration winner to a JSON sidecar
    (``REPRO_KERNEL_CALIBRATION``); tests must neither read a developer's
    real cache nor write into it.
    """
    monkeypatch.setenv(
        "REPRO_KERNEL_CALIBRATION", str(tmp_path / "kernel_calibration.json")
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def mm_data():
    """A small MatMul train/test pair shared across model tests."""
    app = MatMul()
    train = generate_dataset(app, 1024, seed=0)
    test = generate_dataset(app, 256, seed=1)
    return app, train, test


@pytest.fixture(scope="session")
def fmm_data():
    """A small ExaFMM train/test pair (6 parameters, has a constraint)."""
    app = ExaFMM()
    train = generate_dataset(app, 1024, seed=0)
    test = generate_dataset(app, 256, seed=1)
    return app, train, test


@pytest.fixture()
def smooth_2d():
    """A noise-free separable positive function on a 2-D log-uniform cloud."""
    gen = np.random.default_rng(7)
    X = np.exp(gen.uniform(np.log(1.0), np.log(100.0), size=(2000, 2)))
    y = 1e-3 * X[:, 0] ** 1.5 * X[:, 1] ** 0.5
    return X, y


class _CountingSocket:
    """An accepted connection that counts the writes sent through it."""

    def __init__(self, sock, writes: list):
        self._sock = sock
        self._writes = writes

    def sendall(self, data, *args):
        self._writes.append(len(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._writes.append(len(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def recording_http_handler():
    """Factory wrapping an HTTP handler class for transport assertions.

    ``wrap(base) -> (cls, seen)``: every connection ``cls`` accepts
    appends its ``TCP_NODELAY`` option to ``seen["nodelay"]`` and the
    byte count of each socket write to ``seen["writes"]``.
    """

    def wrap(base):
        seen = {"nodelay": [], "writes": []}

        class Recording(base):
            def setup(self):
                self.request = _CountingSocket(self.request, seen["writes"])
                super().setup()
                seen["nodelay"].append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )

        return Recording, seen

    return wrap
