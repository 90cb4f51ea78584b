"""Shared pieces of the four workloads: the base class and small helpers."""
from __future__ import annotations

import os
import resource
import time
from contextlib import nullcontext

import numpy as np


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_children() -> float:
    """Largest peak resident set among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def seeds(seed: int, n: int) -> list:
    """``n`` independent integer seeds derived from the run's seed."""
    ss = np.random.SeedSequence(int(seed))
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


#: Seconds one pass of :class:`SpeedProbe` takes at the reference speed
#: the scaled times refer to.
PROBE_REF_S = 0.006


class SpeedProbe:
    """A fixed numpy kernel that tracks how fast the host runs right now.

    The benchmark shares its host with other work, and the host's speed
    drifts by tens of percent over minutes.  A CPU-bound workload times
    one pass of this kernel at many points of its run, between its own
    operations, and the harness scales the run's times by
    ``PROBE_REF_S / median pass time``.  The kernel mixes the primitives
    the fit and predict paths spend their time in (row gathers with
    element-wise products and a reduction, a GEMM, a batched small
    solve) and belongs to the benchmark, so no change to the program
    can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(20231117)
        self.factors = [rng.standard_normal((16, 8)) for _ in range(8)]
        self.idx = rng.integers(0, 16, (20000, 8))
        G = rng.standard_normal((256, 8, 8))
        self.G = G @ G.transpose(0, 2, 1) + 8 * np.eye(8)
        self.b = rng.standard_normal((256, 8, 1))
        self.samples: list = []

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            t0 = time.perf_counter()
            P = self.factors[0][self.idx[:, 0]]
            for j in range(1, len(self.factors)):
                P = P * self.factors[j][self.idx[:, j]]
            P.sum(axis=1)
            P.T @ P
            np.linalg.solve(self.G, self.b)
            self.samples.append(time.perf_counter() - t0)

    def sample_every_cpu(self, passes: int) -> None:
        """``passes`` passes pinned to each CPU in turn, for a workload
        that keeps every CPU busy (each CPU's host core drifts on its own)."""
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                self.sample(passes)
        finally:
            os.sched_setaffinity(0, allowed)

    def scale(self) -> float:
        """Factor taking this run's times to the reference speed."""
        return PROBE_REF_S / median(self.samples)


def request_span(rec, name: str, request):
    """A span grouping one request's layer spans under one request id
    (nothing when the round is untraced)."""
    return nullcontext() if rec is None else rec.span(name, request=request)


class Workload:
    """One benchmark workload.

    The harness calls :meth:`setup` (several times, each after a
    :meth:`teardown`, to take the median set-up time), then
    :meth:`round` repeatedly, then :meth:`check` and :meth:`teardown`.
    A round is a fixed unit of work whose inputs depend only on the seed
    and the round's index, so a traced round does exactly the work of the
    untraced one it follows and its counts repeat from run to run.

    ``round(rec, mode, index)`` gets ``rec=None`` when untraced; ``mode``
    is ``"e2e"`` in an untraced run and ``"untraced"``/``"traced"`` in a
    traced run, where a workload may do extra work on both sides (the
    serve workload's in-process replay).  ``index`` counts the run's
    rounds; a traced round has the index of the untraced round before
    it, so the two do the same work.  A round returns a dict with at
    least ``wall_s``, ``attempted`` and ``failed``.
    """

    name = ""
    why = ""
    #: Span whose duration the layer self times are a share of.
    root = "round"
    #: Whether the workload's times are CPU-bound, so the harness scales
    #: them to reference speed (see :class:`SpeedProbe`).
    scaled = True

    def __init__(self, seed: int, rundir, size: dict | None = None):
        self.seed = int(seed)
        self.rundir = rundir
        #: Set by the harness for untraced runs of a scaled workload; the
        #: workload samples it between its timed operations.
        self.probe: SpeedProbe | None = None
        self.size = dict(self.SIZE)
        if size:
            self.size.update(size)

    SIZE: dict = {}

    def tick(self) -> None:
        """Sample the speed probe (between timed operations only)."""
        if self.probe is not None:
            self.probe.sample()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def table(self) -> list:
        """Patch table (see :mod:`perfbench.layers`) for traced rounds."""
        return []

    def round(self, rec, mode: str, index: int) -> dict:
        raise NotImplementedError

    def e2e(self, rounds: list) -> dict:
        """End-to-end metrics (all but ``setup_s``) from untraced rounds."""
        raise NotImplementedError

    def layer(self, traced: list) -> dict:
        """Per-layer metrics beyond span self times and counters."""
        return {}

    def check(self, rounds: list) -> list:
        """Correctness failures (human-readable strings) over all rounds."""
        return []

    def report(self, rounds: list) -> list:
        """``(name, value, unit)`` lines in the workload's own terms."""
        return []
