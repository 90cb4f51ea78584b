"""In-memory span recorder for the benchmark's traced runs.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id)`` on the
monotonic clock.  Spans nest per thread: the span open on the calling
thread when a new one starts is its parent, and a child inherits its
parent's request id unless it is given one.  Spans stay in memory until
the run ends, when :meth:`Recorder.dump` writes them out.

Layers are timed from outside the program: :meth:`Recorder.patch`
replaces a public callable *where its callers look it up* (a module
attribute, a class attribute, or a dict entry) by a wrapper that opens a
span around the original, and :meth:`Recorder.unpatch` puts every
original back.  Nothing under ``src/`` knows it is being traced.

A layer's self time is its span's duration minus the time its child
spans cover; :func:`aggregate` sums self time, total time and calls per
span name.
"""
from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request")

    def __init__(self, sid, name, start, parent, request):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class _NullSpan:
    """What :meth:`Recorder.span` yields while recording is suspended."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Open:
    """Context manager of one open span (cheaper than ``contextlib``)."""

    __slots__ = ("rec", "span")

    def __init__(self, rec, span):
        self.rec = rec
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.monotonic_ns()
        self.rec._close(self.span)
        return False


class Recorder:
    """Collects spans and counters; owns the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request=None):
        """Open a span as a context manager; yields the :class:`Span`."""
        if getattr(self._local, "suspended", 0):
            return _NULL
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        s = Span(
            next(self._ids),
            name,
            time.monotonic_ns(),
            None if parent is None else parent.id,
            request,
        )
        stack.append(s)
        return _Open(self, s)

    def _close(self, s: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is s:
            stack.pop()
        self.spans.append(s)

    @contextmanager
    def suspend(self):
        """Record nothing on this thread while inside."""
        self._local.suspended = getattr(self._local, "suspended", 0) + 1
        try:
            yield
        finally:
            self._local.suspended -= 1

    def count(self, name: str, n: float = 1) -> None:
        if getattr(self._local, "suspended", 0):
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- patching --------------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(rec, span, result, args, kwargs)``
        may rename the span or count what the call did."""
        rec = self

        def wrapper(*args, **kwargs):
            with rec.span(name) as s:
                result = fn(*args, **kwargs)
                if after is not None and s is not _NULL:
                    after(rec, s, result, args, kwargs)
                return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def patch(self, owner, attr, name: str, after=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        span-recording wrapper; :meth:`unpatch` restores it."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrapped(original, name, after)
        else:
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            setattr(owner, attr, self._wrapped(original, name, after))
        self._patches.append((owner, attr, original))

    def _wrapped(self, original, name, after):
        if isinstance(original, classmethod):
            return classmethod(self.wrap(original.__func__, name, after))
        if isinstance(original, staticmethod):
            return staticmethod(self.wrap(original.__func__, name, after))
        wrapper = self.wrap(original, name, after)
        # Keep function attributes the program reads off the callable
        # (e.g. the optimizers' ``accepts_kernel`` flags).
        wrapper.__dict__.update(getattr(original, "__dict__", {}))
        return wrapper

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def install(self, table) -> "Recorder":
        """Patch every ``(owner, attr, name[, after])`` entry of ``table``."""
        for entry in table:
            self.patch(*entry)
        return self

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span and counter as gzipped JSON."""
        payload = {
            "spans": [s.to_record() for s in self.spans],
            "counters": self.counters,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def aggregate(spans) -> dict:
    """Per span name: ``{"self_ns", "total_ns", "calls"}``.

    Children run on their parent's thread, so they never overlap each
    other and self time is the duration minus the children's durations.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end - s.start)
    out: dict[str, dict] = {}
    for s in spans:
        dur = s.end - s.start
        agg = out.setdefault(s.name, {"self_ns": 0, "total_ns": 0, "calls": 0})
        agg["self_ns"] += dur - child_ns.get(s.id, 0)
        agg["total_ns"] += dur
        agg["calls"] += 1
    return out


def merge(aggregates) -> dict:
    """Sum several :func:`aggregate` results (e.g. one per pool job)."""
    out: dict[str, dict] = {}
    for agg in aggregates:
        for name, a in agg.items():
            m = out.setdefault(name, {"self_ns": 0, "total_ns": 0, "calls": 0})
            for k in m:
                m[k] += a[k]
    return out


def coverage(agg: dict, root: str, ignore=()) -> float:
    """Share of the ``root`` spans' time that named layers account for:
    Σ self time of every span but ``root`` and ``ignore`` ÷ Σ duration of
    the root spans."""
    total = agg.get(root, {}).get("total_ns", 0)
    if not total:
        return 0.0
    skip = {root, *ignore}
    inner = sum(a["self_ns"] for name, a in agg.items() if name not in skip)
    return inner / total
