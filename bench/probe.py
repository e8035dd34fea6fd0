"""Measurement helpers for the ogen benchmark.

Everything here observes the program from outside: it replaces the names
a caller looks up (module attributes bound at import, or methods on a
class) with timing wrappers, records spans in memory, and restores every
replaced name when the measurement ends. Nothing under ``src/`` knows it
is being measured.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
import weakref

import numpy as np

clock = time.perf_counter

# Candidate tail percentiles, highest first; see tail_percentile().
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail_percentile(samples, beyond: int = 10):
    """The highest percentile in TAIL_PERCENTILES that has at least
    ``beyond`` samples above it, as (percentile, value), or None when
    even the median has fewer.

    Uses the nearest-rank percentile: the p-th percentile of n sorted
    samples is the one at 1-based rank ceil(p/100 * n), and the samples
    beyond it are the n - rank that follow it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        permille = round(p * 10)  # integer arithmetic: 99.9% of 10000 is 9990
        rank = max(1, -(-permille * n // 1000))
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


def calibration_seconds() -> float:
    """Geometric mean of the wall times of three fixed loops that run no
    ogen code: numpy on 64x50 score matrices (cosine scores, column norms,
    softmax), plain Python dict arithmetic, and Python looping over small
    numpy slices. A default-scale epoch is a mix of these, so the host's
    speed moves them as it moves the workload; on a shared host their mean
    tracks it better than any one of them."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 50)), rng.standard_normal((64, 64))
    t0 = clock()
    for _ in range(100):
        s = a.T @ b
        s = s / np.linalg.norm(s, axis=0)
        e = np.exp(s - s.max(axis=0))
        e /= e.sum(axis=0)
    t1 = clock()
    d = {}
    for i in range(20000):
        d[i & 255] = d.get(i & 255, 0) + i * i
    t2 = clock()
    for _ in range(8):
        s = a.T @ b
        for k in range(8):
            np.maximum(s[4 * k : 4 * k + 4] * 2.0 + 1.0, 0).sum(axis=1)
        s = s / np.linalg.norm(s, axis=0)
        e = np.exp(s - s.max(axis=0))
        e /= e.sum(axis=0)
        [float(x) for x in e[0]]
    t3 = clock()
    return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)


def write_seconds(path, size: int = 3_200_000) -> float:
    """Wall time of rewriting a ``size``-byte file in place, as
    ``ogen train`` rewrites its 3.2 MB state.bin every epoch: the median
    of the second and third of three rewrites, each of which waits for
    the disk to take the previous one. Removes the file."""
    data = bytes(size)
    times = []
    for _ in range(3):
        t0 = clock()
        with open(path, "wb") as fh:
            fh.write(data)
        times.append(clock() - t0)
    os.remove(path)
    return statistics.median(times[1:])


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Patches:
    """Replaces attributes for the life of a ``with`` block.

    ``wrap(owner, name, make)`` sets ``owner.name = make(original)``. On
    exit every replaced name gets its original value back, newest first,
    so a name wrapped twice ends up as it started, also when the block
    raises.
    """

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Span:
    """One timed interval: name, start, end, the span that caused it,
    the thread it ran on, and free-form attributes."""

    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one open-span stack per thread.

    ``active`` switches recording on and off; the wrappers it makes cost
    one attribute test when it is off.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent=None) -> Span:
        """Start a span under this thread's innermost open span, or under
        ``parent`` when the thread has none (work handed to a pool)."""
        stack = self._stack()
        span = Span(name, clock(), stack[-1] if stack else parent, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    def seen_matrices(self) -> dict:
        """Per-thread map id -> weakref of the class matrices scored since
        the last reset_seen() on this thread."""
        seen = getattr(self._local, "seen", None)
        if seen is None:
            seen = self._local.seen = {}
        return seen

    def reset_seen(self) -> None:
        self._local.seen = {}

    def timed(self, name: str, before=None, after=None):
        """Wrapper factory for Patches.wrap: times each call as a span named
        ``name``. ``before(args)`` may return attributes for the span,
        computed before the clock starts; ``after(span, args, result)``
        may annotate it once the call has returned."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                attrs = before(args) if before is not None else None
                span = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if attrs:
                    span.attrs.update(attrs)
                if after is not None:
                    after(span, args, result)
                return result

            return wrapper

        return make

    def scored(self, name: str, matrix_arg: int):
        """Like timed(), and marks the span ``redundant`` when its class
        matrix (positional argument ``matrix_arg``) is the very array an
        earlier objective call on this thread scored since reset_seen()."""

        def before(args):
            matrix = args[matrix_arg]
            seen = self.seen_matrices()
            ref = seen.get(id(matrix))
            redundant = ref is not None and ref() is matrix
            if not redundant:
                seen[id(matrix)] = weakref.ref(matrix)
            return {"redundant": redundant}

        return self.timed(name, before=before)


def children(spans):
    """Map each span to the list of spans it directly caused."""
    kids = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_time(span: Span, kids: dict) -> float:
    """Duration minus the part of it that its direct children cover;
    children running in parallel threads are counted once."""
    covered = 0.0
    reach = span.start
    for start, end in sorted((c.start, c.end) for c in kids.get(span, ())):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_time_by_layer(spans) -> dict:
    """Seconds of self time per layer (first component of the span name)."""
    kids = children(spans)
    totals = {}
    for span in spans:
        if span.end is None:
            continue
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + self_time(span, kids)
    return totals


def write_spans(spans, path) -> None:
    """One JSON object per line: id, name, start, end, parent id, thread,
    attributes. Times are seconds on the perf_counter clock."""
    ids = {span: i for i, span in enumerate(spans)}
    with open(path, "w") as fh:
        for span in spans:
            fh.write(
                json.dumps(
                    {
                        "id": ids[span],
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": ids.get(span.parent),
                        "thread": span.thread,
                        **({"attrs": span.attrs} if span.attrs else {}),
                    }
                )
                + "\n"
            )
