"""In-memory spans around attribute calls, with every original restored.

A `Tracer` replaces module or class attributes with wrappers. Each call
of a wrapped attribute records one span: a name, a start and an end on
the `perf_counter` clock, the id of the enclosing span, and attributes a
hook derives from the call. Hooks run after the call, each inside its own
`trace.hook` span, so their cost is neither charged to the wrapped call
nor hidden in its parent's self time. Spans stay in memory until the
caller reads `Tracer.spans`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


def thread_count() -> int:
    """Native threads of this process (BLAS pools included) where /proc has them."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


class Tracer:
    """Context manager: wraps attributes with `wrap`/`count`, restores them on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []  # attributes that were not there to wrap
        self.threads_max = thread_count()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Call fn inside a span, then hook(attrs, args, kwargs, result) in a trace.hook span."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.threads_max = max(self.threads_max, thread_count())
        if hook is not None:
            self.call("trace.hook", hook, (rec["attrs"], args, kwargs or {}, result))
        return result

    def wrap_with(self, owner, attr, make_wrapper) -> bool:
        """Install make_wrapper(original) as owner.attr, restored on exit."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def wrap(self, owner, attr, name, hook=None) -> bool:
        """Record a span `name` around every call of owner.attr."""
        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, hook)
            return wrapper
        return self.wrap_with(owner, attr, make)

    def count(self, owner, attr, key) -> bool:
        """Count calls of owner.attr under `key`, without a span per call."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return original(*args, **kwargs)
            return wrapper
        return self.wrap_with(owner, attr, make)


def durations(spans) -> dict[int, float]:
    return {s["id"]: s["end"] - s["start"] for s in spans}


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = durations(spans)
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += own[s["id"]]
    return {i: d - children[i] for i, d in own.items()}


def nearest(spans, span, names) -> dict | None:
    """The closest enclosing span whose name is in `names`."""
    by_id = {s["id"]: s for s in spans}
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] in names:
            return by_id[parent]
        parent = by_id[parent]["parent"]
    return None
