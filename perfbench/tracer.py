"""Outside-in tracer for the mhmelast benchmark.

The tracer replaces entry points of the package's modules with wrappers that
record one span per call (name, start, end, parent) in memory.  It works from
the benchmark's own files: nothing in the package is edited, and every wrapper
is restored when the `installed` context exits.

Spans are thread-aware.  Each thread keeps its own stack of open spans; a span
opened on a thread with an empty stack (a worker of the local-solve pool)
takes as parent the innermost span open on the thread that created the
tracer, which is the solve span that started the pool.  Self time is a span's
duration minus the union of its children's intervals, so children running in
parallel never drive it negative.
"""

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "mhmelast"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent          # index into Tracer.spans, or None
        self.thread = thread

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread}


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.absent = []              # entry points or hooks not found
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        """Start a span on the calling thread; returns its index."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home and stack is not home else None
        span = Span(name, self.clock(), parent, threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def add(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def peak(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def wrap(self, fn, name, hook=None):
        """Wrapper recording a span named `name` around every call of `fn`;
        `hook(tracer, result)` records counts taken from the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    hook(self, result)
                except (AttributeError, TypeError, IndexError):
                    self._mark_absent(f"{name} (result hook)")
            return result

        return traced

    def _mark_absent(self, what):
        with self._lock:
            if what not in self.absent:
                self.absent.append(what)

    @contextmanager
    def installed(self, entry_points):
        """Wrap `(module, attribute, hook)` entry points of the package for
        the duration of the block.

        A class is traced through its `__init__`.  A function defined in the
        package is replaced in every package module that holds it, so calls
        through `from .x import f` are seen too; a foreign function (such as
        scipy's `splu`) is replaced only in the named module, so it is traced
        as called from there.  Entry points that do not exist are listed in
        `absent` instead of failing.
        """
        restore = []
        try:
            for modname, attr, hook in entry_points:
                name = f"{modname}.{attr}"
                try:
                    mod = importlib.import_module(f"{PACKAGE}.{modname}")
                except ImportError:
                    self._mark_absent(name)
                    continue
                obj = getattr(mod, attr, None)
                if obj is None:
                    self._mark_absent(name)
                elif isinstance(obj, type):
                    init = obj.__dict__.get("__init__")
                    if init is None:
                        self._mark_absent(name)
                        continue
                    restore.append((obj, "__init__", init))
                    obj.__init__ = self.wrap(init, name, hook)
                else:
                    traced = self.wrap(obj, name, hook)
                    own = getattr(obj, "__module__", "") or ""
                    if own == PACKAGE or own.startswith(PACKAGE + "."):
                        holders = [m for n, m in list(sys.modules.items())
                                   if n == PACKAGE
                                   or n.startswith(PACKAGE + ".")]
                    else:
                        holders = [mod]
                    for holder in holders:
                        if getattr(holder, attr, None) is obj:
                            restore.append((holder, attr, obj))
                            setattr(holder, attr, traced)
            yield self
        finally:
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)

    # ----------------------------------------------------------- analysis

    def self_times(self):
        """Self seconds of every span, in span order."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for idx, span in enumerate(self.spans):
            covered = union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(idx, ())])
            out.append(max(0.0, (span.end - span.start) - covered))
        return out

    def summary(self):
        """name -> (calls, total seconds, self seconds)."""
        selfs = self.self_times()
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for span, s in zip(self.spans, selfs):
            calls[span.name] += 1
            total[span.name] += span.end - span.start
            own[span.name] += s
        return {n: (calls[n], total[n], own[n]) for n in calls}


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
