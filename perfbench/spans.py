"""In-memory span tracing around the program's public functions.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span: id, parent id, name, start, end,
thread and an optional work count.  Each thread keeps its own stack of
open spans and its own list of finished spans; a span opened on a thread
with an empty stack (a worker of a thread pool) takes the innermost
open span of the installing thread as its parent, which is the command
that submitted the work.  Nothing is written until ``dump``.

``self_times`` splits a command's wall time over the spans below it:
at every instant the time goes to the innermost running spans, shared
equally when several threads run at once.  On one thread that is each
span's duration minus the time its children cover; with threads it still
sums exactly to the command's wall time.
"""

import contextlib
import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

ID, PARENT, NAME, START, END, THREAD, COUNT = range(7)


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lists = []
        self._lists_lock = threading.Lock()
        self._home = self._stack()

    def _stack(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lists_lock:
                self._lists.append(state[1])
        return state

    def _open(self):
        stack, done = self._stack()
        sid = next(self._ids)
        home = self._home[0]
        parent = stack[-1] if stack else (home[-1] if home else 0)
        stack.append(sid)
        return sid, parent, stack, done

    def wrap(self, name, fn, counter=None):
        """Return ``fn`` recording a span per call; ``counter(args, kwargs,
        result)`` gives the work count of a call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack, done = self._open()
            start = perf_counter()
            count = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                done.append((sid, parent, name, start, end, threading.get_ident(), count))

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        sid, parent, stack, done = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            done.append((sid, parent, name, start, end, threading.get_ident(), 0))

    def install(self, modules, extra=(), counters=None):
        """Wrap every public function defined in ``modules`` as
        ``<module short name>.<function>``, rebinding it wherever any
        of ``modules`` holds a reference (``from x import f`` copies),
        plus each ``(module, attribute, span name)`` in ``extra``."""
        counters = counters or {}
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, counters.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        for mod, attr, name in extra:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), counters.get(name)))

    def spans(self):
        with self._lists_lock:
            return [s for lst in self._lists for s in lst]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


# ---------------------------------------------------------------------------
# analysis


def subtree(spans, root_id):
    """All spans at or below ``root_id``."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    by_id = {s[ID]: s for s in spans}
    out, todo = [], [by_id[root_id]]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children[s[ID]])
    return out


def self_times(tree):
    """Exclusive wall time per span id over one span tree.

    Sweeps the start and end events in time order; each interval between
    events is shared equally by the running spans that have no running
    child.  The results are non-negative and sum to the root's duration.
    """
    events = []
    for s in tree:
        events.append((s[START], 1, s[ID], s))
        events.append((s[END], 0, -s[ID], s))
    events.sort(key=lambda e: e[:3])
    running_children = defaultdict(int)
    running = set()
    leaves = set()
    share = defaultdict(float)
    last = events[0][0]
    for t, kind, _, s in events:
        if leaves and t > last:
            dt = (t - last) / len(leaves)
            for sid in leaves:
                share[sid] += dt
        last = t
        sid, parent = s[ID], s[PARENT]
        if kind == 1:
            running.add(sid)
            leaves.add(sid)
            if parent in running:
                running_children[parent] += 1
                leaves.discard(parent)
        else:
            running.discard(sid)
            leaves.discard(sid)
            if parent in running:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    leaves.add(parent)
    return {s[ID]: share[s[ID]] for s in tree}
