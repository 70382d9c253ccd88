"""Which thread ran each item of ``_blas.map_on_cores``, shared by the tests.

The calling thread works the pool beside its ``gmmood-score`` helpers, so
a fast caller could take every item before a helper is scheduled.
``record_items`` therefore holds the caller in its first logged item
until a helper has logged one (or none is left running), which makes
"some item ran on a helper" hold whatever the scheduling, wherever
helpers exist."""

import threading
import time

from gmmood import _blas

HELPER = "gmmood-score"


def blas_threads() -> tuple:
    """The thread count of each OpenBLAS found."""
    return tuple(get() for get, _ in _blas._libraries())


def record_items(monkeypatch, owner, attr) -> list:
    """Replace ``owner.attr``, which each pooled item calls, with one that
    logs (thread name, OpenBLAS thread counts) per call; returns the log."""
    log, lock, helper_logged = [], threading.Lock(), threading.Event()
    inner = getattr(owner, attr)

    def recording(*args, **kwargs):
        name = threading.current_thread().name
        if name.startswith(HELPER):
            helper_logged.set()
        deadline = time.monotonic() + 30
        while (not helper_logged.is_set() and time.monotonic() < deadline
               and any(t.name.startswith(HELPER) for t in threading.enumerate())):
            helper_logged.wait(0.01)
        with lock:
            log.append((name, blas_threads()))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, recording)
    return log


def assert_pooled(log):
    """Every logged item ran on the calling thread or a helper, with each
    OpenBLAS found at one thread, and one ran on a helper when there were
    helpers to run it: 2 or more items and CPUs, and an OpenBLAS to hold."""
    caller = threading.current_thread().name
    names = [name for name, _ in log]
    assert all(name == caller or name.startswith(HELPER) for name in names)
    assert all(counts == (1,) * len(_blas._libraries()) for _, counts in log)
    if len(log) >= 2 and _blas._cpus() >= 2 and _blas._libraries():
        assert any(name.startswith(HELPER) for name in names)
