"""Hold OpenBLAS at one thread while the package runs threads of its own.

OpenBLAS fans each matrix product out over every core, and its threads
spin while they wait for work; several threads of ours each calling it
then fight its threads for the cores.  ``single_thread()`` is a
reference-counted context manager: while any caller is inside it, every
OpenBLAS the process has loaded runs one thread, and the count each had
when the first caller entered is restored when the last one leaves,
also on an exception.  It yields whether an OpenBLAS was found; where
none is (not Linux, or numpy built on MKL or Accelerate) it changes
nothing and yields False.

The libraries are the OpenBLAS builds the process has mapped
(``/proc/self/maps``), looked up once, on first use, so importing this
module costs nothing.

``map_on_cores(work, items)`` is the one thread pool of the package:
scoring maps it over a scan's blocks of pixels, fitting over its
training scans and then over the classes, and ``project`` and ``eval``
over their files.  The items of a call run on a
pool of its own, one thread per usable CPU, opened and closed inside
``single_thread()``, since OpenBLAS's own threads would fight the
pool's; so no item outlives the hold.  Where no OpenBLAS is found the
items run one after another on the calling thread.  Each item runs in a
copy of the caller's context, so a caller's ``np.errstate`` holds in it,
and returns its own result, so what the caller assembles is
bit-identical to the serial path.  The results come back in item order; an
error is raised from the first item that failed, once no item is
running.  Overlapping calls each get their own pool; the hold is
reference-counted, so OpenBLAS stays at one thread until the last of
them returns.
"""

import contextlib
import contextvars
import ctypes
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor

# (prefix, suffix) of the thread-count symbols in the builds numpy and
# scipy ship: 64-bit-integer scipy-openblas, 32-bit, and plain OpenBLAS
_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))

_lock = threading.Lock()
_found = None  # [(get_num_threads, set_num_threads)], once looked up
_holders = 0
_saved = ()


def _lookup() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
            break
    return found


def _libraries() -> list:
    global _found
    with _lock:
        if _found is None:
            _found = _lookup()
        return _found


@contextlib.contextmanager
def single_thread():
    """Hold every OpenBLAS found at one thread; yields whether any was."""
    global _holders, _saved
    libraries = _libraries()
    with _lock:
        if _holders == 0:
            _saved = tuple(get() for get, _ in libraries)
            for _, put in libraries:
                put(1)
        _holders += 1
    try:
        yield bool(libraries)
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for (_, put), count in zip(libraries, _saved):
                    put(count)


def map_on_cores(work, items) -> list:
    """``[work(i) for i in items]``, on a pool that lives only for the
    call while OpenBLAS is held at one thread, or serially where no
    OpenBLAS is found.  Returns only once no item is running, also when
    one raised."""
    with single_thread() as held:
        if not held:
            return list(map(work, items))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pool = ThreadPoolExecutor(cpus or 1, thread_name_prefix="gmmood-score")
        try:
            # each item runs in a copy of the caller's context, so that its
            # numpy errstate (a context variable) holds on the pool threads
            futures = [pool.submit(contextvars.copy_context().run, work, i) for i in items]
            return [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
