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
over their files.  The calling thread works the items itself beside one
helper thread per other usable CPU (named ``gmmood-score``), all started
and joined inside ``single_thread()``, since OpenBLAS's own threads
would fight them; so no item outlives the hold.  Each thread takes the
next item index from one shared counter and stores the item's result at
that index, so the caller waits on no per-item handle and the results
come back in item order.  Where no OpenBLAS is found the items run one
after another on the calling thread.  Each item runs in a fresh copy of
the caller's context, so a caller's ``np.errstate`` holds in it and a
context variable one item sets is not seen by the next, and returns its
own result, so what the caller assembles is bit-identical to the serial
path.  Once an item raises, no further item starts; the lowest failing
index's exception is raised once no item is running, which is the one a
serial run raises, since every lower index was taken first.  Overlapping
calls each start their own helpers; the hold is reference-counted, so
OpenBLAS stays at one thread until the last of them returns.
"""

import contextlib
import contextvars
import ctypes
import itertools
import os
import re
import threading

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


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def map_on_cores(work, items) -> list:
    """``[work(i) for i in items]``, worked by the calling thread and one
    helper per other CPU while OpenBLAS is held at one thread, or by the
    calling thread alone where no OpenBLAS is found.  Returns only once
    no item is running, also when one raised."""
    items = list(items)
    results = [None] * len(items)
    failed = {}  # index -> the exception its item raised
    taken = itertools.count()
    context = contextvars.copy_context()

    def run():
        while not failed and (i := next(taken)) < len(items):
            try:
                results[i] = context.copy().run(work, items[i])
            except BaseException as exc:
                failed[i] = exc

    with single_thread() as held:
        n_helpers = min(_cpus(), len(items)) - 1 if held else 0
        helpers = []
        try:
            for k in range(n_helpers):
                helper = threading.Thread(target=run, name=f"gmmood-score_{k}")
                helper.start()
                helpers.append(helper)
            run()
        finally:
            for helper in helpers:
                helper.join()
    if failed:
        raise failed[min(failed)]
    return results
