"""Hold OpenBLAS at one thread while the caller runs threads of its own.

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
"""

import contextlib
import ctypes
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
