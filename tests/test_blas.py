"""``_blas.map_on_cores``: the calling thread and its helpers under the
OpenBLAS hold, and the package's only threads."""

import ast
import contextvars
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from gmmood import _blas
from pooled import HELPER

PACKAGE = Path(_blas.__file__).parent


class CountedBlas:
    """A stand-in OpenBLAS: its thread count, and every count it was set to."""

    def __init__(self, threads):
        self.threads, self.set_to = threads, []

    def get(self):
        return self.threads

    def put(self, n):
        self.threads = n
        self.set_to.append(n)


@pytest.fixture
def blas(monkeypatch):
    """A stand-in OpenBLAS at four threads, as the only one found."""
    fake = CountedBlas(4)
    monkeypatch.setattr(_blas, "_found", [(fake.get, fake.put)])
    return fake


@pytest.fixture
def two_cpus(monkeypatch, blas):
    """Two usable CPUs, so one helper beside the calling thread."""
    monkeypatch.setattr(_blas, "_cpus", lambda: 2)
    return blas


@pytest.fixture(params=["pooled", "serial"])
def mode(request, monkeypatch):
    if request.param == "serial":
        monkeypatch.setattr(_blas, "_found", [])
    return request.param


@pytest.mark.parametrize("n", [0, 1, 2, 37])
def test_results_come_back_in_item_order(mode, n):
    """Items of uneven length, so that they finish out of order on a pool."""

    def work(i):
        time.sleep(0.002 * ((7 * i) % 5))
        return i * i

    assert _blas.map_on_cores(work, iter(range(n))) == [i * i for i in range(n)]


def test_no_more_than_cpus_items_run_at_once(blas):
    in_flight, most, lock = [0], [0], threading.Lock()
    names = set()

    def work(i):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
            names.add(threading.current_thread().name)
        time.sleep(0.003)
        with lock:
            in_flight[0] -= 1

    _blas.map_on_cores(work, range(4 * _blas._cpus() + 3))
    assert 1 <= most[0] <= _blas._cpus()
    caller = threading.current_thread().name
    assert caller in names and len(names) <= _blas._cpus()
    assert all(name == caller or name.startswith(HELPER) for name in names)


@pytest.mark.parametrize("item0", ["returns", "raises"])
def test_a_failure_stops_new_items_and_raises_the_lowest_index_once_all_return(two_cpus, item0):
    """Item 1 raises while item 0 runs on the other thread; item 0 then
    finishes, and no item after 1 starts.  The error raised is item 0's
    when it raised too, though item 1's came first, and otherwise item 1's."""
    started, finished = [], []
    one_raised = threading.Event()

    def work(i):
        started.append(i)
        if i == 1:
            one_raised.set()
            raise ValueError("item 1")
        if i == 0:
            assert one_raised.wait(30)
            time.sleep(0.2)  # item 1's failure is recorded meanwhile
        finished.append(i)
        if item0 == "raises":
            raise KeyError(f"item {i}")

    expected = KeyError if item0 == "raises" else ValueError
    with pytest.raises(expected):
        _blas.map_on_cores(work, range(10))
    assert sorted(started) == [0, 1]
    assert finished == [0]
    assert two_cpus.threads == 4 and two_cpus.set_to == [1, 4]
    assert _blas._holders == 0
    assert [t.name for t in threading.enumerate() if t.name.startswith(HELPER)] == []


def test_serial_failure_raises_at_once(monkeypatch):
    monkeypatch.setattr(_blas, "_found", [])
    started = []

    def work(i):
        started.append(i)
        if i == 2:
            raise ValueError(i)

    with pytest.raises(ValueError, match="^2$"):
        _blas.map_on_cores(work, range(6))
    assert started == [0, 1, 2]


def test_each_item_runs_in_a_fresh_copy_of_the_callers_context(mode):
    """A context variable set by one item is not seen by the next on the
    same thread, nor by the caller afterwards; the caller's value is."""
    var = contextvars.ContextVar("var")
    token = var.set("caller")
    try:
        seen = _blas.map_on_cores(
            lambda i: (threading.current_thread().name, var.get(), var.set(i)), range(12)
        )
        assert [value for _, value, _ in seen] == ["caller"] * 12
        assert len({name for name, _, _ in seen}) <= _blas._cpus()
        assert var.get() == "caller"
    finally:
        var.reset(token)


# ---------------------------------------------------------------------------
# the package's only threads


def modules():
    return sorted(PACKAGE.glob("*.py"))


def test_only_blas_starts_threads_or_imports_concurrent_futures():
    """``_blas.map_on_cores`` is the package's one pool: no other module
    starts a ``threading.Thread``, and none imports ``concurrent.futures``."""
    assert PACKAGE / "_blas.py" in modules()
    for path in modules():
        tree = ast.parse(path.read_text(), str(path))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert not [name for name in imported if name.split(".")[0] == "concurrent"], path.name
        if path.name == "_blas.py":
            continue
        threads = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "Thread"
                   or isinstance(node, ast.alias) and node.name == "Thread"]
        assert threads == [], path.name


def test_importing_the_cli_leaves_concurrent_futures_unimported():
    """Every CLI process pays what ``gmmood.cli`` imports."""
    code = "import sys, gmmood.cli; print('concurrent.futures' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
