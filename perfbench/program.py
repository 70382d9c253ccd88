"""Runs the program's CLI in one fresh process, as the benchmark's plan says.

Usage: ``python3 perfbench/program.py <plan.json>``, with ``src`` on
``PYTHONPATH``.  The plan lists CLI commands (argument lists for
``gmmood.cli.main``); the process imports the package once, then repeats
the commands while the next repetition is expected to end within the
plan's time budget (always once).  Before each repetition it removes the
plan's output directory, after it digests it.  With ``trace`` set,
every public function of the package's modules records spans, which are
written out when the run ends.  The result file holds per-command exit
codes and wall times, output digests, peak RSS and provenance.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

from layers import COUNTERS
from spans import Tracer


def digest_tree(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# (prefix, suffix) of the OpenBLAS query symbols in the builds numpy and
# scipy ship (64-bit-integer scipy-openblas, 32-bit, and plain OpenBLAS)
SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_info() -> list:
    """Version string and thread count of each OpenBLAS this process loaded."""
    found = []
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in SYMBOLS:
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            entry.update(config=config().decode(), threads=threads())
            break
        found.append(entry)
    return found


def provenance() -> dict:
    import numpy
    import scipy

    import gmmood

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gmmood": gmmood.__version__,
        "openblas": openblas_info(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_rep(cli, commands, tracer) -> list:
    done = []
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("bench.rep"):
        for argv in commands:
            with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = cli.main(argv)
                seconds = perf_counter() - start
            done.append({"command": argv[0], "code": code, "seconds": seconds})
            if code != 0:
                break
    return done


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    from gmmood import cli, ensemble, formats, gmm, metrics, nig, rangeview

    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install(
            [rangeview, formats, gmm, nig, ensemble, metrics, cli],
            extra=[(ensemble, "logsumexp", "ensemble.logsumexp")],
            counters=COUNTERS,
        )
    out = Path(plan["out"]) if plan["out"] else None
    reps = []
    spent = 0.0
    while True:
        if out:
            shutil.rmtree(out, ignore_errors=True)
        commands = run_rep(cli, plan["commands"], tracer)
        seconds = sum(c["seconds"] for c in commands)
        reps.append(
            {"commands": commands, "seconds": seconds, "digests": digest_tree(out) if out else {}}
        )
        spent += seconds
        if any(c["code"] != 0 for c in commands) or spent + seconds >= plan["seconds"]:
            break
    result = {
        "reps": reps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "provenance": provenance(),
    }
    Path(plan["result"]).write_text(json.dumps(result))
    if tracer:
        tracer.dump(plan["spans"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
