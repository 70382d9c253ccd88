"""The repository's benchmark: the gmmood CLI on seeded inputs at paper shapes.

Usage, from the repository root::

    python3 perfbench/run.py                      # every workload, all metrics
    python3 perfbench/run.py --workload score-d32 --seed 3 --seconds 10 --trace 0

Each workload generates its inputs from ``--seed`` under
``.perfbench_work/``, times the program's set-up (a fresh process
importing the package, plus the fit on score-d32) several times, then
runs its timed phase of CLI commands in a fresh process for about
``--seconds``, and checks every output against an independent reference
(``reference.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` additionally repeats the timed phase with every public
function of the package traced (``spans.py``) and reports the per-layer
metrics (``layers.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (CLI commands run and
failed) and ``metrics``.  The exit code is 0 only when every command
succeeded and every output passed the gate.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import layers
import reference
import workloads as wl
from program import BLAS_ENV
from spans import ID, NAME, PARENT, subtree

WORK = Path(".perfbench_work")
SETUP_RUNS = 5
DEADLINE_S = 170.0
SAMPLE_PER_SCAN = 240
CLI_SEED = "0"
END_TO_END = (("px_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# reported on the workloads that produce them, not gated by bounds:
# the outputs they derive from are checked exactly by the gate
QUALITY = ("auroc_epistemic", "auprc_epistemic", "fpr95_epistemic", "miou")


def model_args(dim: int) -> list:
    return ["--classes", str(wl.C), "--components", str(wl.K), "--feature-dim", str(dim),
            "--seed", CLI_SEED]


def score_args(dim: int, jobs: int) -> list:
    return ["--n-samples", str(wl.M), "--top-fraction", str(wl.TOP_FRACTION),
            "--jobs", str(jobs), *model_args(dim)]


@dataclass
class Plan:
    """A workload's generated inputs and what the program does with them."""

    inputs: wl.Inputs
    timed: list  # CLI commands of one timed repetition
    out: Path  # removed before and digested after each repetition
    check: Callable  # (stats) -> failure messages
    setup: list = field(default_factory=list)  # CLI commands run by each set-up process
    setup_out: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    jobs: int  # --jobs of the score command
    blas_threads: int | None  # None leaves OpenBLAS at its default
    prepare: Callable  # (seed, root) -> Plan


# score-d32 exists because scoring is the deployment path and the slowest
# stage: at D=32 log-density arithmetic is almost all of the time, so a
# scoring-kernel change shows here first.
def prepare_score_d32(seed: int, root: Path) -> Plan:
    inputs = wl.make_feature_workload(seed, root, n_train=2, n_score=1, dim=32)
    model, out = root / "model", root / "out"
    m_path, b_path = model / "model.gmmc", model / "bank.nigb"
    score = root / "score"
    fit = ["fit", "--feature-dir", root / "train" / "features",
           "--label-dir", root / "train" / "labels", "--out", model, *model_args(32)]
    timed = [
        ["score", "--feature-dir", score / "features", "--model-path", m_path,
         "--bank-path", b_path, "--out", out, *score_args(32, 1)],
        ["eval", "--label-dir", score / "labels", "--score-dir", out, "--out", out / "eval",
         *model_args(32)],
    ]

    def check(stats):
        return (
            reference.check_fit(m_path, b_path, inputs.train_samples, stats, inputs.gen_means)
            + reference.check_scores(
                out, score / "features", m_path, b_path, n_samples=wl.M, seed=int(CLI_SEED),
                top_fraction=wl.TOP_FRACTION, sample_per_scan=SAMPLE_PER_SCAN,
                rng=np.random.default_rng([seed, 1]), focus=inputs.far_ood, stats=stats)
            + reference.check_eval(out / "eval", out, score / "labels", wl.C, stats)
        )

    return Plan(inputs, timed, out, check, setup=[fit], setup_out=model)


# range-d5 exists because it is the self-contained run of the README and
# the only one through rangeview and the threaded --jobs path.  At D=5
# per-call overhead outweighs arithmetic, so a change that only wins at
# large D reads flat or worse here.
def prepare_range_d5(seed: int, root: Path) -> Plan:
    inputs = wl.make_range_workload(seed, root, n_scans=2)
    out = root / "out"
    m_path, b_path = out / "model.gmmc", out / "bank.nigb"
    timed = [
        ["project", "--scan-dir", root / "scans", "--label-dir", root / "labels_raw",
         "--out", out],
        ["fit", "--feature-dir", out / "range", "--label-dir", out / "labels", "--out", out,
         *model_args(5)],
        ["score", "--feature-dir", out / "range", "--out", out, *score_args(5, 2)],
        ["eval", "--label-dir", out / "labels", "--score-dir", out, "--out", out / "eval",
         *model_args(5)],
    ]

    def check(stats):
        failures = reference.check_projection(root / "scans", root / "labels_raw", out, stats)
        if failures:
            return failures
        inputs.valid_pixels, inputs.ood_pixels = stats["valid_pixels"], stats["ood_pixels"]
        inputs.train_samples = stats.pop("train_samples")
        outliers = {
            p.stem: reference.ground_truth(reference.read_fmap(p)[0][:, :, 0])[1]
            for p in (out / "labels").glob("*.fmap")
        }
        return (
            reference.check_fit(m_path, b_path, inputs.train_samples, stats)
            + reference.check_scores(
                out, out / "range", m_path, b_path, n_samples=wl.M, seed=int(CLI_SEED),
                top_fraction=wl.TOP_FRACTION, sample_per_scan=SAMPLE_PER_SCAN,
                rng=np.random.default_rng([seed, 1]), focus=outliers, stats=stats)
            + reference.check_eval(out / "eval", out, out / "labels", wl.C, stats)
        )

    return Plan(inputs, timed, out, check)


# fit-d32 exists to measure training turnaround: EM dominates and no
# scoring code runs, so a score-only change must read unchanged here
# while an EM E-step that reuses a new kernel shows.
def prepare_fit_d32(seed: int, root: Path) -> Plan:
    inputs = wl.make_feature_workload(seed, root, n_train=4, n_score=0, dim=32)
    out = root / "out"
    timed = [["fit", "--feature-dir", root / "train" / "features",
              "--label-dir", root / "train" / "labels", "--out", out, *model_args(32)]]

    def check(stats):
        return reference.check_fit(out / "model.gmmc", out / "bank.nigb", inputs.train_samples,
                                   stats, inputs.gen_means)

    return Plan(inputs, timed, out, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("score-d32", 32, 1, None, prepare_score_d32),
        Workload("range-d5", 5, 2, 1, prepare_range_d5),
        Workload("fit-d32", 32, 1, None, prepare_fit_d32),
    )
}


# ---------------------------------------------------------------------------
# running the program


class ProgramError(Exception):
    pass


def program_env(blas_threads):
    env = dict(os.environ)
    for key in BLAS_ENV:
        env.pop(key, None)
        if blas_threads:
            env[key] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_program(root: Path, env, commands, *, out, seconds=0.0, trace=False, deadline):
    """Run ``program.py`` once; returns (result dict, spans or None, wall s)."""
    tag = f"{'trace' if trace else 'plain'}-{time.monotonic_ns()}"
    plan = {
        "commands": [[str(a) for a in argv] for argv in commands],
        "out": str(out) if out else None,
        "seconds": seconds,
        "trace": trace,
        "result": str(root / f"{tag}.result.json"),
        "spans": str(root / f"{tag}.spans.json"),
    }
    plan_path = root / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan))
    program = Path(__file__).with_name("program.py")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ProgramError("out of time before starting the program")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(program), str(plan_path)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ProgramError(f"program did not finish within {remaining:.0f} s") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise ProgramError(f"program exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(Path(plan["result"]).read_text())
    for rep in result["reps"]:
        for cmd in rep["commands"]:
            if cmd["code"] != 0:
                raise ProgramError(
                    f"gmmood {cmd['command']} exited {cmd['code']}:\n{proc.stderr[-2000:]}"
                )
    spans = json.loads(Path(plan["spans"]).read_text()) if trace else None
    return result, spans, wall


def rep_trees(spans):
    """Span trees of each timed repetition, in order."""
    return [subtree(spans, s[ID]) for s in sorted(spans, key=lambda s: s[ID])
            if s[NAME] == "bench.rep" and s[PARENT] == 0]


def source_provenance() -> dict:
    commit = None
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": h.hexdigest(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}


def run_workload(wk: Workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Generate, set up, time, check; returns the workload's report."""
    root = WORK / wk.name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    plan = wk.prepare(seed, root)
    env = program_env(wk.blas_threads)
    failures = []
    attempted = 0

    setup_s, setup_digests = [], set()
    for _ in range(SETUP_RUNS):
        res, _, wall = run_program(root, env, plan.setup, out=plan.setup_out, deadline=deadline)
        setup_s.append(wall)
        attempted += len(plan.setup)
        setup_digests.add(json.dumps(res["reps"][0]["digests"], sort_keys=True))
    if len(setup_digests) > 1:
        failures.append("set-up runs wrote different model or bank bytes")

    result, _, _ = run_program(root, env, plan.timed, out=plan.out, seconds=seconds,
                               deadline=deadline)
    attempted += sum(len(r["commands"]) for r in result["reps"])
    reps = result["reps"]
    digests = {json.dumps(r["digests"], sort_keys=True) for r in reps}

    if trace:
        setup_trees = []
        if plan.setup:
            _, spans, _ = run_program(root, env, plan.setup, out=plan.setup_out, trace=True,
                                      deadline=deadline)
            setup_trees = rep_trees(spans)
            attempted += len(plan.setup)
        traced, spans, _ = run_program(root, env, plan.timed, out=plan.out, seconds=seconds,
                                       trace=True, deadline=deadline)
        attempted += sum(len(r["commands"]) for r in traced["reps"])
        digests |= {json.dumps(r["digests"], sort_keys=True) for r in traced["reps"]}
        trees = rep_trees(spans)
    if len(digests) > 1:
        failures.append("repetitions wrote different output bytes")

    stats = {}
    failures += plan.check(stats)

    def px_per_s(res):
        return statistics.median(plan.inputs.valid_pixels / r["seconds"] for r in res["reps"])

    quality = {k: stats[k] for k in QUALITY if k in stats}
    manifests = [json.loads(p.read_text())["files"] for p in
                 (plan.out / "project_manifest.json", plan.out / "score_manifest.json")
                 if p.exists()]
    if manifests:
        entries = [e for files in manifests for e in files]
        quality["failed_frac"] = sum("error" in e for e in entries) / len(entries)
    outputs = reps[-1]["digests"]
    report = {
        "workload": wk.name,
        "seed": seed,
        "jobs": wk.jobs,
        "blas_threads": wk.blas_threads or "default",
        "reps": len(reps),
        "inputs": plan.inputs.properties(),
        "checks": stats,
        "failures": failures,
        "attempted": attempted,
        "end_to_end": {
            "px_per_s": px_per_s(result),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        },
        "quality": quality,
        "output_sha256": outputs,
        "output_sha256_all": hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()).hexdigest(),
        "provenance": result["provenance"],
    }
    if trace:
        work_per_pixel = (wl.M + 1) * wl.C * wl.K * wk.dim
        per_rep = [layers.layer_metrics(setup_trees + [t], wk.jobs, work_per_pixel)
                   for t in trees]
        per_layer = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        per_layer["trace_overhead_frac"] = px_per_s(result) / px_per_s(traced) - 1.0
        self_times = [layers.command_self_times(t) for t in setup_trees + trees]
        for rep in self_times:
            for cmd, part in rep.items():
                total = sum(part["self"].values())
                if min(part["self"].values()) < 0 or not math.isclose(
                        total, part["wall"], rel_tol=1e-9, abs_tol=1e-9):
                    failures.append(f"traced {cmd}: self times sum to {total}, not {part['wall']}")
        report.update(per_layer=per_layer, self_times=self_times)
    return report


# ---------------------------------------------------------------------------
# reporting


def print_report(report: dict, trace: bool) -> None:
    name = report["workload"]
    print(f"== {name}  seed {report['seed']}  jobs {report['jobs']}  "
          f"BLAS threads {report['blas_threads']}  timed repetitions {report['reps']}")
    rows = [(k, v, u) for (k, u), v in
            ((kv, report["end_to_end"][kv[0]]) for kv in END_TO_END)]
    rows += [(k, v, "ratio") for k, v in report["quality"].items()]
    if trace:
        rows += [(k, report["per_layer"][k], u) for k, u in layers.PER_LAYER]
    for key, value, unit in rows:
        print(f"{name:10s} {key:38s} {value:16.6g} {unit}")
    for failure in report["failures"][:20]:
        print(f"{name:10s} FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not (Path("src") / "gmmood" / "cli.py").is_file():
        print("error: run from the repository root; src/gmmood is missing", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.workload is None if args.trace is None else args.trace)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    source = source_provenance()
    reports = []
    try:
        for name in names:
            reports.append(run_workload(WORKLOADS[name], args.seed, args.seconds, trace, deadline))
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report, trace)
    print(json.dumps({"source": source, "reports": reports}, sort_keys=True))

    # one workload reports the metrics of its mode; all workloads report everything
    if args.workload:
        table = tuple(layers.PER_LAYER) if trace else END_TO_END
    else:
        table = END_TO_END + (tuple(layers.PER_LAYER) if trace else ())
    metrics = {}
    for report in reports:
        prefix = "" if args.workload else f"{report['workload']}/"
        values = {**report["end_to_end"], **report.get("per_layer", {})}
        for key, unit in table:
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    correct = not any(r["failures"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        # a command that fails ends the run above, before any result
        "failed": 0,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
