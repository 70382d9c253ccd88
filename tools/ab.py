"""A/B runs of the repository's benchmark: two revisions in alternating pairs, with an A/A control.

Usage, from the repository root::

    python3 tools/ab.py --parent <rev> --change <rev> --workload range-d5

The parent is checked out twice and the change once with ``git worktree``
under ``.perfbench_work/ab/``, so every side is a git checkout of the same
shape; the checkouts are removed on exit, also on error.  For each seed
0 to ``PAIRS`` - 1 the unchanged ``perfbench/run.py --workload <w>
--seed <s> --trace 0`` runs in the parent's and the change's checkout, the
parent first on even seeds and the change first on odd ones, then in the
parent's two checkouts (the A/A set), alternating the same way.

``BENCH_<w>.json`` holds both commits with the git tree of their ``src/``,
each pair's end-to-end metrics and whether its output hashes agree, per
metric the medians and quartiles of each side, the change's wins, the
median paired offset and the A/A set's, the detection block of each
side's runs, and the host's CPU count and BLAS.  It states no claim: a
gain reads as a median offset beyond the A/A offset and the parent's
quartile spread, won on most pairs.
"""

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORK = Path(".perfbench_work") / "ab"
SIDES = ("parent", "change", "parent_again")
PAIRS = 10  # seeds 0 to 9, each one A/B and one A/A pair
# end-to-end metric -> True where higher is better, as in BENCHMARK.json
METRICS = {"px_per_s": True, "setup_s": False, "peak_rss_mb": False}


def git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def checkouts(revs: dict):
    """{side: rev} -> {side: path} of detached worktrees, removed on exit."""
    paths = {}
    try:
        for side, rev in revs.items():
            paths[side] = WORK / side
            shutil.rmtree(paths[side], ignore_errors=True)
            git("worktree", "add", "--detach", str(paths[side]), rev)
        yield paths
    finally:
        for path in paths.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                           capture_output=True)
            shutil.rmtree(path, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], capture_output=True)


def run_benchmark(checkout: Path, workload: str, seed: int) -> list:
    """Output lines, standard output then standard error, of
    ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    return proc.stdout.splitlines() + proc.stderr.splitlines()


def parse_run(lines: list) -> dict:
    """One run's record from ``run.py``'s output: its verdict, end-to-end
    metrics, output hash, detection block and provenance; a run that
    printed no result is recorded as failed, with its last ``error:``
    line (or last line)."""
    docs = [json.loads(line) for line in lines if line.startswith("{")]
    reports = [doc for doc in docs if "reports" in doc]
    verdicts = [doc for doc in docs if "metrics" in doc]
    if not (reports and verdicts):
        errors = [line for line in lines if line.startswith("error:")] or lines[-1:]
        return {"correct": False, "error": errors[-1] if errors else "no output"}
    (report,), source = reports[-1]["reports"], reports[-1]["source"]
    verdict = verdicts[-1]
    return {
        "correct": verdict["correct"] and not verdict["failed"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        **{name: verdict["metrics"][name]["value"] for name in METRICS},
        "output_sha256_all": report["output_sha256_all"],
        "detection": report["quality"],
        "source_sha256": source["source_sha256"],
        "nproc": source["nproc"],
        "blas": report["provenance"]["openblas"],
    }


def run_pair(paths: dict, sides: tuple, seed: int, workload: str, run) -> dict:
    """One run on each of the two ``sides``, ``sides[0]`` first on even seeds."""
    pair = {"seed": seed, "first": sides[seed % 2]}
    for side in sides if seed % 2 == 0 else sides[::-1]:
        pair[side] = parse_run(run(paths[side], workload, seed))
    a, b = (pair[side].get("output_sha256_all") for side in sides)
    pair["same_outputs"] = a is not None and a == b
    return pair


def quartiles(values: list) -> dict:
    """Lower quartile, median and upper quartile of two or more values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, aa_pairs: list) -> dict:
    """Per metric over the pairs both of whose runs passed, where two or
    more did: each side's quartiles, the change's wins, and the median
    offset of the change (of the parent's second checkout, for the A/A
    set) from the parent."""
    ok = [p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]]
    aa_ok = [p for p in aa_pairs if p["parent"]["correct"] and p["parent_again"]["correct"]]
    summary = {}
    for name, higher in METRICS.items():
        entry = {"better": "higher" if higher else "lower", "pairs": len(ok)}
        if len(ok) > 1:
            parent, change = ([p[side][name] for p in ok] for side in ("parent", "change"))
            entry.update(parent=quartiles(parent), change=quartiles(change))
            entry["change_wins"] = sum((c > a) if higher else (c < a)
                                       for a, c in zip(parent, change))
            entry["median_offset"] = statistics.median(c / a - 1.0 for a, c in zip(parent, change))
        if aa_ok:
            entry["aa_offset"] = statistics.median(
                p["parent_again"][name] / p["parent"][name] - 1.0 for p in aa_ok)
        summary[name] = entry
    return summary


def detection(pairs: list, side: str) -> dict:
    """Median over ``side``'s passing runs of each detection figure."""
    runs = [p[side]["detection"] for p in pairs if p[side]["correct"]]
    return {k: statistics.median(r[k] for r in runs) for k in (runs[0] if runs else {})}


def main(argv=None, run=run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured against")
    parser.add_argument("--change", default="HEAD", help="revision measured (default HEAD)")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    revs = {side: args.change if side == "change" else args.parent for side in SIDES}
    commits = {side: {"rev": revs[side], "commit": git("rev-parse", f"{revs[side]}^{{commit}}"),
                      "src_tree": git("rev-parse", f"{revs[side]}:src")}
               for side in ("parent", "change")}
    with checkouts(revs) as paths:
        pairs, aa_pairs = [], []
        for seed in range(PAIRS):  # the A/B and A/A pairs of a seed run back to back
            for group, sides in ((pairs, SIDES[:2]), (aa_pairs, SIDES[::2])):
                group.append(run_pair(paths, sides, seed, args.workload, run))
    hosts = [p[s] for p in pairs for s in ("parent", "change") if p[s]["correct"]]
    doc = {
        "workload": args.workload,
        "claim": None,
        "commits": commits,
        "run": f"perfbench/run.py --workload {args.workload} --seed <seed> --trace 0",
        "host": {"nproc": hosts[0]["nproc"], "blas": hosts[0]["blas"]} if hosts else None,
        "failed_runs": {side: sum(not p[side]["correct"] for p in group)
                        for side, group in (("parent", pairs + aa_pairs), ("change", pairs),
                                            ("parent_again", aa_pairs))},
        "summary": summarize(pairs, aa_pairs),
        "detection": {side: detection(pairs, side) for side in ("parent", "change")},
        "pairs": pairs,
        "aa_pairs": aa_pairs,
    }
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, entry in doc["summary"].items():
        print(f"{name:12s} " + "  ".join(f"{k} {entry[k]:+.4f}" for k in
                                          ("median_offset", "aa_offset") if k in entry))
    print(f"wrote {out}")
    return 0 if not any(doc["failed_runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
