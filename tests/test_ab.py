"""``tools/ab.py`` on canned ``perfbench/run.py`` output; no benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ab  # noqa: E402


def canned(px_per_s, setup_s=0.2, peak_rss_mb=57.0, sha="a" * 64, correct=True):
    """The lines ``run.py --workload range-d5 --trace 0`` prints: its
    table, the reports line and the verdict line."""
    report = {
        "workload": "range-d5", "seed": 0, "output_sha256_all": sha,
        "end_to_end": {"px_per_s": px_per_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb},
        "quality": {"auroc_epistemic": 0.5, "auprc_epistemic": 0.1, "fpr95_epistemic": 1.0,
                    "miou": 0.9, "failed_frac": 0.0},
        "provenance": {"numpy": "2.0", "openblas": [{"config": "OpenBLAS 0.3", "threads": 1}]},
    }
    source = {"git_commit": "f" * 40, "source_sha256": "b" * 64, "nproc": 2, "usable_cpus": 2}
    metrics = {"px_per_s": {"value": px_per_s, "unit": "1/s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return [
        "== range-d5  seed 0  jobs 2  BLAS threads 1  timed repetitions 40",
        f"range-d5   px_per_s {px_per_s:16.6g} 1/s",
        json.dumps({"source": source, "reports": [report]}, sort_keys=True),
        json.dumps({"correct": correct, "attempted": 240, "failed": 0, "metrics": metrics}),
    ]


def test_a_run_is_read_from_its_json_lines():
    run = ab.parse_run(canned(1.5e5, setup_s=0.3, peak_rss_mb=60.0))
    assert run["correct"] and run["attempted"] == 240
    assert (run["px_per_s"], run["setup_s"], run["peak_rss_mb"]) == (1.5e5, 0.3, 60.0)
    assert run["output_sha256_all"] == "a" * 64 and run["detection"]["miou"] == 0.9
    assert (run["nproc"], run["blas"][0]["threads"]) == (2, 1)
    assert not ab.parse_run(canned(1.0, correct=False))["correct"]


def test_a_run_that_prints_no_result_is_failed():
    lines = ["== range-d5", "error: program exited 1:"]
    assert ab.parse_run(lines) == {"correct": False, "error": "error: program exited 1:"}
    assert ab.parse_run([]) == {"correct": False, "error": "no output"}


def test_wins_and_offsets_follow_each_metrics_direction():
    def pair(parent, change):
        return {"parent": ab.parse_run(canned(*parent)), "change": ab.parse_run(canned(*change))}

    pairs = [pair((100.0, 0.2, 50.0), (110.0, 0.1, 60.0)),
             pair((100.0, 0.2, 50.0), (90.0, 0.1, 60.0)),
             pair((100.0, 0.2, 50.0), (120.0, 0.3, 40.0))]
    aa = [{"parent": ab.parse_run(canned(100.0)), "parent_again": ab.parse_run(canned(102.0))}]
    summary = ab.summarize(pairs, aa)
    px, setup, rss = summary["px_per_s"], summary["setup_s"], summary["peak_rss_mb"]
    assert (px["change_wins"], setup["change_wins"], rss["change_wins"]) == (2, 2, 1)
    assert px["median_offset"] == pytest.approx(0.1)
    assert px["aa_offset"] == pytest.approx(0.02) and setup["aa_offset"] == 0.0
    assert px["change"] == {"q1": 100.0, "median": 110.0, "q3": 115.0}
    assert px["pairs"] == 3 and setup["better"] == "lower"


@pytest.fixture
def two_commits(tmp_path, monkeypatch):
    """A git repository of two commits that differ under ``src/``."""
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                               *args], cwd=tmp_path, check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "src").mkdir()
    for text in ("old\n", "new\n"):
        (tmp_path / "src" / "code.py").write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", text)
    monkeypatch.chdir(tmp_path)
    return git


def test_pairs_alternate_and_the_parent_runs_against_itself(two_commits, tmp_path, monkeypatch):
    monkeypatch.setattr(ab, "PAIRS", 3)
    calls = []

    def run(checkout, workload, seed):
        side = Path(checkout).name
        calls.append((seed, side, (Path(checkout) / "src" / "code.py").read_text()))
        return canned(110.0 if side == "change" else 100.0,
                      sha="c" * 64 if seed == 1 and side == "change" else "a" * 64)

    code = ab.main(["--parent", "HEAD~1", "--change", "HEAD", "--workload", "range-d5"], run=run)
    assert code == 0
    assert calls == [
        (0, "parent", "old\n"), (0, "change", "new\n"),
        (0, "parent", "old\n"), (0, "parent_again", "old\n"),
        (1, "change", "new\n"), (1, "parent", "old\n"),
        (1, "parent_again", "old\n"), (1, "parent", "old\n"),
        (2, "parent", "old\n"), (2, "change", "new\n"),
        (2, "parent", "old\n"), (2, "parent_again", "old\n"),
    ]
    doc = json.loads((tmp_path / "BENCH_range-d5.json").read_text())
    assert doc["claim"] is None
    assert doc["commits"]["parent"]["commit"] == two_commits("rev-parse", "HEAD~1")
    assert doc["commits"]["change"]["src_tree"] == two_commits("rev-parse", "HEAD:src")
    assert [p["same_outputs"] for p in doc["pairs"]] == [True, False, True]
    assert [p["first"] for p in doc["aa_pairs"]] == ["parent", "parent_again", "parent"]
    assert doc["summary"]["px_per_s"]["change_wins"] == 3
    assert doc["summary"]["px_per_s"]["aa_offset"] == 0.0
    assert doc["host"] == {"nproc": 2, "blas": [{"config": "OpenBLAS 0.3", "threads": 1}]}
    assert doc["failed_runs"] == {"parent": 0, "change": 0, "parent_again": 0}
    assert set(doc["detection"]["change"]) == {"auroc_epistemic", "auprc_epistemic",
                                               "fpr95_epistemic", "miou", "failed_frac"}
    assert list((tmp_path / ab.WORK).iterdir()) == []
    assert len(two_commits("worktree", "list").splitlines()) == 1


def test_checkouts_are_removed_when_a_run_raises(two_commits, tmp_path):
    def run(checkout, workload, seed):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        ab.main(["--parent", "HEAD~1", "--workload", "range-d5"], run=run)
    assert list((tmp_path / ab.WORK).iterdir()) == []
    assert len(two_commits("worktree", "list").splitlines()) == 1
    assert not (tmp_path / "BENCH_range-d5.json").exists()


def test_a_failed_run_is_counted_and_left_out_of_the_summary(two_commits, tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(ab, "PAIRS", 3)

    def run(checkout, workload, seed):
        if Path(checkout).name == "change" and seed == 0:
            return ["error: program exited 1:"]
        return canned(100.0)

    assert ab.main(["--parent", "HEAD~1", "--workload", "range-d5"], run=run) == 1
    doc = json.loads((tmp_path / "BENCH_range-d5.json").read_text())
    assert doc["failed_runs"] == {"parent": 0, "change": 1, "parent_again": 0}
    assert doc["summary"]["px_per_s"]["pairs"] == 2
    assert doc["summary"]["px_per_s"]["parent"]["median"] == 100.0
    assert doc["pairs"][0]["change"]["error"] == "error: program exited 1:"
