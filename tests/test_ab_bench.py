import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def _checkout(path: Path) -> Path:
    """A checkout holding this repository's benchmark files only."""
    path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return path


@pytest.fixture
def failed():
    """Failed operations in each run of a side: none unless a test sets them."""
    return {"parent": 0, "change": 0}


@pytest.fixture
def broken():
    """Runs that go wrong, by (side, pair): an exit code, or 0 for a run that
    exits cleanly with an incorrect result.  None unless a test sets them."""
    return {}


@pytest.fixture
def runs(monkeypatch, failed, broken):
    """Record run_once calls and answer them with fixed metrics."""
    calls = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_run_once(root, workload, seed, seconds):
        calls.append(root)
        code = broken.get((root.name, (len(calls) - 1) // 2))
        if code:
            return {"exit_code": code, "stderr_tail": "Traceback: boom", "env": None,
                    "info": None, "correct": False, "attempted": None, "failed": None,
                    "metrics": None}
        # 10, 40 operations in the parent's runs and 21, 31 in the change's
        attempted = 10 * len(calls) + (root.name == "change")
        return {"exit_code": 0, "stderr_tail": "", "env": {}, "info": {},
                "correct": code is None, "attempted": attempted, "failed": failed[root.name],
                "metrics": {m["name"]: float(len(calls)) for m in declared}}

    monkeypatch.setattr(ab_bench, "run_once", fake_run_once)
    return calls


def _main(parent, change, out):
    return ab_bench.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "forward", "--pairs", "2", "--seconds", "1",
                          "--seed", "3", "--out", str(out)])


def test_refuses_checkouts_with_different_benchmarks(tmp_path, runs, capsys):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    target = change / "perfbench" / "workloads.py"
    data = bytearray(target.read_bytes())
    data[-1] ^= 1  # one byte
    target.write_bytes(bytes(data))
    out = tmp_path / "bench.json"
    assert _main(parent, change, out) == 2
    assert "perfbench/workloads.py" in capsys.readouterr().err
    assert runs == [] and not out.exists()
    # compiled bytecode is not part of the benchmark
    target.write_bytes((parent / "perfbench" / "workloads.py").read_bytes())
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "workloads.cpython-311.pyc").write_bytes(b"\0")
    assert _main(parent, change, out) == 0
    assert len(runs) == 4
    report = json.loads(out.read_text())
    files = ab_bench.benchmark_files(parent)
    assert "BENCHMARK.json" in files and "perfbench/run.py" in files
    assert report["benchmark_digest"] == ab_bench.benchmark_digest(files)
    assert report["workloads"]["forward"]["attempted_median"] == {"parent": 25, "change": 26}
    assert report["workloads"]["forward"]["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert report["workloads"]["forward"]["more_failures"] is False
    assert report["workloads"]["forward"]["bad_runs"] == []
    assert report["workloads"]["forward"]["any_bad_run"] is False


@pytest.mark.parametrize("per_run, more", [
    # 2 of the change's 52 operations against 2 of the parent's 50: a smaller share
    ({"parent": 1, "change": 1}, False),
    ({"parent": 0, "change": 1}, True),
    ({"parent": 1, "change": 0}, False),
])
def test_flags_a_larger_share_of_failed_operations(tmp_path, runs, failed, per_run, more):
    failed.update(per_run)
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    out = tmp_path / "bench.json"
    assert _main(parent, change, out) == 0
    report = json.loads(out.read_text())["workloads"]["forward"]
    assert report["failed"] == {side: 2 * n for side, n in per_run.items()}
    assert report["failed_share"] == {"parent": 2 * per_run["parent"] / 50,
                                      "change": 2 * per_run["change"] / 52}
    assert report["more_failures"] is more


def test_keeps_the_report_when_a_run_fails_or_is_incorrect(tmp_path, runs, broken):
    # pair 1's change run exits 3 and pair 0's parent run is not correct:
    # both are listed, the workload is flagged, the report is written, and
    # the failure counts, attempted operations and metrics are taken over
    # the correct runs only, the metrics over the two pairs whose runs are
    # both correct (pairs 2 and 3)
    broken.update({("change", 1): 3, ("parent", 0): 0})
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    out = tmp_path / "bench.json"
    assert ab_bench.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "forward", "--pairs", "4", "--seconds", "1",
                          "--seed", "3", "--out", str(out)]) == 1
    assert len(runs) == 8
    report = json.loads(out.read_text())["workloads"]["forward"]
    assert report["any_bad_run"] is True
    assert report["bad_runs"] == [
        {"side": "parent", "pair": 0, "exit_code": 0, "correct": False, "stderr_tail": ""},
        {"side": "change", "pair": 1, "exit_code": 3, "correct": False,
         "stderr_tail": "Traceback: boom"},
    ]
    assert [r["exit_code"] for r in report["runs"]] == [0, 0, 3, 0, 0, 0, 0, 0]
    summary = report["summary"]["ops_per_s"]
    # the runs' metrics are their call numbers: pairs 2 and 3 give parent
    # 5, 8 and change 6, 7; the incorrect parent run (call 1) is left out
    assert (summary["parent"]["q1"], summary["parent"]["q3"]) == (5.75, 7.25)
    assert (summary["change"]["q1"], summary["change"]["q3"]) == (6.25, 6.75)
    assert (summary["change_wins"], summary["parent_wins"]) == (1, 1)
    # attempted operations are 10 per call (+1 in the change), correct runs only
    assert report["attempted_median"] == {"parent": 50, "change": 61}
    assert report["failed"] == {"parent": 0, "change": 0}
    # over two pairs, neither has two correct runs
    runs.clear()
    assert _main(parent, change, out) == 1
    report = json.loads(out.read_text())["workloads"]["forward"]
    assert report["summary"] == {} and len(report["bad_runs"]) == 2


@pytest.mark.parametrize("better, parent, change, unresolved", [
    # both sides tight: the medians resolve a change of 5 %
    ("lower", [1.0, 1.0, 1.01, 0.99], [1.05, 1.05, 1.06, 1.04], False),
    # the parent's runs spread wider than the bound: a change within it
    # cannot be told from none
    ("lower", [0.5, 0.8, 1.2, 1.5], [1.0, 1.0, 1.0, 1.0], True),
    # ... unless every change run is better than every parent run
    ("lower", [0.5, 0.8, 1.2, 1.5], [0.4, 0.4, 0.4, 0.4], False),
    ("higher", [0.5, 0.8, 1.2, 1.5], [0.4, 0.4, 0.4, 0.4], True),
    ("higher", [0.5, 0.8, 1.2, 1.5], [1.6, 1.6, 1.6, 1.6], False),
    # tight parent, wide change: the medians differ by 45 %, which the
    # change's spread cannot resolve
    ("lower", [1.0, 1.0, 1.01, 0.99], [1.0, 1.2, 1.7, 1.9], True),
])
def test_flags_a_metric_whose_spread_exceeds_its_bound(better, parent, change, unresolved):
    runs = [{"pair": pair, "side": side, "metrics": {"t": values[pair]}, "correct": True}
            for side, values in (("parent", parent), ("change", change))
            for pair in range(len(values))]
    declared = [{"name": "t", "unit": "s", "better": better, "bound": 0.25}]
    summary = ab_bench.summarize(runs, declared)["t"]
    assert summary["unresolved"] is unresolved
    # the regression flag reads the medians alone, as before
    ratio = summary["change_vs_parent"]
    assert summary["regression"] is ((ratio - 1 if better == "lower" else 1 - ratio) > 0.25)


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=root, capture_output=True, text=True, check=True).stdout.strip()


def test_records_each_checkouts_commit_and_dirty_flag(tmp_path, runs):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    out = tmp_path / "bench.json"
    # outside git: no commit and no flag
    assert _main(parent, change, out) == 0
    none = {"commit": None, "dirty": None}
    assert json.loads(out.read_text())["checkouts"] == {"parent": none, "change": none}
    # a clean work tree, then one with a changed file
    _git(change, "init", "-q")
    _git(change, "add", "-A")
    _git(change, "commit", "-q", "-m", "benchmark files")
    head = _git(change, "rev-parse", "HEAD")
    assert _main(parent, change, out) == 0
    checkouts = json.loads(out.read_text())["checkouts"]
    assert checkouts == {"parent": none, "change": {"commit": head, "dirty": False}}
    (change / "notes.txt").write_text("x")
    assert _main(parent, change, out) == 0
    assert json.loads(out.read_text())["checkouts"]["change"] == {"commit": head, "dirty": True}
    # a directory inside a work tree is not a checkout of it
    (change / "sub").mkdir()
    assert ab_bench.revision(change / "sub") == none
