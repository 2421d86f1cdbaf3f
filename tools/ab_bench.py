"""Alternating A/B runs of perfbench between two checkouts.

    python3 tools/ab_bench.py --parent DIR --change DIR --workload forward \
        --pairs 10 --seconds 30 --seed 41 --out BENCH_12.json

Before the first run both checkouts must hold the same benchmark:
``BENCHMARK.json`` and every file under ``perfbench/`` (``__pycache__``
aside) are hashed in each, and if they differ the script exits 2, naming
the first differing file, without starting a run; their common digest goes
into the output file.  Each pair runs ``perfbench/run.py --trace 0`` once in
each checkout, one after the other, the parent first in even pairs and the
change first in odd ones.  ``--workload`` may be given more than once; the
pairs of one workload finish before the next starts.  Every run uses the
same ``--seed`` and ``--seconds``, and each checkout runs its own
``perfbench`` from its own root.  The output file names what was compared:
each checkout's ``git rev-parse HEAD`` and whether its tree differs from
that commit (``null`` both where the checkout is not the root of a git
work tree).  It holds, per workload, the
``env`` line of the first run, every run's metrics and failure counts,
each side's failed operations and their share of its attempted ones, with
``more_failures`` set where the change's share is the larger (a larger
share of failed operations rejects a change as a regression does), each
side's median number of attempted operations (perfbench keeps every
operation's output, so ``peak_rss_mb`` grows with it), and per end-to-end
metric (names, directions and bounds from the parent's
``BENCHMARK.json``) each side's median and quartiles, the pairs each side
won, whether the change is a gain (it wins at least nine tenths of the pairs
and the medians differ by more than the parent's interquartile range),
whether it is a regression (its median is worse than the parent's by more
than the bound) and whether it is unresolved (the interquartile range of
either side's runs exceeds the bound times that side's median, so the
medians cannot tell a change within the bound from none, and not every
run of the change is better than every run of the parent).  A run that
exits non-zero, or whose result is not correct, is listed under
``bad_runs`` (side, pair, exit code, stderr tail) and sets
``any_bad_run``; the report is still written, the failure counts,
attempted operations and metrics are taken over the runs with a correct
result only (the metrics over the pairs whose two runs both have one), and
the script exits 1 after the last workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def benchmark_files(root: Path) -> dict[str, str]:
    """sha256 of ``BENCHMARK.json`` and of every file under ``perfbench/``
    in ``root``, by path relative to it; compiled bytecode is skipped."""
    paths = [root / "BENCHMARK.json"] + sorted(
        p for p in (root / "perfbench").rglob("*")
        if p.is_file() and "__pycache__" not in p.relative_to(root).parts)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths if p.is_file()}


def benchmark_digest(files: dict[str, str]) -> str:
    """One sha256 over the (path, hash) pairs of ``benchmark_files``."""
    text = "".join(f"{name}\0{digest}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def revision(root: Path) -> dict:
    """``root``'s commit (``git rev-parse HEAD``) and whether ``git status``
    lists any change to it; both None unless ``root`` is a work tree's root."""
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout if proc.returncode == 0 else None

    top_head = git("rev-parse", "--show-toplevel", "HEAD")
    status = git("status", "--porcelain")
    if top_head is None or status is None:
        return {"commit": None, "dirty": None}
    top, head = top_head.splitlines()
    if Path(top).resolve() != root.resolve():
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(status)}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its exit code, the tail of its
    stderr, its env line and its result; a run that exits non-zero has no
    result (``correct`` False, the counts and ``metrics`` None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run = {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:], "env": None,
           "info": None, "correct": False, "attempted": None, "failed": None, "metrics": None}
    if proc.returncode != 0:
        return run
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), None)
    result = json.loads(lines[-1])
    return {
        **run,
        "env": env,
        "info": info,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def done(run: dict) -> bool:
    """Whether ``run`` exited cleanly with a correct result."""
    return run["metrics"] is not None and bool(run["correct"])


def failures(runs: list[dict]) -> dict:
    """Each side's failed operations summed over its runs with a correct
    result, their share of its attempted operations, and whether the
    change's share is the larger."""
    failed, share = {}, {}
    for side in SIDES:
        done_runs = [r for r in runs if r["side"] == side and done(r)]
        failed[side] = sum(r["failed"] for r in done_runs)
        attempted = sum(r["attempted"] for r in done_runs)
        share[side] = failed[side] / attempted if attempted else 0.0
    return {"failed": failed, "failed_share": share,
            "more_failures": share["change"] > share["parent"]}


def bad_runs(runs: list[dict]) -> list[dict]:
    """The runs that exited non-zero or whose result is not correct: side,
    pair, exit code and the tail of stderr."""
    return [{key: run[key] for key in ("side", "pair", "exit_code", "correct", "stderr_tail")}
            for run in runs if run["exit_code"] != 0 or not run["correct"]]


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, pair wins, gain,
    regression and unresolved, over the pairs whose two runs both have a
    correct result; empty when fewer than two pairs do."""
    summary = {}
    ok = {(run["pair"], run["side"]) for run in runs if done(run)}
    pairs = sorted(p for p, side in ok if side == "parent" and (p, "change") in ok)
    if len(pairs) < 2:
        return summary
    runs = [run for run in runs if run["pair"] in pairs]
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        value = {(run["pair"], run["side"]): run["metrics"][name] for run in runs}
        seen = {side: [value[p, side] for p in pairs] for side in SIDES}
        stats = {side: quartiles(seen[side]) for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for p in pairs:
            a, b = value[p, "parent"], value[p, "change"]
            if a != b:
                wins["change" if (b > a) == higher else "parent"] += 1
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gained = change - parent if higher else parent - change
        wide = any(stats[side]["iqr"] > metric["bound"] * abs(stats[side]["median"])
                   for side in SIDES)
        if higher:
            clear = min(seen["change"]) > max(seen["parent"])
        else:
            clear = max(seen["change"]) < min(seen["parent"])
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **stats,
            "change_wins": wins["change"],
            "parent_wins": wins["parent"],
            "change_vs_parent": change / parent,
            "gain": wins["change"] >= 0.9 * len(pairs) and gained > stats["parent"]["iqr"],
            "regression": -gained / parent > metric["bound"],
            "unresolved": wide and not clear,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout root")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("invert", "forward", "pipeline"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    files = {side: benchmark_files(root) for side, root in roots.items()}
    differing = sorted(name for name in files["parent"].keys() | files["change"].keys()
                       if files["parent"].get(name) != files["change"].get(name))
    if differing:
        print(f"the checkouts run different benchmarks: {differing[0]} differs "
              f"({len(differing)} file(s) in all); no run started", file=sys.stderr)
        return 2
    declared = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = {
        "benchmark_digest": benchmark_digest(files["parent"]),
        "checkouts": {side: revision(root) for side, root in roots.items()},
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(roots[side], workload, args.seed, args.seconds)
                runs.append({"pair": pair, "side": side, "position": position, **run})
                if run["metrics"] is None:
                    print(f"{workload} pair {pair} {side}: exited {run['exit_code']}",
                          file=sys.stderr, flush=True)
                    continue
                ops = run["metrics"]["ops_per_s"]
                print(f"{workload} pair {pair} {side}: ops_per_s {ops:.3f}, "
                      f"failed {run['failed']}/{run['attempted']}, correct {run['correct']}",
                      file=sys.stderr, flush=True)
        bad = bad_runs(runs)
        report["workloads"][workload] = {
            "env": next((run["env"] for run in runs if run["env"] is not None), None),
            "runs": [{k: v for k, v in run.items() if k != "env"} for run in runs],
            **failures(runs),
            "bad_runs": bad,
            "any_bad_run": bool(bad),
            "attempted_median": {
                side: statistics.median([r["attempted"] for r in runs
                                         if r["side"] == side and done(r)] or [0])
                for side in SIDES},
            "summary": summarize(runs, declared),
        }
        if report["workloads"][workload]["more_failures"]:
            print(f"{workload}: the change failed a larger share of its operations",
                  file=sys.stderr, flush=True)
        if bad:
            print(f"{workload}: {len(bad)} run(s) exited non-zero or were not correct",
                  file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(w["any_bad_run"] for w in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
