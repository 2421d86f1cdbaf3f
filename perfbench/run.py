"""sawkit benchmark: one process, one client in a closed loop.

    python3 perfbench/run.py --workload {invert,forward,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each operation starts when the previous one returns.
Operations run in whole rounds (every case of the workload once) until
``--seconds`` have passed, so every run measures the same mix of cases.
Inputs come only from ``--seed`` and the files under ``perfbench``.

``--trace 0`` prints the end-to-end metrics: set-up time, operations per
second, median seconds per operation and peak resident memory.
``--trace 1`` wraps the package's functions and numpy's kernels, prints the
per-layer metrics and writes every span to
``.perfbench_out/trace-<workload>-<seed>.json``.

Every line but the last is information (the machine, the seed, failure
reasons); the last line is the result as one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# numpy's own kernels, bound before a tracer can wrap them
_EIG, _SOLVE = np.linalg.eig, np.linalg.solve

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def _import_sawkit():
    """Import the package from this checkout's src, or exit with code 2."""
    if not (SRC / "sawkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sawkit sources under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sawkit

    if Path(sawkit.__file__).resolve().parent != (SRC / "sawkit").resolve():
        sys.stderr.write(f"error: imported sawkit from {sawkit.__file__}, not {SRC}\n")
        sys.exit(2)
    return sawkit


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


class HostSpeed:
    """Times a fixed numpy-and-Python kernel that does not touch sawkit.

    The 2-core host the benchmark was defined on changes speed by up to a
    third within a minute, because other tenants share its cores, and
    sawkit slows down with it.  Timings are therefore reported in
    reference seconds: wall seconds times ``REF_SECONDS`` over this
    kernel's mean time measured before, during and after.
    """

    REF_SECONDS = 1.8e-3  # the kernel's median time on the defining host
    REPEATS = 3
    PERIOD = 0.25  # seconds between samples while an operation runs

    def __init__(self):
        rng = np.random.default_rng(20071130)
        self.a = rng.normal(size=(64, 6, 6))
        self.m = rng.normal(size=(64, 15, 15)) + 1j * rng.normal(size=(64, 15, 15))
        self.b = rng.normal(size=(64, 15, 1))
        self.samples: list[float] = []

    def _kernel(self) -> None:
        vals, vecs = _EIG(self.a)
        order = np.argsort(vals.imag + 1j * vals.real, axis=-1)
        np.take_along_axis(vecs, order[..., None, :], axis=-1)
        _SOLVE(self.m, self.b)
        total = 0.0
        for i in range(800):
            total += float(np.abs(self.a[i % 64, i % 6, 0]))

    def sample(self) -> float:
        """Median kernel time over a few calls, in seconds."""
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def timed(self, fn, during: bool = False):
        """(result, wall seconds, reference seconds) of one call of ``fn``.

        With ``during``, a timer signal also samples the kernel every
        ``PERIOD`` seconds while ``fn`` runs, so a long operation is scaled
        by the speed it ran at; the sampling time is not counted.
        """
        samples = [self.sample()]
        paused = 0.0

        def on_alarm(signum, frame):
            nonlocal paused
            t0 = time.perf_counter()
            samples.append(self.sample())
            paused += time.perf_counter() - t0

        if during:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0 - paused
        samples.append(self.sample())
        return result, wall, wall * self.REF_SECONDS / statistics.fmean(samples)


def measure(workload, seconds: float, speed: HostSpeed, tracer=None):
    """Run whole rounds until ``seconds`` have passed; (ops, wall seconds)."""
    from workloads import Op

    def call(inp, i):
        try:
            if tracer is None:
                return workload.run(inp), None
            with tracer.op(i):
                return workload.run(inp), None
        except Exception as exc:  # a failed operation is counted, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < workload.round_len or i % workload.round_len or time.perf_counter() < deadline:
        inp = workload.make_input(i)
        # no sampling inside traced operations: its time would land in their spans
        (out, err), wall, ref = speed.timed(lambda: call(inp, i), during=tracer is None)
        ops.append(Op(i, inp, out, wall, ref, err))
        i += 1
    return ops, time.perf_counter() - start


def failures(workload, ops) -> list[str | None]:
    """A reason per checked output (None when correct): every op, then run checks."""
    reasons = [op.error if op.error else workload.check(ops, op.index) for op in ops]
    return reasons + workload.final_checks(ops)


def setup_seconds(workload: str, seed: int, speed: HostSpeed) -> tuple[float, float]:
    """Median (wall, reference) seconds of a fresh interpreter importing sawkit
    and making the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        _, wall, ref = speed.timed(
            lambda: subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL))
        walls.append(wall)
        refs.append(ref)
    return statistics.median(walls), statistics.median(refs)


def tail_percentile(times: list[float]) -> dict:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
            return {f"op_s.p{q}": cut, "samples": len(times)}
    return {"op_s.tail": None, "samples": len(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("invert", "forward", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: make the inputs and exit (timed for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sawkit = _import_sawkit()
    from workloads import WORKLOADS, load_case

    sawkit.builtin_material_db()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        for i in range(workload.round_len):
            workload.make_input(i)
        return 0

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    speed = HostSpeed()
    setup = None if args.trace else setup_seconds(args.workload, args.seed, speed)

    # warm-up outside the timed loop: numpy's lazy imports and first BLAS calls
    warm_stack, _ = load_case("stack_3")
    sawkit.dispersion_curve(warm_stack, [100e6, 400e6])

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        try:
            ops, elapsed = measure(workload, args.seconds, speed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        reasons = failures(workload, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r is not None for r in reasons)
    op_failed = sum(r is not None for r in reasons[: len(ops)])
    times = [op.ref_seconds for op in ops]
    ops_per_s = (len(ops) - op_failed) / sum(times)
    info = {
        "ops": len(ops),
        "rounds": len(ops) // workload.round_len,
        "elapsed_s": elapsed,
        "fail_frac": failed / len(reasons),
        "failures": sorted({r for r in reasons if r is not None})[:5],
        **tail_percentile(times),
        "kernel_ms": 1e3 * statistics.median(speed.samples),
        "wall": {
            "ops_per_s": (len(ops) - op_failed) / sum(op.seconds for op in ops),
            "op_s.p50": statistics.median(op.seconds for op in ops),
            "setup_s": setup[0] if setup else None,
        },
    }
    correct = failed == 0

    if tracer is None:
        values = {
            "setup_s": setup[1],
            "ops_per_s": ops_per_s,
            "op_s.p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        from tracing import check_spans, layer_metrics, single_point_probes, span_cost_s

        problems = check_spans(tracer.spans)
        if problems:
            correct = False
            info["trace_problems"] = problems
        values = layer_metrics(tracer.spans, len(ops), workload.round_len)
        values.update(single_point_probes(load_case("stack_1A")[0]))
        values["trace.ops_per_s"] = ops_per_s
        values["trace.overhead_est_frac"] = len(tracer.spans) * span_cost_s() / elapsed
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "env": env, "info": info, "metrics": values,
            "span_fields": ["name", "op", "parent", "start", "end", "attrs"],
            "spans": tracer.spans,
        }))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print("info " + json.dumps(info), flush=True)
    print(json.dumps({"correct": correct, "attempted": len(reasons), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
