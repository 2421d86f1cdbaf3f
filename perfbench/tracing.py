"""Spans around calls into sawkit's modules and numpy's kernels, from outside.

The tracer replaces chosen functions with wrappers wherever the package
binds them (``sawkit.inversion.dispersion_curve`` and
``sawkit.cli.dispersion_curve`` are the same function bound twice), plus
``numpy.linalg.eig``, ``numpy.linalg.solve`` and ``numpy.fft.rfft``, which
the package looks up at call time.  No file under ``src/`` changes.

Spans stay in memory as ``[name, op, parent, start, end, attrs]`` rows,
parents before children, and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

import sawkit
import sawkit.cli
import sawkit.dispersion
import sawkit.inversion
import sawkit.materials
import sawkit.signal

NAME, OP, PARENT, START, END, ATTRS = range(6)
_PACKAGE = (sawkit, sawkit.cli, sawkit.dispersion, sawkit.inversion, sawkit.materials,
            sawkit.signal)


def _eig_attrs(args, kwargs, result):
    a = np.asarray(args[0])
    return {"matrices": int(np.prod(a.shape[:-2])), "n": a.shape[-1]}


def _solve_attrs(args, kwargs, result):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    nrhs = b.shape[-1] if b.ndim == a.ndim else 1
    return {"matrices": int(np.prod(a.shape[:-2])), "n": a.shape[-1], "nrhs": nrhs}


def _rfft_attrs(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return {"nfft": int(n if n is not None else np.shape(args[0])[-1])}


def _curve_attrs(args, kwargs, result):
    stack, freqs = args[0], args[1]
    return {"points": len(freqs), "media": len(stack.layers) + 1,
            "hinted": kwargs.get("hints") is not None}


def _fit_attrs(args, kwargs, result):
    return {"iterations": result.n_iterations if result is not None else 0}


def _pick_attrs(args, kwargs, result):
    requested = kwargs.get("n_harmonics", args[2] if len(args) > 2 else 1)
    return {"requested": requested, "found": len(result.peaks) if result is not None else 0}


# (home module, function name, span name, attrs from (args, kwargs, result))
TARGETS = (
    (sawkit.cli, "cmd_dispersion", "cli.dispersion", None),
    (sawkit.cli, "cmd_synth", "cli.synth", None),
    (sawkit.cli, "cmd_extract", "cli.extract", None),
    (sawkit.cli, "cmd_fit", "cli.fit", None),
    (sawkit.cli, "cmd_plot", "cli.plot", None),
    (sawkit.inversion, "fit_parameters", "inversion.fit", _fit_attrs),
    (sawkit.inversion, "residuals", "inversion.residuals", None),
    (sawkit.inversion, "identifiability_report", "inversion.identifiability", None),
    (sawkit.inversion, "format_fit_report", "inversion.report", None),
    (sawkit.signal, "synthesize_slope_signal", "signal.synthesize", None),
    (sawkit.signal, "spectrum", "signal.spectrum", None),
    (sawkit.signal, "pick_harmonic_peaks", "signal.pick", _pick_attrs),
    (sawkit.signal, "read_waveform_csv", "signal.csv", None),
    (sawkit.signal, "waveform_csv_text", "signal.csv", None),
    (sawkit.dispersion, "dispersion_curve", "dispersion.curve", _curve_attrs),
    (sawkit.dispersion, "dispersion_csv_text", "dispersion.csv", None),
    (sawkit.dispersion, "read_dispersion_csv", "dispersion.csv", None),
    (sawkit.materials, "stiffness_of", "materials.stiffness_of", None),
    (sawkit.materials, "sige_material", "materials.sige_material", None),
    (sawkit.materials, "builtin_material_db", "materials.db", None),
    (sawkit.materials, "load_material_db", "materials.db", None),
    (np.linalg, "eig", "numpy.eig", _eig_attrs),
    (np.linalg, "solve", "numpy.solve", _solve_attrs),
    (np.fft, "rfft", "numpy.rfft", _rfft_attrs),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every function."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _push(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, self._op, parent, 0.0, 0.0, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _pop(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def op(self, index: int):
        """Root span of one benchmark operation; its spans share ``index``."""
        self._op = index
        span = self._push("op")
        try:
            yield
        finally:
            self._pop(span)
            self._op = -1

    def _wrap(self, fn, name, attrs_fn):
        def traced(*args, **kwargs):
            span = self._push(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._pop(span)
                if attrs_fn is not None:
                    span[ATTRS] = attrs_fn(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for home, attr, name, attrs_fn in TARGETS:
            fn = getattr(home, attr)
            traced = self._wrap(fn, name, attrs_fn)
            owners = [home] + [m for m in _PACKAGE if m is not home]
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, key, fn))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._restore):
            setattr(module, key, fn)
        self._restore.clear()


def check_spans(spans: list[list]) -> list[str]:
    """Problems with nesting: a child outside its parent, negative self time."""
    problems = []
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if s[START] < parent[START] or s[END] > parent[END]:
                problems.append(f"span {i} ({s[NAME]}) outside its parent {p} ({parent[NAME]})")
            child_time[p] += s[END] - s[START]
    for i, s in enumerate(spans):
        if s[END] - s[START] - child_time[i] < 0:
            problems.append(f"span {i} ({s[NAME]}) has negative self time")
    return problems[:10]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[list], n_ops: int, first_round: int) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    Times are per operation (or per call, per fit, per point) over every
    operation.  Work counts come from the first round of operations only,
    which every run completes, so a fixed seed repeats them exactly.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    self_time = dur[:]
    under_curve = [False] * n  # inside a dispersion_curve call
    curve_of = [-1] * n  # nearest enclosing dispersion_curve span
    fit_of = [-1] * n  # nearest enclosing fit_parameters span
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            self_time[p] -= dur[i]
            under_curve[i] = under_curve[p] or spans[p][NAME] == "dispersion.curve"
            curve_of[i] = p if spans[p][NAME] == "dispersion.curve" else curve_of[p]
            fit_of[i] = p if spans[p][NAME] == "inversion.fit" else fit_of[p]

    t = {}  # seconds by key, all operations
    c = {}  # counts by key, first round only

    def add(d, key, value):
        d[key] = d.get(key, 0.0) + value

    for i, s in enumerate(spans):
        name, op, attrs = s[NAME], s[OP], s[ATTRS] or {}
        if op < 0:
            continue
        first = op < first_round
        layer = name.split(".")[0]
        if name in ("numpy.eig", "numpy.solve") and under_curve[i]:
            kind = name.split(".")[1]
            add(t, f"{kind}.s", dur[i])
            if first:
                add(c, f"{kind}.calls", 1)
                add(c, f"{kind}.matrices", attrs["matrices"])
                if kind == "solve":
                    m, k, r = attrs["matrices"], attrs["n"], attrs["nrhs"]
                    # complex LU (n^3/3 multiply-adds) plus substitution, 8 flops each
                    add(c, "solve.gflop", m * 8.0 * (k**3 / 3.0 + k * k * r) / 1e9)
                cv = curve_of[i]
                if cv >= 0 and kind == "eig":
                    add(c, "eig.hinted" if spans[cv][ATTRS]["hinted"] else "eig.scan",
                        attrs["matrices"] / spans[cv][ATTRS]["media"])
                if fit_of[i] >= 0 and kind == "eig":
                    add(c, "fit.eig_calls", 1)
        if name == "dispersion.curve":
            add(t, "curve.self", self_time[i])
            kind = "hinted" if attrs["hinted"] else "scan"
            add(t, f"{kind}.s", dur[i])
            add(t, f"{kind}.points", attrs["points"])
            if first:
                add(c, "curves", 1)
                add(c, f"{kind}.points", attrs["points"])
                add(c, "curve.points", attrs["points"])
                if fit_of[i] >= 0:
                    add(c, "fit.curves", 1)
        if layer in ("inversion", "cli"):
            add(t, f"{layer}.self", self_time[i])
        if layer in ("inversion", "cli", "materials", "signal") or name == "dispersion.csv":
            add(t, name, dur[i])
            add(t, f"{name}.calls", 1)
        if name == "numpy.rfft":
            add(t, "rfft.nfft", attrs["nfft"])
            add(t, "rfft.calls", 1)
        if name == "signal.pick":
            add(t, "pick.requested", attrs["requested"])
            add(t, "pick.found", attrs["found"])
        if name == "inversion.residuals" and first:
            add(c, "residuals.calls", 1)
        if name == "inversion.fit":
            add(t, "fit.s", dur[i])
            add(t, "fits", 1)
            if first:
                add(c, "fits", 1)
                add(c, "iterations", attrs["iterations"])
        if name == "materials.stiffness_of" and first:
            add(c, "stiffness_of.calls", 1)

    g = lambda d, k: d.get(k, 0.0)  # noqa: E731
    fits, fits1 = g(t, "fits"), g(c, "fits")
    curve_points1 = g(c, "curve.points")
    ops = max(n_ops, 1)
    ops1 = max(min(first_round, n_ops), 1)
    metrics = {
        "dispersion.eig.calls": _per(g(c, "eig.calls"), ops1),
        "dispersion.eig.matrices": _per(g(c, "eig.matrices"), ops1),
        "dispersion.eig.s": _per(g(t, "eig.s"), ops),
        "dispersion.solve.matrices": _per(g(c, "solve.matrices"), ops1),
        "dispersion.solve.s": _per(g(t, "solve.s"), ops),
        "dispersion.solve.gflop_computed": _per(g(c, "solve.gflop"), ops1),
        "dispersion.curves": _per(g(c, "curves"), ops1),
        "dispersion.eig_matrices_per_point": _per(g(c, "eig.matrices"), curve_points1),
        "dispersion.hinted.evals_per_point": _per(g(c, "eig.hinted"), g(c, "hinted.points")),
        "dispersion.scan.evals_per_point": _per(g(c, "eig.scan"), g(c, "scan.points")),
        "dispersion.hinted.s_per_point": _per(g(t, "hinted.s"), g(t, "hinted.points")),
        "dispersion.scan.s_per_point": _per(g(t, "scan.s"), g(t, "scan.points")),
        "dispersion.other_s": _per(g(t, "curve.self"), ops),
        "dispersion.csv.s": _per(g(t, "dispersion.csv"), ops),
        "inversion.fit.s": _per(g(t, "fit.s"), fits),
        "inversion.iterations": _per(g(c, "iterations"), fits1),
        "inversion.residuals.calls": _per(g(c, "residuals.calls"), fits1),
        "inversion.curve_solves_per_fit": _per(g(c, "fit.curves"), fits1),
        "inversion.eig_calls_per_fit": _per(g(c, "fit.eig_calls"), fits1),
        "inversion.curve_solves_per_iteration": _per(g(c, "fit.curves"), g(c, "iterations")),
        "inversion.identifiability.s": _per(g(t, "inversion.identifiability"), fits),
        "inversion.self_s": _per(g(t, "inversion.self"), fits),
        "signal.synthesize.s": _per(g(t, "signal.synthesize"), g(t, "signal.synthesize.calls")),
        "signal.spectrum.s": _per(g(t, "signal.spectrum"), g(t, "signal.spectrum.calls")),
        "signal.spectrum.nfft": _per(g(t, "rfft.nfft"), g(t, "rfft.calls")),
        "signal.pick.s": _per(g(t, "signal.pick"), g(t, "signal.pick.calls")),
        "signal.peaks_found_per_requested": _per(g(t, "pick.found"), g(t, "pick.requested")),
        "signal.csv.s": _per(g(t, "signal.csv"), ops),
        "cli.self_s": _per(g(t, "cli.self"), ops),
        "materials.stiffness_of.calls": _per(g(c, "stiffness_of.calls"), ops1),
        "materials.s": _per(
            sum(g(t, k) for k in ("materials.stiffness_of", "materials.sige_material",
                                  "materials.db")), ops),
    }
    for stage in ("dispersion", "synth", "extract", "fit", "plot"):
        metrics[f"cli.{stage}.s"] = _per(g(t, f"cli.{stage}"), g(t, f"cli.{stage}.calls"))
    return metrics


def span_cost_s(repeats: int = 20000) -> float:
    """Wall time one traced call adds, measured on a no-op with eig's attributes."""
    tracer = Tracer()
    a = np.zeros((2, 6, 6))
    plain = lambda x: None  # noqa: E731
    traced = tracer._wrap(plain, "calibration", _eig_attrs)
    times = []
    for fn in (plain, traced):
        start = time.perf_counter()
        for _ in range(repeats):
            fn(a)
        times.append(time.perf_counter() - start)
    return max(times[1] - times[0], 0.0) / repeats


def probe_us(fn, args, repeats: int = 60) -> float:
    """Median wall time of one call, in microseconds, after one warm-up call."""
    fn(*args)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def single_point_probes(stack) -> dict[str, float]:
    """Batch-1 cost of the public single-point solver entry points."""
    omega = 2.0 * math.pi * 300e6
    k = omega / 4500.0
    sub = stack.substrate
    tensor = sawkit.materials.stiffness_of(sub, stack.geometry)
    return {
        "dispersion.partial_waves.us": probe_us(
            sawkit.partial_waves, (tensor, sub.density, omega, k)),
        "dispersion.boundary_matrix.us": probe_us(sawkit.boundary_matrix, (stack, omega, k)),
        "dispersion.surface_green_g33.us": probe_us(
            sawkit.surface_green_g33, (stack, omega, k)),
    }
