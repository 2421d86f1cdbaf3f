"""Benchmark workloads: inputs made from a seed, one timed operation, output checks.

Every workload works on copies of the five bundled configs kept in
``perfbench/configs`` and on reference data in ``perfbench/data`` (written
by ``make_reference.py``), so edits to the package's own example configs do
not change what is measured.  Each workload runs in rounds of
``round_len`` operations; a round visits every case once.

``check(ops, k)`` returns None when operation k is correct and a reason
otherwise; ``final_checks(ops)`` runs the checks that belong to the run as a
whole.  Checks never call the code under test with hints or state that the
timed operations produced, so a wrong result cannot vouch for itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import sawkit as sk
from sawkit import cli, inversion

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
DATA_DIR = BENCH_DIR / "data"
CONFIGS = ("si_bare", "stack_1A", "stack_2", "stack_3", "sio2_on_si")
CURVE_FREQS = np.linspace(50e6, 900e6, 35)


@dataclass
class Op:
    """One timed operation: its input, output (None if it raised) and time."""

    index: int
    input: object
    output: object
    seconds: float  # wall
    ref_seconds: float  # wall scaled to the reference host speed
    error: str | None = None


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def load_case(name: str):
    """(stack, SiGe fraction per layer or None) from a benchmark config copy."""
    cfg = cli.load_config(CONFIG_DIR / f"{name}.cfg")
    layer_names = cfg.section("stack").get("layers", "").split()
    fractions = []
    for layer in layer_names:
        body = cfg.sections[f"layer:{layer}"]
        fractions.append(float(body["sige_c_ge"]) if "sige_c_ge" in body else None)
    return cli.build_stack(cfg), fractions


def scaled(stack: sk.LayerStack, factor: float) -> sk.LayerStack:
    """The stack with every layer thickness multiplied by ``factor``."""
    return replace(
        stack,
        layers=tuple(replace(l, thickness=l.thickness * factor) for l in stack.layers),
    )


def _max_rel_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a / b - 1.0))) if a.size else 0.0


class Invert:
    """One ``fit_parameters`` call per operation, alternating stacks 1A and 2.

    Why: the slowest real job in the repo (criterion 7).  It stresses the
    hinted root search at 35-point batches, the finite-difference Jacobian
    and the covariance and identifiability re-solves at the solution.  It
    barely touches the velocity scan and never touches ``signal``.

    Each curve has 35 points from 50 to 900 MHz: the stored truth
    velocities with 0.1 % Gaussian noise drawn from the seed, and sigmas
    given.  ``c_ge`` and layer-0 thickness start from the criterion-7
    starting points.
    """

    name = "invert"
    CASES = (("stack_1A", (0.25, 0.9e-6)), ("stack_2", (0.5, 0.8e-6)))
    C_GE_TOL = 0.01
    THICKNESS_TOL = 30e-9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        truth = json.loads((DATA_DIR / "invert_truth.json").read_text())
        self.cases = []
        for name, start in self.CASES:
            stack, fractions = load_case(name)
            self.cases.append(
                {
                    "stack": stack,
                    "start": start,
                    "truth": (fractions[0], stack.layers[0].thickness),
                    "freqs": tuple(truth[name]["frequencies"]),
                    "v": np.asarray(truth[name]["velocities"]),
                }
            )
        self.round_len = len(self.cases)

    def make_input(self, i: int) -> sk.FitProblem:
        case = self.cases[i % len(self.cases)]
        v = case["v"]
        noisy = v * (1.0 + rng_for(self.seed, i).normal(0.0, 0.001, v.size))
        c0, d0 = case["start"]
        return sk.FitProblem(
            template=case["stack"],
            free=(
                sk.FreeParam("c_ge", c0, 0.0, 1.0),
                sk.FreeParam("layer0.thickness", d0, 0.3e-6, 3e-6),
            ),
            measured=sk.DispersionCurve(
                case["freqs"], tuple(noisy), sigmas=tuple(0.001 * v)
            ),
            coupling=sk.SiGeCoupling(layer_index=0),
        )

    def run(self, problem):
        return inversion.fit_parameters(problem)

    def check(self, ops: list[Op], k: int) -> str | None:
        result = ops[k].output
        c_true, d_true = self.cases[k % len(self.cases)]["truth"]
        dc = result.estimates["c_ge"] - c_true
        dd = result.estimates["layer0.thickness"] - d_true
        if not result.converged:
            return f"fit did not converge: {result.message}"
        if abs(dc) > self.C_GE_TOL or abs(dd) > self.THICKNESS_TOL:
            return f"fit off truth: dc_ge={dc:.4g}, dd={dd * 1e9:.3g} nm"
        return None

    def final_checks(self, ops: list[Op]) -> list[str | None]:
        return []

    def perturb(self, ops: list[Op]) -> int:
        """Move the first fit 0.02 off in c_ge; returns the index changed."""
        r = ops[0].output
        est = dict(r.estimates, c_ge=r.estimates["c_ge"] + 0.02)
        ops[0].output = replace(r, estimates=est)
        return 0


class Forward:
    """One cold ``dispersion_curve`` per operation: no hints, 35 points.

    Why: each operation runs the velocity scan (about 750 velocities
    through eig, assembly and solve in large batches), then bisection from
    the scan brackets.  That is the same ``dispersion`` layer ``invert``
    uses, but in large batches where ``invert`` uses small hinted ones: a
    Jacobian or hint change should show no change here, a per-point kernel
    change should show here and on ``invert``.

    The cases are the five bundled stacks plus stack 1A with its layers
    x10, which crowds higher modes into the window.  Every layer thickness
    (x0.9..1.1) and SiGe fraction (+-0.05) is perturbed by the seed, so
    each curve is solved on a stack the solver has not seen.  Operations
    come in pairs: the stack on 50..900 MHz, then its scale-invariance twin
    (thicknesses x c, frequencies / c), which must agree within 1e-9.
    """

    name = "forward"
    TWIN_TOL = 1e-9
    SI_VELOCITY = 5080.0
    SI_TOL = 0.005
    ORACLE_TOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cases = [(name, *load_case(name), 1.0) for name in CONFIGS]
        self.cases.append(("stack_1A_x10", *load_case("stack_1A"), 10.0))
        self.round_len = 2 * len(self.cases)

    def make_input(self, i: int):
        pair = i // 2
        label, stack, fractions, thick = self.cases[pair % len(self.cases)]
        rng = rng_for(self.seed, pair)
        layers = []
        for layer, c_ge in zip(stack.layers, fractions):
            material = layer.material
            if c_ge is not None:
                material = sk.sige_material(float(np.clip(c_ge + rng.uniform(-0.05, 0.05), 0, 1)))
            layers.append(sk.Layer(material, layer.thickness * thick * rng.uniform(0.9, 1.1)))
        base = replace(stack, layers=tuple(layers))
        c = rng.uniform(0.5, 2.0)
        if i % 2 == 0:
            return label, base, CURVE_FREQS
        return label, scaled(base, c), CURVE_FREQS / c

    def run(self, inp):
        _, stack, freqs = inp
        return sk.dispersion_curve(stack, freqs)

    def check(self, ops: list[Op], k: int) -> str | None:
        label = ops[k].input[0]
        v = np.asarray(ops[k].output.velocities)
        if v.shape != CURVE_FREQS.shape or not np.all(np.isfinite(v)):
            return "curve has missing or non-finite points"
        if label == "si_bare" and np.max(np.abs(v / self.SI_VELOCITY - 1.0)) > self.SI_TOL:
            return f"bare Si off {self.SI_VELOCITY} m/s by more than 0.5 %"
        if k % 2 == 1:
            base = ops[k - 1].output
            if base is None:
                return "twin has no base curve to compare with"
            diff = _max_rel_diff(v, base.velocities)
            if diff > self.TWIN_TOL:
                return f"scale-invariance twin differs by {diff:.3g}"
        return None

    def final_checks(self, ops: list[Op]) -> list[str | None]:
        """Isotropic half-space against the analytic Rayleigh root."""
        nu = rng_for(self.seed, 1_000_000).uniform(0.05, 0.45)
        m = sk.IsotropicMaterial(young_modulus=70e9, poisson_ratio=nu, density=2500.0)
        curve = sk.dispersion_curve(
            sk.LayerStack(layers=(), substrate=m), np.linspace(50e6, 900e6, 5)
        )
        diff = _max_rel_diff(curve.velocities, [sk.rayleigh_velocity_isotropic(m)] * 5)
        if diff > self.ORACLE_TOL:
            return [f"isotropic half-space (nu={nu:.3f}) off Rayleigh root by {diff:.3g}"]
        return [None]

    def perturb(self, ops: list[Op]) -> int:
        """Move one velocity of the first twin 1e-6 off; returns the index changed."""
        curve = ops[1].output
        v = list(curve.velocities)
        v[len(v) // 2] *= 1.0 + 1e-6
        ops[1].output = replace(curve, velocities=tuple(v))
        return 1


def _parse_curve(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in text.splitlines()[1:] if line.strip()]
    arr = np.array([[float(x) for x in r[:2]] for r in rows]).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


class Pipeline:
    """The user's CLI chain for one bundled config per operation, in-process.

    ``dispersion`` -> ``synth --seed`` -> ``extract`` -> ``fit`` (configs
    with a ``[fit]`` section) -> ``plot``, through ``sawkit.cli.main``.

    Why: the only workload that runs ``signal``, config parsing, CSV I/O
    and ``format_fit_report``.  It mixes cold scans (``dispersion`` and the
    40-point model curve inside ``synth``) with a hinted fit on 2 points,
    so a gain on one path that costs the other shows here.

    Checks: every stage exits 0; the dispersion CSV is within 1e-9 of the
    stored reference; extracted velocities are within 0.2 % of the stored
    model curve; and a rerun of synth and extract with the first
    operation's seed gives byte-identical files.
    """

    name = "pipeline"
    REF_TOL = 1e-9
    EXTRACT_TOL = 0.002

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.round_len = len(CONFIGS)
        self.ref_dispersion = {}
        self.ref_model = {}
        self.has_fit = {}
        for name in CONFIGS:
            ref = DATA_DIR / "reference"
            self.ref_dispersion[name] = _parse_curve((ref / f"{name}.dispersion.csv").read_text())
            self.ref_model[name] = _parse_curve((ref / f"{name}.model.csv").read_text())
            self.has_fit[name] = "fit" in cli.load_config(CONFIG_DIR / f"{name}.cfg").sections

    def make_input(self, i: int):
        synth_seed = int(rng_for(self.seed, i).integers(0, 2**31 - 1))
        return CONFIGS[i % len(CONFIGS)], synth_seed

    @staticmethod
    def _main(argv) -> int | None:
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code

    def _chain(self, name: str, synth_seed: int, out: Path, full: bool = True) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        cfg = CONFIG_DIR / f"{name}.cfg"
        model, wave, measured = out / "model.csv", out / "wave.csv", out / "measured.csv"
        stages = [
            ("dispersion", ["dispersion", "--config", cfg, "--out", model]),
            ("synth", ["synth", "--config", cfg, "--seed", synth_seed, "--out", wave]),
            ("extract", ["extract", wave, "--config", cfg, "--out", measured]),
        ]
        if full and self.has_fit[name]:
            stages.append(("fit", ["fit", measured, "--config", cfg, "--out", out / "report.txt"]))
        if full:
            stages.append(("plot", ["plot", measured, "--model", model, "--out", out / "plot.svg"]))
        codes = {}
        with contextlib.redirect_stderr(io.StringIO()):
            for stage, argv in stages:
                codes[stage] = self._main(argv)
                if codes[stage] != 0:
                    break
        result = {"codes": codes}
        if all(c == 0 for c in codes.values()):
            result["dispersion"] = model.read_text()
            result["measured"] = measured.read_text()
            result["wave_sha256"] = hashlib.sha256(wave.read_bytes()).hexdigest()
            if full:
                result["svg_ok"] = (out / "plot.svg").read_text().startswith("<svg")
                result["report_ok"] = (out / "report.txt").is_file() or not self.has_fit[name]
        return result

    def run(self, inp):
        name, synth_seed = inp
        return self._chain(name, synth_seed, self.workdir / name)

    def check(self, ops: list[Op], k: int) -> str | None:
        name = ops[k].input[0]
        out = ops[k].output
        bad = {s: c for s, c in out["codes"].items() if c != 0}
        if bad:
            return f"exit codes {bad}"
        if not (out["svg_ok"] and out["report_ok"]):
            return "plot or fit report missing"
        f, v = _parse_curve(out["dispersion"])
        f_ref, v_ref = self.ref_dispersion[name]
        if _max_rel_diff(f, f_ref) > 1e-12 or _max_rel_diff(v, v_ref) > self.REF_TOL:
            return "dispersion CSV differs from the stored reference"
        f, v = _parse_curve(out["measured"])
        if f.size == 0:
            return "no points extracted"
        mf, mv = self.ref_model[name]
        if f.min() < mf[0] or f.max() > mf[-1]:
            return "extracted point outside the reference model band"
        diff = _max_rel_diff(v, np.interp(f, mf, mv))
        if diff > self.EXTRACT_TOL:
            return f"extracted velocity off the model by {diff:.3g}"
        return None

    def final_checks(self, ops: list[Op]) -> list[str | None]:
        """Synth and extract again with the first operation's seed: same bytes."""
        first = ops[0]
        if first.output is None or "wave_sha256" not in first.output:
            return ["first operation has no output to repeat"]
        again = self._chain(*first.input, self.workdir / "repeat", full=False)
        same = all(again.get(key) == first.output[key] for key in ("wave_sha256", "measured"))
        return [None if same else "repeated seed gave different output"]

    def perturb(self, ops: list[Op]) -> int:
        """Move one dispersion-CSV velocity 1e-6 off; returns the index changed."""
        out = ops[0].output
        lines = out["dispersion"].splitlines()
        f, v = lines[1].split(",")
        lines[1] = f"{f},{float(v) * (1.0 + 1e-6)!r}"
        ops[0].output = dict(out, dispersion="\n".join(lines) + "\n")
        return 0


WORKLOADS = {w.name: w for w in (Invert, Forward, Pipeline)}
