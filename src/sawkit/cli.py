"""Command-line front end: config loading, file orchestration, SVG plots.

Run configurations are INI-style text with named sections; every physical
quantity carries an explicit unit suffix in its key name::

    [run]
    seed = 12345

    [stack]
    substrate = silicon
    normal = 0 0 1
    propagation = 1 1 0
    layers = film oxide

    [layer:film]
    sige_c_ge = 0.179
    thickness_um = 1.02

    [layer:oxide]
    material = SiO2_thermal
    thickness_um = 2.435

Subcommands: dispersion, synth, extract, calibrate, fit, plot.
Exit codes: 0 success, 2 config/parse error, 3 forward-model failure,
4 extraction failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import (
    DispersionCurve,
    _read_table,
    dispersion_csv_text,
    dispersion_curve,
    read_dispersion_csv,
    velocity_window,
)
from .errors import (
    ConfigError,
    CurveError,
    DegeneratePointError,
    ExtractionError,
    FitError,
    FormatError,
    MaterialDbError,
    MaterialError,
    SynthesisError,
)
from .inversion import (
    FitProblem,
    FreeParam,
    SiGeCoupling,
    fit_parameters,
    format_fit_report,
    write_estimates_csv,
)
from .materials import (
    Layer,
    LayerStack,
    MaterialDb,
    PropagationGeometry,
    builtin_material_db,
    load_material_db,
    sige_material,
)
from .signal import (
    MaskSpec,
    calibrate_projection_ratio,
    pick_harmonic_peaks,
    read_waveform_csv,
    spectrum,
    synthesize_slope_signal,
    vph_points,
    waveform_csv_text,
)

_KNOWN_KEYS = {
    "run": {"seed", "material_db"},
    "stack": {"substrate", "normal", "propagation", "layers"},
    "layer": {"material", "sige_c_ge", "sige_poisson_ratio", "thickness_um"},
    "dispersion": {"f_min_mhz", "f_max_mhz", "n_points"},
    "mask": {"period_um", "duty", "n_periods"},
    "synthesis": {
        "distance_mm",
        "pulse_fwhm_ns",
        "sample_rate_ghz",
        "noise_rms",
        "n_harmonics",
    },
    "extraction": {
        "v_hint_m_s",
        "n_harmonics",
        "min_prominence",
        "window",
        "zero_pad_factor",
    },
    "calibration": {"pixel_pitch_um", "v_reference_m_s"},
}

# [fit] keys: 'free', 'couple_layer', plus one 'initial lower upper [log]'
# line per free parameter; parameter names carry unit suffixes.
_FIT_PARAM_UNITS = {
    "c_ge": ("c_ge", 1.0),
    "thickness_um": ("thickness", 1e-6),
    "young_modulus_gpa": ("young_modulus", 1e9),
    "density_kg_m3": ("density", 1.0),
    "poisson_ratio": ("poisson_ratio", 1.0),
}


@dataclass
class RunConfig:
    """Parsed run configuration; sections are plain key->string dicts."""

    path: Path
    sections: dict[str, dict[str, str]]
    db: MaterialDb
    seed: int | None

    def section(self, name: str, required: bool = False) -> dict[str, str]:
        if name not in self.sections:
            if required:
                raise ConfigError(f"{self.path}: missing required section [{name}]")
            return {}
        return self.sections[name]


def _parse_float(cfg: RunConfig, section: str, key: str, default=None) -> float:
    sec = cfg.section(section)
    if key not in sec:
        if default is None:
            raise ConfigError(f"{cfg.path}: [{section}] missing key {key!r}")
        return default
    return _finite(cfg, f"[{section}] {key}", sec[key])


def _finite(cfg: RunConfig, where: str, text: str) -> float:
    """``text`` as a finite float; ConfigError naming the file and ``where`` if not."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{cfg.path}: {where} = {text!r} is not a finite number")
    return value


def _parse_int(cfg: RunConfig, section: str, key: str, default=None) -> int:
    v = _parse_float(cfg, section, key, default)
    if v != int(v):
        raise ConfigError(f"{cfg.path}: [{section}] {key} must be an integer")
    return int(v)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    p = Path(path)
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    try:
        parser.read_string(text, source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"{p}: {exc}") from None

    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        kind = "layer" if name.startswith("layer:") else name
        if kind != "fit" and kind not in _KNOWN_KEYS:
            raise ConfigError(f"{p}: unknown section [{name}]")
        body = dict(parser.items(name))
        if kind != "fit":
            unknown = set(body) - _KNOWN_KEYS[kind]
            if unknown:
                raise ConfigError(
                    f"{p}: [{name}] unknown key(s) {sorted(unknown)}"
                )
        sections[name] = body

    run = sections.get("run", {})
    seed = None
    if "seed" in run:
        try:
            seed = int(run["seed"])
        except ValueError:
            raise ConfigError(f"{p}: [run] seed must be an integer") from None
    if "material_db" in run:
        db_path = Path(run["material_db"])
        if not db_path.is_absolute():
            db_path = p.parent / db_path
        db = load_material_db(db_path)
    else:
        db = builtin_material_db()
    return RunConfig(path=p, sections=sections, db=db, seed=seed)


def _parse_axis(cfg: RunConfig, value: str, what: str) -> tuple[float, float, float]:
    parts = value.split()
    if len(parts) != 3:
        raise ConfigError(f"{cfg.path}: {what} must be three numbers, got {value!r}")
    return tuple(_finite(cfg, what, x) for x in parts)  # type: ignore[return-value]


def build_stack(cfg: RunConfig) -> LayerStack:
    """LayerStack from [stack] and [layer:*] sections, materials resolved."""
    sec = cfg.section("stack", required=True)
    if "substrate" not in sec:
        raise ConfigError(f"{cfg.path}: [stack] missing key 'substrate'")
    sub_name = sec["substrate"]
    if sub_name not in cfg.db:
        raise ConfigError(
            f"{cfg.path}: substrate material {sub_name!r} not in database"
        )
    try:
        geometry = PropagationGeometry(
            normal=_parse_axis(cfg, sec.get("normal", "0 0 1"), "[stack] normal"),
            direction=_parse_axis(
                cfg, sec.get("propagation", "1 0 0"), "[stack] propagation"
            ),
        )
    except MaterialError as exc:
        raise ConfigError(f"{cfg.path}: {exc}") from None

    layers = []
    for layer_name in sec.get("layers", "").split():
        key = f"layer:{layer_name}"
        body = cfg.section(key)
        if not body:
            raise ConfigError(f"{cfg.path}: missing section [{key}]")
        if "thickness_um" not in body:
            raise ConfigError(f"{cfg.path}: [{key}] missing key 'thickness_um'")
        thickness = _finite(cfg, f"[{key}] thickness_um", body["thickness_um"]) * 1e-6
        if ("material" in body) == ("sige_c_ge" in body):
            raise ConfigError(
                f"{cfg.path}: [{key}] needs exactly one of 'material' or 'sige_c_ge'"
            )
        try:
            if "material" in body:
                mat_name = body["material"]
                if mat_name not in cfg.db:
                    raise ConfigError(
                        f"{cfg.path}: material {mat_name!r} not in database"
                    )
                material = cfg.db[mat_name]
            else:
                kwargs = {}
                if "sige_poisson_ratio" in body:
                    kwargs["poisson_ratio"] = _finite(
                        cfg, f"[{key}] sige_poisson_ratio", body["sige_poisson_ratio"])
                material = sige_material(_finite(cfg, f"[{key}] sige_c_ge", body["sige_c_ge"]),
                                         **kwargs)
        except MaterialError as exc:
            raise ConfigError(f"{cfg.path}: [{key}]: {exc}") from None
        layers.append(Layer(material=material, thickness=thickness))
    return LayerStack(layers=tuple(layers), substrate=cfg.db[sub_name], geometry=geometry)


def build_mask(cfg: RunConfig) -> MaskSpec:
    period = _parse_float(cfg, "mask", "period_um") * 1e-6
    duty = _parse_float(cfg, "mask", "duty", 0.5)
    n_periods = _parse_int(cfg, "mask", "n_periods")
    try:
        return MaskSpec(period=period, duty=duty, n_periods=n_periods)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: [mask]: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def fixture_config_path(name: str) -> Path:
    """Path of a bundled example config (si_bare, stack_1A, stack_1A_duty30,
    stack_2, stack_3, sio2_on_si)."""
    res = resources.files("sawkit.data.configs").joinpath(f"{name}.cfg")
    with resources.as_file(res) as p:
        return Path(p)


# --- subcommands --------------------------------------------------------------------


def cmd_dispersion(args) -> int:
    cfg = load_config(args.config)
    stack = build_stack(cfg)
    f_min = args.f_min_mhz if args.f_min_mhz is not None else _parse_float(
        cfg, "dispersion", "f_min_mhz"
    )
    f_max = args.f_max_mhz if args.f_max_mhz is not None else _parse_float(
        cfg, "dispersion", "f_max_mhz"
    )
    n = args.n_points if args.n_points is not None else _parse_int(
        cfg, "dispersion", "n_points"
    )
    if n < 0:
        raise ConfigError("n_points must be >= 0")
    if n == 0:
        curve = DispersionCurve((), ())
    else:
        if not 0 < f_min < f_max:
            raise ConfigError(f"need 0 < f_min < f_max, got {f_min}, {f_max} MHz")
        freqs = np.linspace(f_min * 1e6, f_max * 1e6, n)
        curve = dispersion_curve(stack, freqs)
    _write_text(args.out, dispersion_csv_text(curve))
    return 0


def _model_curve_for_mask(
    cfg: RunConfig, stack: LayerStack, mask: MaskSpec, rate: float
) -> DispersionCurve:
    """Forward-model curve spanning the mask's harmonics for synthesis: 40
    points from 0.35 of the slowest velocity over the period (below the
    fundamental) to 0.47 of the sample rate, ``rate`` GHz (just under Nyquist)."""
    v_lo, _ = velocity_window(stack)
    f_lo, f_hi = 0.35 * v_lo / mask.period, 0.47 * (rate * 1e9)
    if not f_hi > f_lo:
        raise ConfigError(
            f"{cfg.path}: [synthesis] sample_rate_ghz must exceed "
            f"{f_lo / 0.47 / 1e9:.3g} for this stack and mask, got {rate}"
        )
    return dispersion_curve(stack, np.linspace(f_lo, f_hi, 40))


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    stack = build_stack(cfg)
    mask = build_mask(cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    noise_rms = _parse_float(cfg, "synthesis", "noise_rms", 0.0)
    if noise_rms > 0 and seed is None:
        raise ConfigError(
            f"{cfg.path}: noise_rms > 0 requires a seed ([run] seed or --seed)"
        )
    rate = _parse_float(cfg, "synthesis", "sample_rate_ghz", 2.0)
    curve = _model_curve_for_mask(cfg, stack, mask, rate)
    sec = cfg.section("synthesis")
    n_harm = _parse_int(cfg, "synthesis", "n_harmonics", 0) if "n_harmonics" in sec else None
    w = synthesize_slope_signal(
        mask,
        curve,
        distance=_parse_float(cfg, "synthesis", "distance_mm", 5.0) * 1e-3,
        pulse_fwhm=_parse_float(cfg, "synthesis", "pulse_fwhm_ns", 1.2) * 1e-9,
        sample_rate=rate * 1e9,
        noise_rms=noise_rms,
        seed=seed,
        n_harmonics=n_harm,
    )
    _write_text(args.out, waveform_csv_text(w))
    return 0


def _merge_curves(parts: list[DispersionCurve]) -> DispersionCurve:
    rows: list[tuple[float, float, float]] = []
    for c in parts:
        rows.extend(zip(c.frequencies, c.velocities, c.sigmas))
    rows.sort()
    merged: list[tuple[float, float, float]] = []
    for f, v, s in rows:
        if merged and abs(f - merged[-1][0]) <= 1e-9 * f:
            f0, v0, s0 = merged[-1]
            merged[-1] = (f0, 0.5 * (v0 + v), 0.5 * (s0 + s))
        else:
            merged.append((f, v, s))
    return DispersionCurve(
        frequencies=tuple(r[0] for r in merged),
        velocities=tuple(r[1] for r in merged),
        sigmas=tuple(r[2] for r in merged),
    )


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    sec = cfg.section("extraction", required=True)
    v_hint = _parse_float(cfg, "extraction", "v_hint_m_s")
    n_harm = _parse_int(cfg, "extraction", "n_harmonics", 3)
    if n_harm < 1:
        raise ConfigError(f"{cfg.path}: [extraction] n_harmonics must be >= 1, got {n_harm}")
    min_prom = _parse_float(cfg, "extraction", "min_prominence", 0.05)
    window = sec.get("window", "hann")
    if window not in ("none", "hann"):
        raise ConfigError(
            f"{cfg.path}: [extraction] window must be 'none' or 'hann', got {window!r}"
        )
    zpf = _parse_int(cfg, "extraction", "zero_pad_factor", 4)
    if zpf < 1:
        raise ConfigError(f"{cfg.path}: [extraction] zero_pad_factor must be >= 1, got {zpf}")
    parts = []
    for path in args.waveforms:
        w = read_waveform_csv(path)
        if w.mask is not None:
            mask = w.mask
        else:
            mask = build_mask(cfg)
        try:
            s = spectrum(w, window=window, zero_pad_factor=zpf)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        peaks = pick_harmonic_peaks(
            s, fundamental_hint=v_hint / mask.period, n_harmonics=n_harm,
            min_prominence=min_prom,
        )
        if not peaks.peaks:
            raise ExtractionError(f"{path}: no harmonic peaks found")
        parts.append(vph_points(peaks, mask.period))
    curve = _merge_curves(parts)
    _write_text(args.out, dispersion_csv_text(curve))
    return 0


def _read_calibration_csv(path: str) -> list[tuple[float, float]]:
    _, columns, _, _ = _read_table(path, ("period_pixels,frequency_hz",), positive=True)
    if not columns.size:
        raise FormatError(f"{path}: no measurement rows")
    return list(zip(*columns))


def cmd_calibrate(args) -> int:
    pitch, v_ref = 32.0, 5080.0
    cfg = load_config(args.config) if args.config else None
    if args.pixel_pitch_um is not None:
        pitch = args.pixel_pitch_um
    elif cfg is not None:
        pitch = _parse_float(cfg, "calibration", "pixel_pitch_um", pitch)
    if args.v_reference is not None:
        v_ref = args.v_reference
    elif cfg is not None:
        v_ref = _parse_float(cfg, "calibration", "v_reference_m_s", v_ref)
    rows = _read_calibration_csv(args.measurements)
    result = calibrate_projection_ratio(rows, pixel_pitch=pitch * 1e-6, v_reference=v_ref)
    lines = [
        "projection-ratio calibration",
        f"  measurements: {len(result.values)}",
        f"  pixel pitch: {pitch!r} um",
        f"  reference velocity: {v_ref!r} m/s",
        f"  r = {result.r!r}",
    ]
    if result.sigma_defined:
        lines.append(f"  sigma_r = {result.sigma_r!r}")
    else:
        lines.append("  sigma_r = undefined (single measurement)")
    lines.append("  per-measurement r: " + " ".join(f"{x!r}" for x in result.values))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _build_fit_problem(cfg: RunConfig, measured: DispersionCurve) -> FitProblem:
    stack = build_stack(cfg)
    sec = cfg.section("fit", required=True)
    if "free" not in sec:
        raise ConfigError(f"{cfg.path}: [fit] missing key 'free'")
    names = sec["free"].split()
    if not names:
        raise ConfigError(f"{cfg.path}: [fit] 'free' lists no parameters")
    free = []
    for name in names:
        if name not in sec:
            raise ConfigError(
                f"{cfg.path}: [fit] missing bounds line for {name!r} "
                "(expected 'initial lower upper [log]')"
            )
        parts = sec[name].split()
        transform = "linear"
        if len(parts) == 4 and parts[3] == "log":
            transform = "log"
            parts = parts[:3]
        if len(parts) != 3:
            raise ConfigError(
                f"{cfg.path}: [fit] {name} must be 'initial lower upper [log]'"
            )
        initial, lower, upper = (_finite(cfg, f"[fit] {name}", x) for x in parts)
        if name == "c_ge":
            internal, scale = "c_ge", 1.0
        else:
            prefix, _, field = name.partition(".")
            if not prefix.startswith("layer") or field not in _FIT_PARAM_UNITS:
                raise ConfigError(f"{cfg.path}: [fit] unknown parameter {name!r}")
            fld, scale = _FIT_PARAM_UNITS[field]
            internal = f"{prefix}.{fld}"
        try:
            free.append(
                FreeParam(
                    name=internal,
                    initial=initial * scale,
                    lower=lower * scale,
                    upper=upper * scale,
                    transform=transform,
                )
            )
        except FitError as exc:
            raise ConfigError(f"{cfg.path}: [fit] {name}: {exc}") from None
    coupling = None
    if any(p.name == "c_ge" for p in free):
        layer_idx = 0
        if "couple_layer" in sec:
            layer_idx = _parse_int(cfg, "fit", "couple_layer")
        coupling = SiGeCoupling(layer_index=layer_idx)
    extra = set(sec) - {"free", "couple_layer"} - set(names)
    if extra:
        raise ConfigError(f"{cfg.path}: [fit] unknown key(s) {sorted(extra)}")
    try:
        return FitProblem(
            template=stack, free=tuple(free), measured=measured, coupling=coupling
        )
    except FitError as exc:
        raise ConfigError(f"{cfg.path}: {exc}") from None


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    measured = read_dispersion_csv(args.measured)
    problem = _build_fit_problem(cfg, measured)
    result = fit_parameters(problem)
    report = format_fit_report(problem, result)
    _write_text(args.out, report)
    csv_path = args.estimates_csv
    if csv_path is None and args.out is not None:
        csv_path = str(Path(args.out).with_suffix(".estimates.csv"))
    if csv_path is not None:
        write_estimates_csv(result, csv_path)
    if not result.converged:
        sys.stderr.write(f"warning: fit did not converge: {result.message}\n")
    if len(problem.measured) == len(problem.free):
        sys.stderr.write(
            f"warning: {len(problem.measured)} measured points for "
            f"{len(problem.free)} free parameters leave 0 degrees of freedom; "
            "the fit interpolates them and its residual cannot test the model\n"
        )
    weak = [n for n, f in result.identifiability.items() if f != "well-determined"]
    if weak:
        sys.stderr.write(
            "warning: parameter(s) " + ", ".join(weak) + " are not well determined\n"
        )
    return 0


# --- SVG plotting ----------------------------------------------------------------------

_STYLES = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARKERS = ("circle", "square", "diamond", "triangle")


def _svg_plot(measured: list[tuple[str, DispersionCurve]],
              models: list[tuple[str, DispersionCurve]]) -> str:
    width, height = 640, 460
    ml, mr, mt, mb = 72, 16, 16, 52
    all_f = [f for _, c in measured + models for f in c.frequencies]
    all_v = [v for _, c in measured + models for v in c.velocities]
    f_lo, f_hi = min(all_f) / 1e6, max(all_f) / 1e6
    v_lo, v_hi = min(all_v), max(all_v)
    pad_f = 0.05 * (f_hi - f_lo) or 1.0
    pad_v = 0.05 * (v_hi - v_lo) or 1.0
    f_lo, f_hi = f_lo - pad_f, f_hi + pad_f
    v_lo, v_hi = v_lo - pad_v, v_hi + pad_v

    def sx(f_mhz: float) -> float:
        return ml + (f_mhz - f_lo) / (f_hi - f_lo) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - (v - v_lo) / (v_hi - v_lo) * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black"/>',
    ]
    for i in range(6):
        f_tick = f_lo + i * (f_hi - f_lo) / 5
        v_tick = v_lo + i * (v_hi - v_lo) / 5
        x, y = sx(f_tick), sy(v_tick)
        out.append(
            f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{height - mb + 20}" font-size="12" '
            f'text-anchor="middle">{f_tick:.1f}</text>'
        )
        out.append(
            f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">{v_tick:.0f}</text>'
        )
    out.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" font-size="14" '
        'text-anchor="middle">Frequency (MHz)</text>'
    )
    out.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">'
        "Phase velocity (m/s)</text>"
    )
    for i, (label, curve) in enumerate(models):
        color = _STYLES[i % len(_STYLES)]
        pts = " ".join(
            f"{sx(f / 1e6):.2f},{sy(v):.2f}"
            for f, v in zip(curve.frequencies, curve.velocities)
        )
        dash = "" if i == 0 else f' stroke-dasharray="{4 + 3 * i} 3"'
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}><title>{label}</title></polyline>'
        )
    for i, (label, curve) in enumerate(measured):
        color = _STYLES[(i + len(models)) % len(_STYLES)]
        shape = _MARKERS[i % len(_MARKERS)]
        for f, v in zip(curve.frequencies, curve.velocities):
            x, y = sx(f / 1e6), sy(v)
            if shape == "circle":
                out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
            elif shape == "square":
                out.append(
                    f'<rect x="{x - 3:.2f}" y="{y - 3:.2f}" width="6" height="6" '
                    f'fill="{color}"/>'
                )
            elif shape == "diamond":
                out.append(
                    f'<polygon points="{x:.2f},{y - 4:.2f} {x + 4:.2f},{y:.2f} '
                    f'{x:.2f},{y + 4:.2f} {x - 4:.2f},{y:.2f}" fill="{color}"/>'
                )
            else:
                out.append(
                    f'<polygon points="{x:.2f},{y - 4:.2f} {x + 4:.2f},{y + 3:.2f} '
                    f'{x - 4:.2f},{y + 3:.2f}" fill="{color}"/>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(args) -> int:
    measured = [(Path(p).name, read_dispersion_csv(p)) for p in args.curves]
    models = [(Path(p).name, read_dispersion_csv(p)) for p in (args.model or [])]
    if not measured and not models:
        raise ConfigError("at least one input curve is required")
    empty = [name for name, c in measured + models if len(c) == 0]
    if empty:
        raise ConfigError(f"cannot plot empty curve(s): {', '.join(empty)}")
    _write_text(args.out, _svg_plot(measured, models))
    return 0


# --- entry point ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawkit",
        description="SAW dispersion modeling, signal extraction, and film fitting",
    )
    parser.add_argument("--version", action="version", version=f"sawkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="forward-model dispersion curve CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--f-min-mhz", type=float, dest="f_min_mhz")
    p.add_argument("--f-max-mhz", type=float, dest="f_max_mhz")
    p.add_argument("--n-points", type=int, dest="n_points")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("synth", help="synthesize a mask-excited slope waveform CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract dispersion points from waveform CSVs")
    p.add_argument("waveforms", nargs="+")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("calibrate", help="projection ratio from silicon measurements")
    p.add_argument("measurements")
    p.add_argument("--config")
    p.add_argument("--pixel-pitch-um", type=float, dest="pixel_pitch_um")
    p.add_argument("--v-reference", type=float, dest="v_reference")
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fit", help="fit stack parameters to a measured curve")
    p.add_argument("measured")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--estimates-csv", dest="estimates_csv")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("plot", help="SVG plot of measured and model curves")
    p.add_argument("curves", nargs="*")
    p.add_argument("--model", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CurveError, DegeneratePointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ExtractionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (
        ConfigError,
        FormatError,
        MaterialDbError,
        MaterialError,
        SynthesisError,
        FitError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
