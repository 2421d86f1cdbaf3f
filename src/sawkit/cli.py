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
from functools import lru_cache
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
    DEFAULT_FILM_POISSON,
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

_REQUIRED = object()  # the default of a numeric key that must be given

# Every key of every section.  A numeric key maps to (parse, default, lower
# bound, strict), read by _number; a default of None makes it optional.  Text
# keys, and [run] seed (int() reads it exactly at any size), map to None.
_KEYS = {
    "run": {"seed": None, "material_db": None},
    "stack": {"substrate": None, "normal": None, "propagation": None, "layers": None},
    "layer": {  # sige_material checks c_ge and the Poisson ratio
        "material": None,
        "sige_c_ge": (float, None, None, False),
        "sige_poisson_ratio": (float, DEFAULT_FILM_POISSON, None, False),
        "thickness_um": (float, _REQUIRED, 0, True),
    },
    "dispersion": {
        "f_min_mhz": (float, _REQUIRED, 0, True),
        "f_max_mhz": (float, _REQUIRED, None, False),
        "n_points": (int, _REQUIRED, 0, False),
    },
    "mask": {  # MaskSpec checks their ranges
        "period_um": (float, _REQUIRED, None, False),
        "duty": (float, 0.5, None, False),
        "n_periods": (int, _REQUIRED, None, False),
    },
    "synthesis": {
        "distance_mm": (float, 5.0, 0, True),
        "pulse_fwhm_ns": (float, 1.2, 0, True),
        "sample_rate_ghz": (float, 2.0, 0, True),
        "noise_rms": (float, 0.0, 0, False),
        "n_harmonics": (int, None, 1, False),
    },
    "extraction": {
        "v_hint_m_s": (float, _REQUIRED, 0, True),
        "n_harmonics": (int, 3, 1, False),
        "min_prominence": (float, 0.05, None, False),
        "window": None,
        "zero_pad_factor": (int, 4, 1, False),
    },
    "calibration": {
        "pixel_pitch_um": (float, 32.0, 0, True),
        "v_reference_m_s": (float, 5080.0, 0, True),
    },
    "fit": {"free": None, "couple_layer": (int, 0, 0, False)},
}

# [fit] also takes one 'initial lower upper' line per free parameter:
# 'c_ge', or 'layer<i>.' and one of these fields with its unit suffix.
_FIT_PARAM_UNITS = {
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


def _finite(cfg: RunConfig, where: str, text: str) -> float:
    """``text`` as a finite float; ConfigError naming the file and ``where`` if not."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{cfg.path}: {where} = {text!r} is not a finite number")
    return value


def _number(cfg: RunConfig | None, section: str, key: str, flag: str | None = None, value=None):
    """The ``flag``'s ``value`` if given, else ``[section] key`` of ``cfg``,
    else the key's default in ``_KEYS``.  ConfigError naming the flag, or
    the file, section and key, if a required key is missing, or unless the
    value is finite, whole for an int key and inside the key's bound."""
    parse, default, lower, strict = _KEYS[section.partition(":")[0]][key]
    where = flag
    if value is None:
        text = cfg.section(section).get(key) if cfg else None
        if text is None:
            if default is _REQUIRED:
                raise ConfigError(f"{cfg.path}: [{section}] missing key {key!r}")
            return default
        where = f"{cfg.path}: [{section}] {key}"
        value = _finite(cfg, f"[{section}] {key}", text)
    if math.isfinite(value) and parse(value) == value:
        value = parse(value)
        if lower is None or value > lower or value == lower and not strict:
            return value
    bound = "" if lower is None else f" and {'>' if strict else '>='} {lower}"
    raise ConfigError(
        f"{where} must be {'an integer' if parse is int else 'finite'}{bound}, got {value!r}")


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
        if kind not in _KEYS:
            raise ConfigError(f"{p}: unknown section [{name}]")
        body = dict(parser.items(name))
        known = set(_KEYS[kind]).union(body.get("free", "").split() if kind == "fit" else ())
        unknown = set(body) - known
        if unknown:
            raise ConfigError(f"{p}: [{name}] unknown key(s) {sorted(unknown)}")
        sections[name] = body

    run = sections.get("run", {})
    seed = None
    if "seed" in run:
        try:
            seed = int(run["seed"])
        except ValueError:
            raise ConfigError(f"{p}: [run] seed must be an integer") from None
        if seed < 0:
            raise ConfigError(f"{p}: [run] seed must be >= 0, got {seed}")
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
        thickness = _number(cfg, key, "thickness_um") * 1e-6
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
                material = sige_material(_number(cfg, key, "sige_c_ge"),
                                         _number(cfg, key, "sige_poisson_ratio"))
        except MaterialError as exc:
            raise ConfigError(f"{cfg.path}: [{key}]: {exc}") from None
        layers.append(Layer(material=material, thickness=thickness))
    return LayerStack(layers=tuple(layers), substrate=cfg.db[sub_name], geometry=geometry)


def build_mask(cfg: RunConfig) -> MaskSpec:
    period = _number(cfg, "mask", "period_um") * 1e-6
    duty = _number(cfg, "mask", "duty")
    n_periods = _number(cfg, "mask", "n_periods")
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
    f_min = _number(cfg, "dispersion", "f_min_mhz", "--f-min-mhz", args.f_min_mhz)
    f_max = _number(cfg, "dispersion", "f_max_mhz", "--f-max-mhz", args.f_max_mhz)
    n = _number(cfg, "dispersion", "n_points", "--n-points", args.n_points)
    if n and not f_min < f_max:
        at = {k: flag if getattr(args, k) is not None else f"{cfg.path}: [dispersion] {k}"
              for k, flag in (("f_min_mhz", "--f-min-mhz"), ("f_max_mhz", "--f-max-mhz"))}
        raise ConfigError(f"{at['f_min_mhz']} = {f_min} must be below {at['f_max_mhz']} = {f_max}")
    curve = dispersion_curve(stack, np.linspace(f_min * 1e6, f_max * 1e6, n))
    _write_text(args.out, dispersion_csv_text(curve))
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    stack = build_stack(cfg)
    mask = build_mask(cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    noise_rms = _number(cfg, "synthesis", "noise_rms")
    if noise_rms > 0 and seed is None:
        raise ConfigError(
            f"{cfg.path}: noise_rms > 0 requires a seed ([run] seed or --seed)"
        )
    rate = _number(cfg, "synthesis", "sample_rate_ghz")
    fwhm = _number(cfg, "synthesis", "pulse_fwhm_ns")
    distance = _number(cfg, "synthesis", "distance_mm")
    n_harm = _number(cfg, "synthesis", "n_harmonics")
    try:
        w = synthesize_slope_signal(
            mask,
            stack,
            distance=distance * 1e-3,
            pulse_fwhm=fwhm * 1e-9,
            sample_rate=rate * 1e9,
            noise_rms=noise_rms,
            seed=seed,
            n_harmonics=n_harm,
        )
    except SynthesisError as exc:
        if exc.argument != "sample_rate":
            raise
        raise ConfigError(f"{cfg.path}: [synthesis] sample_rate_ghz = {rate}: {exc}") from None
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
    v_hint = _number(cfg, "extraction", "v_hint_m_s")
    n_harm = _number(cfg, "extraction", "n_harmonics")
    min_prom = _number(cfg, "extraction", "min_prominence")
    window = sec.get("window", "hann")
    if window not in ("none", "hann"):
        raise ConfigError(
            f"{cfg.path}: [extraction] window must be 'none' or 'hann', got {window!r}"
        )
    zpf = _number(cfg, "extraction", "zero_pad_factor")
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
        for n, reason in peaks.skipped:
            sys.stderr.write(f"warning: {path}: harmonic {n} skipped: {reason}\n")
        parts.append(vph_points(peaks, mask.period))
    curve = _merge_curves(parts)
    _write_text(args.out, dispersion_csv_text(curve))
    return 0


def _read_calibration_csv(path: str) -> list[tuple[float, float]]:
    _, columns, _ = _read_table(path, ("period_pixels,frequency_hz",), positive=True)
    if not columns.size:
        raise FormatError(f"{path}: no measurement rows")
    return list(zip(*columns))


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config) if args.config else None
    pitch = _number(cfg, "calibration", "pixel_pitch_um", "--pixel-pitch-um",
                    args.pixel_pitch_um)
    v_ref = _number(cfg, "calibration", "v_reference_m_s", "--v-reference", args.v_reference)
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
    names = sec.get("free", "").split()
    if not names:
        raise ConfigError(f"{cfg.path}: [fit] 'free' is missing or lists no parameters")
    free, keys = [], {}
    for name in names:
        if name not in sec:
            raise ConfigError(
                f"{cfg.path}: [fit] missing bounds line for {name!r} "
                "(expected 'initial lower upper')"
            )
        parts = sec[name].split()
        if len(parts) != 3:
            raise ConfigError(f"{cfg.path}: [fit] {name} must be 'initial lower upper'")
        initial, lower, upper = (_finite(cfg, f"[fit] {name}", x) for x in parts)
        if name == "c_ge":
            internal, scale = "c_ge", 1.0
        else:
            prefix, _, field = name.partition(".")
            if not prefix.startswith("layer") or field not in _FIT_PARAM_UNITS:
                raise ConfigError(f"{cfg.path}: [fit] unknown parameter {name!r}")
            fld, scale = _FIT_PARAM_UNITS[field]
            internal = f"{prefix}.{fld}"
        keys[internal] = name
        try:
            free.append(
                FreeParam(
                    name=internal,
                    initial=initial * scale,
                    lower=lower * scale,
                    upper=upper * scale,
                )
            )
        except FitError as exc:
            raise ConfigError(f"{cfg.path}: [fit] {name}: {exc}") from None
    coupling = None
    if any(p.name == "c_ge" for p in free):
        coupling = SiGeCoupling(layer_index=_number(cfg, "fit", "couple_layer"))
    try:
        return FitProblem(
            template=stack, free=tuple(free), measured=measured, coupling=coupling
        )
    except FitError as exc:
        if exc.param in keys:
            raise ConfigError(f"{cfg.path}: [fit] {keys[exc.param]}: {exc.reason}") from None
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
    for line in report.splitlines():
        if line.startswith("warning:"):
            sys.stderr.write(line + "\n")
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


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``main`` runs the
    subcommand ``cmd_<name>`` it names, looked up when called."""
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

    p = sub.add_parser("synth", help="synthesize a mask-excited slope waveform CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("extract", help="extract dispersion points from waveform CSVs")
    p.add_argument("waveforms", nargs="+")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("calibrate", help="projection ratio from silicon measurements")
    p.add_argument("measurements")
    p.add_argument("--config")
    p.add_argument("--pixel-pitch-um", type=float, dest="pixel_pitch_um")
    p.add_argument("--v-reference", type=float, dest="v_reference")
    p.add_argument("--out")

    p = sub.add_parser("fit", help="fit stack parameters to a measured curve")
    p.add_argument("measured")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--estimates-csv", dest="estimates_csv")

    p = sub.add_parser("plot", help="SVG plot of measured and model curves")
    p.add_argument("curves", nargs="*")
    p.add_argument("--model", action="append")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
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
        OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
