"""Narrowband mask-excited SAW slope signals: synthesis, spectra, harmonic
peak picking, phase-velocity extraction, and projection-ratio calibration.

A mask of period d illuminated by a short laser pulse launches a wavetrain
whose spectrum is a comb of narrow peaks, one per wavenumber k_n = 2 pi n / d
the mask fixes.  Synthesis solves the surface mode at each k_n for its
velocity v_n, which puts the peak at f_n = n * v_n / d, the frequency
solving f_n = n * v(f_n) / d.  Each peak maps back to one dispersion-curve
point via v = f * (d / n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dispersion import DispersionCurve, _csv_text, _find_modes, _read_table, velocity_window
from .errors import ExtractionError, FormatError, SynthesisError
from .materials import LayerStack

_LN2 = math.log(2.0)
# a credible spectral peak must exceed this multiple of its band's median
_PEAK_FLOOR_RATIO = 6.0
# bounds on the phase-velocity ratio between adjacent harmonics, per step
_STEP_DOWN = 0.85
_STEP_UP = 1.03


@dataclass(frozen=True)
class MaskSpec:
    """Projection mask: line period, bar width fraction, number of periods."""

    period: float  # m
    duty: float  # bar width / period
    n_periods: int

    def __post_init__(self):
        if not 0 < self.period < math.inf:
            raise ValueError(f"mask period must be finite and > 0, got {self.period}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"mask duty must be in (0, 1), got {self.duty}")
        if self.n_periods < 2:
            raise ValueError(f"n_periods must be >= 2, got {self.n_periods}")


@dataclass(frozen=True, eq=False)
class Waveform:
    """Time-sampled surface-slope signal at a fixed propagation distance."""

    samples: np.ndarray
    sample_rate: float  # Hz
    distance: float  # m
    seed: int | None = None
    mask: MaskSpec | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if not 0 < self.distance < math.inf:
            raise ValueError(f"distance must be finite and > 0, got {self.distance}")

    def __len__(self) -> int:
        return self.samples.size

    def energy(self) -> float:
        return float(np.sum(self.samples**2))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Amplitude spectrum of a waveform (|rfft| bins over ``nfft`` points)."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    window: str
    zero_pad_factor: int
    n_samples: int
    sample_rate: float
    nfft: int  # FFT length: the samples, then zeros

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def energy(self) -> float:
        """Parseval sum; equals the waveform energy for window='none'."""
        a2 = self.amplitudes**2
        total = a2[0] + 2.0 * a2[1:-1].sum()
        total += a2[-1] if self.nfft % 2 == 0 else 2.0 * a2[-1]
        return float(total / self.nfft)


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1): a length the FFT takes fast.

    A length with a large prime factor can take ten times as long or more:
    27 576 = 2^3 3^2 383, say, against 27 648 = 2^10 3^3.
    """
    best = 1 << (n - 1).bit_length()  # the smallest power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def spectrum(w: Waveform, window: str = "none", zero_pad_factor: int = 1) -> Spectrum:
    """Amplitude spectrum of a waveform with optional Hann window and padding.

    The samples are padded with zeros to ``_fft_length(len(w) *
    zero_pad_factor)`` points, so the factor is a minimum: the bins are
    sample_rate / nfft apart, at most as wide as sample_rate / (len(w) *
    zero_pad_factor).
    """
    if len(w) < 16:
        raise ValueError(f"waveform too short for a spectrum: {len(w)} < 16 samples")
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be >= 1")
    if window == "none":
        x = w.samples
    elif window == "hann":
        x = w.samples * np.hanning(len(w))
    else:
        raise ValueError(f"window must be 'none' or 'hann', got {window!r}")
    nfft = _fft_length(len(w) * zero_pad_factor)
    amps = np.abs(np.fft.rfft(x, nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / w.sample_rate)
    amps.setflags(write=False)
    freqs.setflags(write=False)
    return Spectrum(
        frequencies=freqs,
        amplitudes=amps,
        window=window,
        zero_pad_factor=zero_pad_factor,
        n_samples=len(w),
        sample_rate=w.sample_rate,
        nfft=nfft,
    )


# --- synthesis --------------------------------------------------------------------


def _grating_amplitude(n: int, duty: float) -> float:
    """Relative slope amplitude of harmonic n for a square grating."""
    return abs(math.sin(math.pi * n * duty))


def synthesize_slope_signal(
    mask: MaskSpec,
    stack: LayerStack,
    distance: float,
    pulse_fwhm: float = 1.2e-9,
    sample_rate: float = 2e9,
    noise_rms: float = 0.0,
    seed: int | None = None,
    n_harmonics: int | None = None,
) -> Waveform:
    """Sum of harmonic tone bursts propagated over `distance` on the stack.

    Harmonic n has the wavenumber k_n = 2 pi n / period the mask fixes, and
    the stack's lowest mode there (``dispersion_curve``'s search held at
    fixed k, one batch for all n) has velocity v_n.  Its burst of n_periods grating periods sits
    at f_n = n * v_n / period, travels at v_n, and is weighted by the
    square-grating coefficient and the Gaussian spectrum of the excitation
    pulse.  An explicit ``n_harmonics`` must all have a mode and is bounded
    by the anti-aliasing check alone; by default the harmonics are the
    prefix with modes at or below 0.45 of the sample rate.  The waveform
    runs to 1.2 times the end of the latest burst.
    """
    if not distance > 0:
        raise SynthesisError("distance must be > 0")
    if not pulse_fwhm > 0:
        raise SynthesisError("pulse_fwhm must be > 0")
    if noise_rms < 0:
        raise SynthesisError("noise_rms must be >= 0")
    if noise_rms > 0 and seed is None:
        raise SynthesisError("a seed is required when noise_rms > 0")
    if seed is not None and seed < 0:
        raise SynthesisError(f"seed must be >= 0, got {seed}")
    if n_harmonics is not None and n_harmonics < 1:
        raise SynthesisError("n_harmonics must be >= 1")

    # by default n_max covers every harmonic at or below the cap, as v >= v_floor
    v_floor, v_ceiling = velocity_window(stack)
    f_cap = 0.45 * sample_rate if n_harmonics is None else math.inf
    n_max = int(f_cap * mask.period / v_floor) + 1 if n_harmonics is None else n_harmonics
    ns = np.arange(1, n_max + 1)
    k = 2.0 * math.pi * ns / mask.period
    v, _ = _find_modes(stack, k, None, fixed_k=True)
    f = ns * v / mask.period
    misfits = np.flatnonzero(~(f <= f_cap))  # NaN where a harmonic has no mode
    count = misfits[0] if misfits.size else n_max
    if misfits.size and (count == 0 or n_harmonics is not None):
        if np.isnan(v[count]):
            raise SynthesisError(
                f"no surface mode at harmonic {count + 1} (k = {k[count]:.6g} rad/m) "
                f"in window [{v_floor:.1f}, {v_ceiling:.1f}] m/s"
            )
        raise SynthesisError(
            f"the fundamental at {f[0]:.4g} Hz lies above 0.45 of sample_rate "
            f"{sample_rate:.4g} Hz", argument="sample_rate"
        )

    f_max = f[:count].max()
    if not sample_rate > 2.0 * f_max:
        raise SynthesisError(
            f"sample_rate {sample_rate:.4g} Hz violates anti-aliasing for "
            f"highest harmonic {f_max:.4g} Hz", argument="sample_rate"
        )

    bursts = []
    t_end = 0.0
    for n, f_n, v_n in zip(ns[:count].tolist(), f[:count].tolist(), v[:count].tolist()):
        amp = _grating_amplitude(n, mask.duty) * math.exp(
            -((math.pi * f_n * pulse_fwhm) ** 2) / (4.0 * _LN2)
        )
        t_arrive = distance / v_n
        t_span = mask.n_periods * mask.period / v_n
        bursts.append((f_n, amp, t_arrive, t_span))
        t_end = max(t_end, t_arrive + t_span)

    n_samples = int(round(1.2 * t_end * sample_rate))
    t = np.arange(n_samples) / sample_rate
    x = np.zeros(n_samples)
    for f_n, amp, t_arrive, t_span in bursts:
        gate = (t >= t_arrive) & (t < t_arrive + t_span)
        x[gate] += amp * np.cos(2.0 * math.pi * f_n * (t[gate] - t_arrive))

    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_rms * np.abs(x).max(), n_samples)

    return Waveform(
        samples=x, sample_rate=sample_rate, distance=distance, seed=seed, mask=mask
    )


# --- peak picking -----------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicPeak:
    """One refined spectral peak assigned to mask harmonic ``harmonic``."""

    harmonic: int
    frequency: float
    amplitude: float
    sigma_f: float


@dataclass(frozen=True)
class PeakPickResult:
    """Found peaks plus the harmonics omitted as below prominence."""

    peaks: tuple[HarmonicPeak, ...]
    skipped: tuple[tuple[int, str], ...] = ()

    def __iter__(self):
        return iter(self.peaks)

    def __len__(self):
        return len(self.peaks)


def _refine_peak(s: Spectrum, idx: int) -> tuple[float, float]:
    """Sub-bin peak position by a parabola through log amplitudes."""
    a = s.amplitudes
    if idx <= 0 or idx >= a.size - 1 or a[idx - 1] <= 0 or a[idx + 1] <= 0:
        return float(s.frequencies[idx]), float(a[idx])
    y0, y1, y2 = np.log(a[idx - 1 : idx + 2])
    denom = y0 - 2.0 * y1 + y2
    delta = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    delta = min(max(delta, -0.5), 0.5)
    f = (idx + delta) * s.bin_width
    amp = math.exp(y1 - 0.25 * (y0 - y2) * delta)
    return float(f), float(amp)


def _width_3db(s: Spectrum, idx: int, peak_amp: float) -> float:
    """Half the -3 dB full width around a peak bin, by linear crossing interpolation."""
    target = peak_amp / math.sqrt(2.0)
    a = s.amplitudes
    left = float(s.frequencies[idx])
    for i in range(idx, 0, -1):
        if a[i - 1] < target:
            frac = (a[i] - target) / (a[i] - a[i - 1])
            left = float(s.frequencies[i] - frac * s.bin_width)
            break
    right = float(s.frequencies[idx])
    for i in range(idx, a.size - 1):
        if a[i + 1] < target:
            frac = (a[i] - target) / (a[i] - a[i + 1])
            right = float(s.frequencies[i] + frac * s.bin_width)
            break
    width = right - left
    return 0.5 * width if width > 0 else 0.5 * s.bin_width


def pick_harmonic_peaks(
    s: Spectrum,
    fundamental_hint: float,
    n_harmonics: int = 1,
    min_prominence: float = 0.05,
) -> PeakPickResult:
    """Refined spectral peaks assigned to mask harmonics 1..n_harmonics.

    The fundamental is the highest peak within +/-20 % of the hint.  Each
    further harmonic is searched in a window chained from the last accepted
    peak: the velocity ratio between harmonics n_prev and n is bounded to
    [0.85, 1.03] per harmonic step, which keeps strongly dispersive combs
    from mis-assigning a neighboring harmonic when one is suppressed.

    Harmonics whose amplitude falls below ``min_prominence`` of the
    fundamental are omitted and listed in the result's ``skipped`` report.
    Every accepted peak must also stand well above the noise floor of its
    search band (6x the band's median amplitude); a missing fundamental
    raises ExtractionError.
    """
    if n_harmonics < 1:
        raise ValueError("n_harmonics must be >= 1")
    f = s.frequencies
    if not f[0] <= fundamental_hint <= f[-1]:
        raise ExtractionError(
            f"fundamental hint {fundamental_hint:.4g} Hz outside spectrum band"
        )
    global_max = float(s.amplitudes.max())
    if global_max <= 0:
        raise ExtractionError("spectrum is identically zero")

    peaks: list[HarmonicPeak] = []
    skipped: list[tuple[int, str]] = []
    fund_amp = None
    n_prev = 1
    f_prev = None
    for n in range(1, n_harmonics + 1):
        if n == 1:
            lo, hi = 0.8 * fundamental_hint, 1.2 * fundamental_hint
        else:
            gap = n - n_prev
            center = f_prev * (n / n_prev)
            lo, hi = center * _STEP_DOWN**gap, center * _STEP_UP**gap
        band = (f >= lo) & (f <= hi)
        if not band.any():
            if n == 1:
                raise ExtractionError(f"no fundamental peak near {fundamental_hint:.4g} Hz "
                                      "(no spectrum bin within +/-20 % of the hint)")
            skipped.append((n, "search window outside spectrum band"))
            continue
        idx = int(np.flatnonzero(band)[np.argmax(s.amplitudes[band])])
        amp_bin = float(s.amplitudes[idx])
        is_local_max = (idx == 0 or s.amplitudes[idx - 1] <= amp_bin) and (
            idx == s.amplitudes.size - 1 or s.amplitudes[idx + 1] <= amp_bin
        )
        noise_floor = _PEAK_FLOOR_RATIO * max(
            float(np.median(s.amplitudes[band])), 1e-300
        )
        floor = min_prominence * (fund_amp if fund_amp is not None else global_max)
        if not is_local_max or amp_bin < floor or amp_bin < noise_floor:
            if n == 1:
                raise ExtractionError(
                    f"no fundamental peak near {fundamental_hint:.4g} Hz "
                    f"(best candidate {amp_bin:.3g} vs floor "
                    f"{max(floor, noise_floor):.3g})"
                )
            skipped.append((n, f"below prominence ({amp_bin:.3g} < {max(floor, noise_floor):.3g})"))
            continue
        freq, amp = _refine_peak(s, idx)
        sigma_f = _width_3db(s, idx, amp)
        peaks.append(HarmonicPeak(harmonic=n, frequency=freq, amplitude=amp, sigma_f=sigma_f))
        n_prev, f_prev = n, freq
        if n == 1:
            fund_amp = amp
    return PeakPickResult(peaks=tuple(peaks), skipped=tuple(skipped))


def vph_points(peaks, wavelength: float) -> DispersionCurve:
    """Dispersion-curve fragment v = f * (wavelength / n) from harmonic peaks.

    ``peaks`` is a ``PeakPickResult`` or any iterable of ``HarmonicPeak``.
    """
    if not wavelength > 0:
        raise ValueError("wavelength must be > 0")
    rows = sorted(
        (p.frequency, p.frequency * wavelength / p.harmonic, p.sigma_f * wavelength / p.harmonic)
        for p in peaks
    )
    return DispersionCurve(
        frequencies=tuple(r[0] for r in rows),
        velocities=tuple(r[1] for r in rows),
        sigmas=tuple(r[2] for r in rows),
    )


# --- projection-ratio calibration ---------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Projection-ratio estimate from per-measurement ratios."""

    r: float
    sigma_r: float
    values: tuple[float, ...]

    @property
    def sigma_defined(self) -> bool:
        return not math.isnan(self.sigma_r)


def calibrate_projection_ratio(
    measurements, pixel_pitch: float, v_reference: float = 5080.0
) -> CalibrationResult:
    """Least-squares projection ratio from (period_pixels, fundamental Hz) pairs.

    Each measurement gives r_i = pitch * pixels * f / v_reference; the
    estimate is their mean and sigma_r the standard error of that mean
    (NaN for a single measurement).
    """
    if not v_reference > 0:
        raise ValueError("v_reference must be > 0")
    if not pixel_pitch > 0:
        raise ValueError("pixel_pitch must be > 0")
    rows = list(measurements)
    if not rows:
        raise ValueError("at least one measurement is required")
    values = tuple(
        pixel_pitch * float(npx) * float(freq) / v_reference for npx, freq in rows
    )
    r = sum(values) / len(values)
    if len(values) >= 2:
        var = sum((x - r) ** 2 for x in values) / (len(values) - 1)
        sigma = math.sqrt(var / len(values))
    else:
        sigma = float("nan")
    return CalibrationResult(r=r, sigma_r=sigma, values=values)


# --- waveform CSV exchange ------------------------------------------------------------

WAVEFORM_HEADER = "amplitude"


def waveform_csv_text(w: Waveform) -> str:
    meta = {"sample_rate_hz": w.sample_rate, "distance_m": w.distance}
    if w.seed is not None:
        meta["seed"] = w.seed
    if w.mask is not None:
        meta.update(mask_period_m=w.mask.period, mask_duty=w.mask.duty,
                    mask_n_periods=w.mask.n_periods)
    return _csv_text(WAVEFORM_HEADER, (w.samples.tolist(),), meta)


def write_waveform_csv(w: Waveform, path: str | Path) -> None:
    Path(path).write_text(waveform_csv_text(w), encoding="utf-8", newline="\n")


def read_waveform_csv(path: str | Path) -> Waveform:
    """Read a waveform CSV: one ``amplitude`` per row, sample i at i / sample_rate_hz."""
    _, (samples,), meta = _read_table(path, (WAVEFORM_HEADER,))
    if "sample_rate_hz" not in meta or "distance_m" not in meta:
        raise FormatError(
            f"{path}: missing '# sample_rate_hz=' or '# distance_m=' comment header"
        )
    try:
        mask = None
        if "mask_period_m" in meta:
            mask = MaskSpec(
                period=float(meta["mask_period_m"]),
                duty=float(meta.get("mask_duty", "0.5")),
                n_periods=int(meta.get("mask_n_periods", "2")),
            )
        return Waveform(
            samples=samples,
            sample_rate=float(meta["sample_rate_hz"]),
            distance=float(meta["distance_m"]),
            seed=int(meta["seed"]) if "seed" in meta else None,
            mask=mask,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
