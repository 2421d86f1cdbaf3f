import math

import numpy as np
import pytest

import sawkit as sk
from sawkit.cli import build_mask, fixture_config_path, load_config, main
from sawkit.errors import ExtractionError, FormatError, SynthesisError
from sawkit.signal import GLASS_MASK, waveform_csv_text


@pytest.fixture(scope="module")
def flat_si():
    """Dispersionless reference curve at the silicon [110] velocity."""
    return sk.DispersionCurve(frequencies=(1e6, 1.2e9), velocities=(5080.0, 5080.0))


@pytest.fixture(scope="module")
def mask24():
    return sk.MaskSpec(period=24e-6, duty=0.5, n_periods=400)


# --- specs -------------------------------------------------------------------


def test_mask_spec_invariants():
    with pytest.raises(ValueError):
        sk.MaskSpec(period=0.0, duty=0.5, n_periods=100)
    with pytest.raises(ValueError):
        sk.MaskSpec(period=24e-6, duty=1.0, n_periods=100)
    with pytest.raises(ValueError):
        sk.MaskSpec(period=24e-6, duty=0.5, n_periods=1)


# --- synthesis ----------------------------------------------------------------


def test_silicon_fundamental_period(flat_si, mask24):
    w = sk.synthesize_slope_signal(mask24, flat_si, distance=5e-3)
    s = sk.spectrum(w, window="hann", zero_pad_factor=4)
    peak = sk.pick_harmonic_peaks(s, fundamental_hint=210e6, n_harmonics=1).peaks[0]
    assert peak.frequency == pytest.approx(5080.0 / 24e-6, rel=1e-4)


def test_even_harmonics_absent_for_half_duty(flat_si, mask24):
    w = sk.synthesize_slope_signal(mask24, flat_si, distance=5e-3)
    s = sk.spectrum(w, window="hann", zero_pad_factor=4)
    res = sk.pick_harmonic_peaks(s, fundamental_hint=211.7e6, n_harmonics=2)
    assert [p.harmonic for p in res.peaks] == [1]
    assert res.skipped and res.skipped[0][0] == 2


def test_odd_duty_has_second_harmonic(flat_si):
    mask = sk.MaskSpec(period=24e-6, duty=0.3, n_periods=400)
    w = sk.synthesize_slope_signal(mask, flat_si, distance=5e-3)
    s = sk.spectrum(w, window="hann", zero_pad_factor=4)
    res = sk.pick_harmonic_peaks(s, fundamental_hint=211.7e6, n_harmonics=2)
    assert [p.harmonic for p in res.peaks] == [1, 2]


def test_bandwidth_below_one_percent_at_100_periods(flat_si):
    mask = sk.MaskSpec(period=24e-6, duty=0.5, n_periods=100)
    w = sk.synthesize_slope_signal(mask, flat_si, distance=5e-3)
    s = sk.spectrum(w, window="none", zero_pad_factor=8)
    p = sk.pick_harmonic_peaks(s, fundamental_hint=211.7e6, n_harmonics=1).peaks[0]
    assert 2 * p.sigma_f / p.frequency < 0.01


def test_bandwidth_scales_inversely_with_periods(flat_si):
    widths = {}
    for n in (100, 200):
        mask = sk.MaskSpec(period=24e-6, duty=0.5, n_periods=n)
        w = sk.synthesize_slope_signal(mask, flat_si, distance=5e-3)
        s = sk.spectrum(w, window="none", zero_pad_factor=8)
        widths[n] = sk.pick_harmonic_peaks(s, 211.7e6, 1).peaks[0].sigma_f
    ratio = widths[100] / widths[200]
    assert abs(ratio - 2.0) < 0.4


def test_noise_determinism(flat_si, mask24):
    a = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.02, seed=9)
    b = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.02, seed=9)
    assert np.array_equal(a.samples, b.samples)
    c = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.02, seed=10)
    assert not np.array_equal(a.samples, c.samples)


def test_noise_requires_seed(flat_si, mask24):
    with pytest.raises(SynthesisError):
        sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.01)


@pytest.mark.parametrize("width", [-1.2e-9, 0.0])
def test_synthesis_rejects_non_positive_pulse_width(flat_si, mask24, width):
    with pytest.raises(SynthesisError, match="pulse_fwhm"):
        sk.synthesize_slope_signal(mask24, flat_si, 5e-3, pulse_fwhm=width)


def test_synthesis_coverage_error(mask24):
    narrow = sk.DispersionCurve(frequencies=(100e6, 300e6), velocities=(5080.0, 5080.0))
    with pytest.raises(SynthesisError, match="does not cover"):
        sk.synthesize_slope_signal(mask24, narrow, 5e-3, n_harmonics=3)


def test_synthesis_nyquist_guard(flat_si, mask24):
    with pytest.raises(SynthesisError, match="anti-aliasing|does not cover"):
        sk.synthesize_slope_signal(
            mask24, flat_si, 5e-3, sample_rate=0.3e9, n_harmonics=1
        )


# --- spectrum ------------------------------------------------------------------


def test_spectrum_pure_sine_single_bin():
    fs = 1.0
    n = 256
    f0 = 16.0 / n
    t = np.arange(n)
    w = sk.Waveform(samples=np.sin(2 * np.pi * f0 * t), sample_rate=fs, distance=1.0)
    s = sk.spectrum(w)
    assert int(np.argmax(s.amplitudes)) == 16
    others = np.delete(s.amplitudes, 16)
    assert others.max() < 1e-9 * s.amplitudes[16]


def test_spectrum_dc_input():
    w = sk.Waveform(samples=np.ones(64), sample_rate=1.0, distance=1.0)
    s = sk.spectrum(w)
    assert np.argmax(s.amplitudes) == 0
    assert s.amplitudes[1:].max() < 1e-12 * s.amplitudes[0]


def test_spectrum_two_tone_against_direct_dft():
    # independent oracle: direct DFT summation on a 32-sample signal
    n = 32
    t = np.arange(n)
    x = 1.0 * np.cos(2 * np.pi * 4 * t / n) + 0.5 * np.cos(2 * np.pi * 9 * t / n)
    w = sk.Waveform(samples=x, sample_rate=1.0, distance=1.0)
    s = sk.spectrum(w)
    direct = np.empty(n // 2 + 1)
    for k in range(n // 2 + 1):
        acc = complex(0.0)
        for m in range(n):
            acc += x[m] * np.exp(-2j * np.pi * k * m / n)
        direct[k] = abs(acc)
    assert np.allclose(s.amplitudes, direct, rtol=1e-10, atol=1e-9)
    ratio = s.amplitudes[4] / s.amplitudes[9]
    assert abs(ratio - 2.0) < 0.02


def test_spectrum_parseval(flat_si, mask24):
    w = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.01, seed=3)
    s = sk.spectrum(w, window="none", zero_pad_factor=1)
    assert abs(s.energy() - w.energy()) / w.energy() < 1e-9


def _smooth_at_least(n):
    """The smallest 2^a 3^b 5^c >= n, by counting up."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def test_spectrum_bin_spacing(flat_si, mask24):
    # the padded length is the smallest 5-smooth one >= 4n: 4n = 27 592 =
    # 2^3 3449 here, padded to 27 648 = 2^10 3^3
    w = sk.synthesize_slope_signal(mask24, flat_si, 5e-3)
    s = sk.spectrum(w, window="hann", zero_pad_factor=4)
    assert s.nfft == _smooth_at_least(4 * len(w))
    assert s.bin_width == pytest.approx(w.sample_rate / s.nfft)


def test_spectrum_pads_to_the_smallest_5_smooth_length():
    rng = np.random.default_rng(4)
    for n in [16, 17, 31, 97, 100, 121, 127, 1000, 6894, 9629, 11228]:
        w = sk.Waveform(samples=rng.normal(size=n), sample_rate=1e9, distance=1.0)
        for factor in (1, 2, 3, 4, 7):
            s = sk.spectrum(w, window="none", zero_pad_factor=factor)
            assert s.nfft == _smooth_at_least(n * factor)
            assert s.amplitudes.size == s.nfft // 2 + 1
            assert abs(s.energy() - w.energy()) <= 1e-9 * w.energy()
    assert [sk.signal._fft_length(n) for n in range(1, 3000)] == [
        _smooth_at_least(n) for n in range(1, 3000)]


def test_spectrum_rejects_short_input():
    w = sk.Waveform(samples=np.zeros(8), sample_rate=1.0, distance=1.0)
    with pytest.raises(ValueError):
        sk.spectrum(w)


# --- peak picking -----------------------------------------------------------------


def test_single_tone_single_peak():
    n = 4096
    fs = 1e9
    f0 = 100e6
    t = np.arange(n) / fs
    w = sk.Waveform(samples=np.cos(2 * np.pi * f0 * t), sample_rate=fs, distance=1.0)
    s = sk.spectrum(w, window="hann", zero_pad_factor=4)
    res = sk.pick_harmonic_peaks(s, fundamental_hint=95e6, n_harmonics=1)
    assert len(res.peaks) == 1
    assert res.peaks[0].frequency == pytest.approx(f0, rel=1e-5)


def test_pure_noise_raises_extraction_error():
    rng = np.random.default_rng(0)
    w = sk.Waveform(samples=rng.normal(0, 1, 8192), sample_rate=2e9, distance=1.0)
    s = sk.spectrum(w, window="hann", zero_pad_factor=2)
    with pytest.raises(ExtractionError):
        sk.pick_harmonic_peaks(s, fundamental_hint=200e6, n_harmonics=1)


def test_hint_outside_band_raises():
    w = sk.Waveform(samples=np.ones(64), sample_rate=1.0, distance=1.0)
    s = sk.spectrum(w)
    with pytest.raises(ExtractionError):
        sk.pick_harmonic_peaks(s, fundamental_hint=10.0, n_harmonics=1)


# --- vph points ---------------------------------------------------------------------


def test_vph_points_arithmetic():
    peaks = [
        sk.HarmonicPeak(harmonic=1, frequency=211.67e6, amplitude=1.0, sigma_f=1e6),
        sk.HarmonicPeak(harmonic=2, frequency=423.34e6, amplitude=0.5, sigma_f=1e6),
    ]
    curve = sk.vph_points(peaks, wavelength=24e-6)
    assert curve.velocities[0] == pytest.approx(5080.08, rel=1e-6)
    assert curve.velocities[1] == pytest.approx(5080.08, rel=1e-6)
    assert curve.sigmas[0] == pytest.approx(24.0, rel=1e-6)
    assert curve.sigmas[1] == pytest.approx(12.0, rel=1e-6)


def test_vph_points_simple():
    peaks = [sk.HarmonicPeak(1, 100e6, 1.0, 1e6)]
    curve = sk.vph_points(peaks, wavelength=50e-6)
    assert curve.velocities[0] == pytest.approx(5000.0)
    # 1 % frequency sigma propagates to 1 % velocity sigma
    assert curve.sigmas[0] / curve.velocities[0] == pytest.approx(0.01)


# --- round trip -------------------------------------------------------------------


def test_round_trip_on_dispersive_curve(curve_1a_wide):
    mask = sk.MaskSpec(period=48e-6, duty=0.5, n_periods=200)
    w = sk.synthesize_slope_signal(
        mask, curve_1a_wide, distance=5e-3, noise_rms=0.01, seed=21, n_harmonics=3
    )
    s = sk.spectrum(w, window="hann", zero_pad_factor=4)
    hint = curve_1a_wide.interpolate(100e6) / mask.period
    res = sk.pick_harmonic_peaks(s, fundamental_hint=hint, n_harmonics=3)
    got = sk.vph_points(res, mask.period)
    assert len(got) >= 2
    for f, v in zip(got.frequencies, got.velocities):
        assert abs(v - curve_1a_wide.interpolate(f)) / v < 0.002


# --- calibration --------------------------------------------------------------------


def test_calibration_exact_when_noise_free():
    pitch, r_true, v = 32e-6, 9.1, 5080.0
    rows = [(npx, r_true * v / (pitch * npx)) for npx in range(10, 26, 2)]
    res = sk.calibrate_projection_ratio(rows, pixel_pitch=pitch, v_reference=v)
    assert abs(res.r - r_true) / r_true < 1e-12
    assert res.sigma_r == pytest.approx(0.0, abs=1e-10)


def test_calibration_scales_linearly_with_frequency():
    pitch, r_true, v = 32e-6, 9.1, 5080.0
    rows = [(npx, r_true * v / (pitch * npx)) for npx in range(10, 26, 2)]
    base = sk.calibrate_projection_ratio(rows, pixel_pitch=pitch, v_reference=v)
    shifted = sk.calibrate_projection_ratio(
        [(npx, 1.01 * f) for npx, f in rows], pixel_pitch=pitch, v_reference=v
    )
    assert shifted.r / base.r == pytest.approx(1.01, rel=1e-12)


def test_calibration_single_measurement_flag():
    res = sk.calibrate_projection_ratio(
        [(10, 1.4e8)], pixel_pitch=32e-6, v_reference=5080.0
    )
    assert not res.sigma_defined
    assert math.isnan(res.sigma_r)


def test_calibration_requires_rows():
    with pytest.raises(ValueError):
        sk.calibrate_projection_ratio([], pixel_pitch=32e-6)


# --- waveform CSV ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["si_bare", "sio2_on_si", "stack_1A", "stack_1A_duty30", "stack_2", "stack_3"]
)
def test_waveform_csv_round_trip(tmp_path, name):
    cfg = fixture_config_path(name)
    synth = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(cfg), "--seed", "5", "--out", str(synth)]) == 0
    w = sk.read_waveform_csv(synth)
    p = tmp_path / "w.csv"
    sk.write_waveform_csv(w, p)
    assert p.read_bytes() == synth.read_bytes()
    got = sk.read_waveform_csv(p)
    assert np.array_equal(got.samples, w.samples)
    assert got.sample_rate == w.sample_rate
    assert got.distance == w.distance
    assert got.seed == w.seed == 5
    assert got.mask == w.mask == build_mask(load_config(cfg))
    assert got.mask.kind == GLASS_MASK


def test_waveform_csv_requires_metadata(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("amplitude\n1.0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="missing '# sample_rate_hz=' or '# distance_m='"):
        sk.read_waveform_csv(p)


def test_waveform_csv_rejects_bad_amplitude(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text(
        "# sample_rate_hz=1e9\n# distance_m=0.005\namplitude\nxyz\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as err:
        sk.read_waveform_csv(p)
    assert err.value.line == 4


def test_waveform_csv_text_deterministic(flat_si, mask24):
    a = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.01, seed=7)
    b = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.01, seed=7)
    assert waveform_csv_text(a) == waveform_csv_text(b)


def test_waveform_csv_text_matches_row_by_row_text(flat_si, mask24):
    w = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.01, seed=7)
    rows = "".join("%r\n" % float(x) for x in w.samples)
    text = waveform_csv_text(w)
    assert text.endswith("\namplitude\n" + rows)
    assert text.count("\n") == len(w) + 1 + text.count("# ")


def test_waveform_csv_text_golden():
    w = sk.Waveform(
        samples=np.array([0.0, -0.25, 0.1 + 0.2]),
        sample_rate=2e9,
        distance=5e-3,
        seed=42,
        mask=sk.MaskSpec(period=24e-6, duty=0.3, n_periods=400),
    )
    assert waveform_csv_text(w) == (
        "# sample_rate_hz=2000000000.0\n"
        "# distance_m=0.005\n"
        "# seed=42\n"
        "# mask_period_m=2.4e-05\n"
        "# mask_duty=0.3\n"
        "# mask_n_periods=400\n"
        "# mask_kind=glass-mask\n"
        "amplitude\n"
        "0.0\n"
        "-0.25\n"
        "0.30000000000000004\n"
    )
