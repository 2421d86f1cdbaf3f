import math

import numpy as np
import pytest

import sawkit as sk
from sawkit.cli import build_mask, build_stack, fixture_config_path, load_config, main
from sawkit.errors import ExtractionError, FormatError, SynthesisError
from sawkit.signal import waveform_csv_text

from conftest import make_flat_stack

CONFIGS = ["si_bare", "sio2_on_si", "stack_1A", "stack_1A_duty30", "stack_2", "stack_3"]


@pytest.fixture(scope="module")
def flat_si(geom):
    """Dispersionless stack at the silicon [110] velocity, 5080 m/s."""
    return make_flat_stack(geom)


@pytest.fixture(scope="module")
def mask24():
    return sk.MaskSpec(period=24e-6, duty=0.5, n_periods=400)


# --- specs -------------------------------------------------------------------


def test_mask_spec_invariants():
    for period in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="mask period must be finite and > 0"):
            sk.MaskSpec(period=period, duty=0.5, n_periods=100)
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


def test_synthesis_rejects_a_negative_seed(flat_si, mask24):
    # numpy's default_rng takes no negative seed, with noise or without it
    with pytest.raises(SynthesisError, match="seed must be >= 0, got -1"):
        sk.synthesize_slope_signal(mask24, flat_si, 5e-3, noise_rms=0.01, seed=-1)
    with pytest.raises(SynthesisError, match="seed must be >= 0, got -1"):
        sk.synthesize_slope_signal(mask24, flat_si, 5e-3, seed=-1)


@pytest.mark.parametrize("width", [-1.2e-9, 0.0])
def test_synthesis_rejects_non_positive_pulse_width(flat_si, mask24, width):
    with pytest.raises(SynthesisError, match="pulse_fwhm"):
        sk.synthesize_slope_signal(mask24, flat_si, 5e-3, pulse_fwhm=width)


def test_synthesis_explicit_harmonic_without_a_mode(silicon, geom, mask24):
    # a film faster than its substrate lifts the mode into the substrate's
    # ceiling as k grows: harmonic 1 has a mode, harmonic 2 none
    fast = sk.IsotropicMaterial(young_modulus=400e9, poisson_ratio=0.2, density=2000.0)
    stack = sk.LayerStack(layers=(sk.Layer(fast, 4e-6),), substrate=silicon, geometry=geom)
    lo, hi = sk.velocity_window(stack)
    k2 = 2 * math.pi * 2 / mask24.period
    with pytest.raises(SynthesisError) as err:
        sk.synthesize_slope_signal(mask24, stack, 5e-3, n_harmonics=2)
    assert str(err.value) == (f"no surface mode at harmonic 2 (k = {k2:.6g} rad/m) "
                              f"in window [{lo:.1f}, {hi:.1f}] m/s")
    # by default the harmonics stop before the first without a mode
    w = sk.synthesize_slope_signal(mask24, stack, 5e-3)
    one = sk.synthesize_slope_signal(mask24, stack, 5e-3, n_harmonics=1)
    assert np.array_equal(w.samples, one.samples)


def test_synthesis_fundamental_above_the_nyquist_margin(flat_si, mask24):
    # the fundamental sits at 5080 / 24e-6 = 211.7 MHz; 0.45 of 0.4 GHz is 180 MHz
    with pytest.raises(SynthesisError, match=r"^the fundamental at 2\.117e\+08 Hz lies above "
                                             r"0\.45 of sample_rate 4e\+08 Hz$"):
        sk.synthesize_slope_signal(mask24, flat_si, 5e-3, sample_rate=0.4e9)


def test_explicit_harmonic_count_ignores_the_nyquist_margin(flat_si, mask24):
    # at 1.3 GHz the default stops below 0.45 of the rate, before harmonic 3
    # at 635 MHz; an explicit count of 3 keeps it, as it lies below Nyquist
    default = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, sample_rate=1.3e9)
    two = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, sample_rate=1.3e9, n_harmonics=2)
    three = sk.synthesize_slope_signal(mask24, flat_si, 5e-3, sample_rate=1.3e9, n_harmonics=3)
    assert np.array_equal(default.samples, two.samples)
    found = []
    for w in (default, three):
        s = sk.spectrum(w, window="hann", zero_pad_factor=4)
        peaks = sk.pick_harmonic_peaks(s, fundamental_hint=5080.0 / 24e-6, n_harmonics=3)
        found.append([p.harmonic for p in peaks.peaks])
    assert found == [[1], [1, 3]]
    assert three.samples.size == default.samples.size


def _fixed_point_frequencies(stack, harmonics, period, f):
    """f = n v(f) / period by fixed-point iteration of fixed-f curve solves."""
    for _ in range(100):
        v = np.array(sk.dispersion_curve(stack, f).velocities)
        f, f_old = harmonics * v / period, f
        if np.abs(f / f_old - 1).max() < 1e-15:
            break
    return f


@pytest.mark.parametrize("name", CONFIGS)
def test_synth_harmonics_at_the_exact_fixed_point(tmp_path, monkeypatch, name):
    # every harmonic synth solves sits at the fixed point of f = n v(f) / d
    # that fixed-f solves give, to the root tolerance
    solved, find_modes = [], sk.signal._find_modes

    def spy(stack, k, hints, fixed_k=False):
        out = find_modes(stack, k, hints, fixed_k)
        solved.append((stack, k, out[0]))
        return out

    monkeypatch.setattr(sk.signal, "_find_modes", spy)
    cfg = fixture_config_path(name)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "w.csv")]) == 0
    (stack, k, v), = solved
    period = build_mask(load_config(cfg)).period
    n = np.arange(1, k.size + 1)
    assert np.array_equal(k, 2 * math.pi * n / period)
    kept = np.isfinite(v)
    assert kept[:2].all()
    f = n[kept] * v[kept] / period
    exact = _fixed_point_frequencies(stack, n[kept], period, f * (1 + 1e-3))
    assert np.abs(f / exact - 1).max() < 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", CONFIGS)
def test_synth_extract_lands_on_the_model(tmp_path, name, seed):
    # extraction from bursts at the exact harmonics reads the model within
    # what the noise leaves (<= 7e-6 measured)
    cfg = fixture_config_path(name)
    wave, measured = tmp_path / "w.csv", tmp_path / "m.csv"
    assert main(["synth", "--config", str(cfg), "--seed", str(seed), "--out", str(wave)]) == 0
    assert main(["extract", str(wave), "--config", str(cfg), "--out", str(measured)]) == 0
    got = sk.read_dispersion_csv(measured)
    model = sk.dispersion_curve(build_stack(load_config(cfg)), got.frequencies)
    err = np.abs(np.array(got.velocities) / model.velocities - 1)
    assert err.max() < 2e-5


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


@pytest.mark.parametrize("n_harmonics", [1, 3])
def test_fundamental_window_without_a_bin_raises(tmp_path, n_harmonics):
    # a hint of 0.3 bin widths has no bin within +/-20 %: harmonic 1 was
    # skipped, giving no peaks at n_harmonics=1 and a TypeError at 3
    wave = tmp_path / "w.csv"
    assert main(["synth", "--config", str(fixture_config_path("stack_1A")),
                 "--out", str(wave)]) == 0
    s = sk.spectrum(sk.read_waveform_csv(wave), window="hann", zero_pad_factor=4)
    with pytest.raises(ExtractionError, match=r"no fundamental peak near .* \(no spectrum bin"):
        sk.pick_harmonic_peaks(s, fundamental_hint=0.3 * s.bin_width, n_harmonics=n_harmonics)


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


def test_round_trip_on_dispersive_curve(stack_1a, curve_1a_wide):
    mask = sk.MaskSpec(period=48e-6, duty=0.5, n_periods=200)
    w = sk.synthesize_slope_signal(
        mask, stack_1a, distance=5e-3, noise_rms=0.01, seed=21, n_harmonics=3
    )
    s = sk.spectrum(w, window="hann", zero_pad_factor=4)
    model_f, model_v = curve_1a_wide.frequencies, curve_1a_wide.velocities
    hint = np.interp(100e6, model_f, model_v) / mask.period
    res = sk.pick_harmonic_peaks(s, fundamental_hint=hint, n_harmonics=3)
    got = sk.vph_points(res, mask.period)
    assert len(got) >= 2
    for f, v in zip(got.frequencies, got.velocities):
        assert abs(v - np.interp(f, model_f, model_v)) / v < 0.002


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
        "amplitude\n"
        "0.0\n"
        "-0.25\n"
        "0.30000000000000004\n"
    )


def test_waveform_csv_reads_an_old_mask_kind_line(tmp_path):
    # files written before the mask kind was dropped carry a '# mask_kind='
    # line; like any unknown '# key=' line it is ignored
    w = sk.Waveform(samples=np.array([0.5, -1.0]), sample_rate=2e9, distance=5e-3,
                    mask=sk.MaskSpec(period=24e-6, duty=0.3, n_periods=400))
    p = tmp_path / "old.csv"
    p.write_text(waveform_csv_text(w).replace("amplitude\n", "# mask_kind=slm\namplitude\n"),
                 encoding="utf-8")
    got = sk.read_waveform_csv(p)
    assert got.mask == w.mask and np.array_equal(got.samples, w.samples)
