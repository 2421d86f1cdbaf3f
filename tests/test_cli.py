import configparser
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sawkit as sk
from sawkit.cli import (
    _KEYS,
    _read_calibration_csv,
    build_stack,
    fixture_config_path,
    load_config,
    main,
)
from sawkit.errors import ConfigError, FormatError


def run(args, capsys=None):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def si_cfg():
    return fixture_config_path("si_bare")


@pytest.fixture(scope="module")
def cfg_1a():
    return fixture_config_path("stack_1A")


# --- config loading --------------------------------------------------------------


def test_fixture_configs_load_and_build():
    from sawkit.cli import build_stack

    for name in ("si_bare", "stack_1A", "stack_1A_duty30", "stack_2", "stack_3", "sio2_on_si"):
        cfg = load_config(fixture_config_path(name))
        stack = build_stack(cfg)
        assert isinstance(stack, sk.LayerStack)


def test_config_rejects_unknown_section(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[wat]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="wat"):
        load_config(p)


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[stack]\nsubstrate = silicon\nshoe_size = 42\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="shoe_size"):
        load_config(p)


def test_readme_config_block_names_every_key():
    # the README's run-configuration block shows every key of every
    # section, and no other; a [fit] bounds line is named in 'free'
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Run configuration", 1)[1].split("```ini\n", 1)[1].split("```")[0]
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.read_string(block)
    shown = {}
    for name in parser.sections():
        keys = set(parser[name]) - set(parser[name].get("free", "").split())
        shown.setdefault(name.partition(":")[0], set()).update(keys)
    assert shown == {kind: set(keys) for kind, keys in _KEYS.items()}


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg")


def test_cmd_dispersion_relative_material_db(tmp_path, si_cfg):
    # [run] material_db is resolved against the config's directory, not the
    # working directory; the substrate exists only in that database
    db_text = (Path(sk.__file__).parent / "data" / "materials.db").read_text(encoding="utf-8")
    assert db_text.count("[silicon]") == 1
    (tmp_path / "db").mkdir()
    (tmp_path / "db" / "own.db").write_text(db_text.replace("[silicon]", "[own_silicon]"),
                                            encoding="utf-8")
    (tmp_path / "cfg").mkdir()
    cfg = tmp_path / "cfg" / "own.cfg"
    base = si_cfg.read_text(encoding="utf-8")
    assert base.count("seed = 12345") == base.count("substrate = silicon") == 1
    cfg.write_text(base.replace("seed = 12345", "seed = 12345\nmaterial_db = ../db/own.db")
                   .replace("substrate = silicon", "substrate = own_silicon"), encoding="utf-8")
    assert not Path("../db/own.db").exists()
    out, ref = tmp_path / "own.csv", tmp_path / "ref.csv"
    assert run(["dispersion", "--config", cfg, "--out", out]) == 0
    assert run(["dispersion", "--config", si_cfg, "--out", ref]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_cmd_dispersion_sige_poisson_ratio(tmp_path):
    # [layer:*] sige_poisson_ratio replaces the default film Poisson ratio
    base = fixture_config_path("stack_3").read_text(encoding="utf-8")
    line = "sige_c_ge = 0.416"
    assert base.count(line) == 1
    cfg = tmp_path / "nu.cfg"
    cfg.write_text(base.replace(line, line + "\nsige_poisson_ratio = 0.3"), encoding="utf-8")
    out = tmp_path / "nu.csv"
    assert run(["dispersion", "--config", cfg, "--out", out]) == 0
    curve = sk.read_dispersion_csv(out)
    default = build_stack(load_config(fixture_config_path("stack_3")))
    film = sk.sige_material(0.416, poisson_ratio=0.3)
    assert film.poisson_ratio != default.layers[0].material.poisson_ratio
    stack = sk.LayerStack(layers=(sk.Layer(film, default.layers[0].thickness),),
                          substrate=default.substrate, geometry=default.geometry)
    assert curve.velocities == sk.dispersion_curve(stack, curve.frequencies).velocities
    assert curve.velocities != sk.dispersion_curve(default, curve.frequencies).velocities


# --- dispersion command ------------------------------------------------------------


def test_cmd_dispersion_bare_silicon(tmp_path, si_cfg):
    out = tmp_path / "si.csv"
    rc = run(["dispersion", "--config", si_cfg, "--n-points", "10", "--out", out])
    assert rc == 0
    curve = sk.read_dispersion_csv(out)
    assert len(curve) == 10
    for v in curve.velocities:
        assert abs(v - 5080.0) / 5080.0 < 0.005


def test_cmd_dispersion_zero_points(tmp_path, si_cfg):
    out = tmp_path / "empty.csv"
    rc = run(["dispersion", "--config", si_cfg, "--n-points", "0", "--out", out])
    assert rc == 0
    assert out.read_text() == "frequency_hz,phase_velocity_m_per_s\n"


def test_cmd_dispersion_1a_decreasing(tmp_path, cfg_1a):
    out = tmp_path / "a.csv"
    rc = run(["dispersion", "--config", cfg_1a, "--n-points", "8", "--out", out])
    assert rc == 0
    v = sk.read_dispersion_csv(out).velocities
    assert all(b < a for a, b in zip(v, v[1:]))


def test_cmd_dispersion_no_mode_exit_3(tmp_path, capsys):
    p = tmp_path / "nomode.cfg"
    p.write_text(
        "[stack]\nsubstrate = SiO2_thermal\nlayers = hard\n"
        "[layer:hard]\nmaterial = silicon\nthickness_um = 50\n"
        "[dispersion]\nf_min_mhz = 400\nf_max_mhz = 500\nn_points = 2\n",
        encoding="utf-8",
    )
    assert run(["dispersion", "--config", p, "--out", tmp_path / "x.csv"]) == 3
    err = capsys.readouterr().err
    assert "400, 500 MHz" in err and "indices [0, 1] of 2" in err and " m/s" in err


def test_cmd_dispersion_bad_config_exit_2(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[stack]\nsubstrate = unobtainium\n", encoding="utf-8")
    assert run(["dispersion", "--config", p, "--n-points", "2",
                "--f-min-mhz", "50", "--f-max-mhz", "100"]) == 2


@pytest.mark.parametrize(
    "key, old, new, flags, where",
    [
        ("n_points", "10", "-3", [], "[dispersion] n_points"),
        ("n_points", "10", "10", ["--n-points", "-2"], "--n-points"),
        ("f_min_mhz", "50", "600", [], "[dispersion] f_min_mhz"),
        ("f_min_mhz", "50", "50", ["--f-min-mhz", "600"], "--f-min-mhz"),
        ("f_min_mhz", "50", "50", ["--f-min-mhz", "0"], "--f-min-mhz"),
        ("f_max_mhz", "500", "500", ["--f-max-mhz", "inf"], "--f-max-mhz"),
    ],
    ids=["n-points-key", "n-points-flag", "f-min-key", "f-min-flag", "f-min-zero-flag",
         "f-max-inf-flag"],
)
def test_cmd_dispersion_bad_settings_name_their_source(tmp_path, capsys, si_cfg, key, old, new,
                                                       flags, where):
    # a negative point count or a band with f_min >= f_max (or f_min <= 0)
    # exited 2 with a message that named neither the file nor the key, nor
    # the flag
    base = si_cfg.read_text(encoding="utf-8")
    line = f"{key} = {old}"
    assert base.count(line) == 1
    cfg = tmp_path / "band.cfg"
    cfg.write_text(base.replace(line, f"{key} = {new}"), encoding="utf-8")
    capsys.readouterr()
    assert run(["dispersion", "--config", cfg, *flags, "--out", tmp_path / "d.csv"]) == 2
    err = capsys.readouterr().err
    assert (where if flags else f"band.cfg: {where}") in err
    assert not (tmp_path / "d.csv").exists()


# --- synth / extract pipeline ---------------------------------------------------------


def test_synth_deterministic_and_extract(tmp_path, si_cfg):
    w1 = tmp_path / "w1.csv"
    w2 = tmp_path / "w2.csv"
    assert run(["synth", "--config", si_cfg, "--out", w1]) == 0
    assert run(["synth", "--config", si_cfg, "--out", w2]) == 0
    assert w1.read_bytes() == w2.read_bytes()

    m1 = tmp_path / "m1.csv"
    m2 = tmp_path / "m2.csv"
    assert run(["extract", w1, "--config", si_cfg, "--out", m1]) == 0
    assert run(["extract", w2, "--config", si_cfg, "--out", m2]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    curve = sk.read_dispersion_csv(m1)
    for v in curve.velocities:
        assert abs(v - 5080.0) / 5080.0 < 0.002


def test_synth_seed_changes_output(tmp_path, si_cfg):
    w1 = tmp_path / "a.csv"
    w2 = tmp_path / "b.csv"
    assert run(["synth", "--config", si_cfg, "--seed", "1", "--out", w1]) == 0
    assert run(["synth", "--config", si_cfg, "--seed", "2", "--out", w2]) == 0
    assert w1.read_bytes() != w2.read_bytes()


def test_synth_noise_without_seed_exit_2(tmp_path):
    p = tmp_path / "noseed.cfg"
    p.write_text(
        "[stack]\nsubstrate = silicon\nnormal = 0 0 1\npropagation = 1 1 0\n"
        "[mask]\nperiod_um = 24\nduty = 0.5\nn_periods = 400\n"
        "[synthesis]\nnoise_rms = 0.01\n",
        encoding="utf-8",
    )
    assert run(["synth", "--config", p, "--out", tmp_path / "w.csv"]) == 2


@pytest.mark.parametrize("where", ["flag", "config"])
def test_synth_negative_seed_exit_2(tmp_path, capsys, cfg_1a, where):
    # from the flag or from [run], a bad input's exit 2, not numpy's traceback
    args = ["synth", "--config", cfg_1a, "--out", tmp_path / "w.csv"]
    if where == "flag":
        args += ["--seed", "-1"]
    else:
        cfg = tmp_path / "seed.cfg"
        base = cfg_1a.read_text(encoding="utf-8")
        assert base.count("seed = 12345") == 1
        cfg.write_text(base.replace("seed = 12345", "seed = -1"), encoding="utf-8")
        args[2] = cfg
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    if where == "flag":
        assert "error: seed must be >= 0, got -1" in err
    else:
        assert f"error: {cfg}: [run] seed must be >= 0, got -1" in err
    assert not (tmp_path / "w.csv").exists()


def test_extract_pure_noise_exit_4(tmp_path, si_cfg):
    rng = np.random.default_rng(0)
    w = sk.Waveform(
        samples=rng.normal(0, 1, 4096),
        sample_rate=2e9,
        distance=5e-3,
        mask=sk.MaskSpec(24e-6, 0.5, 400),
    )
    p = tmp_path / "noise.csv"
    sk.write_waveform_csv(w, p)
    assert run(["extract", p, "--config", si_cfg, "--out", tmp_path / "m.csv"]) == 4


def test_extract_malformed_waveform_exit_2(tmp_path, si_cfg):
    p = tmp_path / "garbage.csv"
    p.write_text("not,a,waveform\n1,2,3\n", encoding="utf-8")
    assert run(["extract", p, "--config", si_cfg, "--out", tmp_path / "m.csv"]) == 2


@pytest.fixture(scope="module")
def si_wave_text(tmp_path_factory, si_cfg):
    p = tmp_path_factory.mktemp("wave") / "si.csv"
    assert run(["synth", "--config", si_cfg, "--out", p]) == 0
    return p.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "line, bad",
    [
        ("# mask_duty=0.5", "# mask_duty=1.5"),
        ("# seed=12345", "# seed=abc"),
        # the sample rate is the only clock; it and the distance must be finite
        ("# sample_rate_hz=2000000000.0", "# sample_rate_hz=inf"),
        ("# distance_m=0.005", "# distance_m=nan"),
        ("# mask_period_m=2.4e-05", "# mask_period_m=inf"),
    ],
)
def test_extract_bad_waveform_metadata_exit_2(
    tmp_path, capsys, si_cfg, si_wave_text, line, bad
):
    assert line in si_wave_text
    p = tmp_path / "bad_meta.csv"
    p.write_text(si_wave_text.replace(line, bad), encoding="utf-8")
    capsys.readouterr()
    assert run(["extract", p, "--config", si_cfg, "--out", tmp_path / "m.csv"]) == 2
    assert "bad_meta.csv" in capsys.readouterr().err


def test_extract_fundamental_window_without_a_bin_exit_4(tmp_path, capsys, si_cfg,
                                                        si_wave_text):
    # a 1e300 m mask puts the hint 1e-296 Hz, whose +/-20 % window holds no
    # bin: a missing fundamental, not a skipped harmonic and a TypeError
    line = "# mask_period_m=2.4e-05"
    assert line in si_wave_text
    p = tmp_path / "huge_period.csv"
    p.write_text(si_wave_text.replace(line, "# mask_period_m=1e300"), encoding="utf-8")
    capsys.readouterr()
    assert run(["extract", p, "--config", si_cfg, "--out", tmp_path / "m.csv"]) == 4
    assert "error: no fundamental peak near" in capsys.readouterr().err


def test_extract_old_two_column_waveform_exit_2(tmp_path, capsys, si_cfg, si_wave_text):
    # a waveform file with the dropped time column is rejected at its header
    lines = si_wave_text.splitlines()
    header = lines.index("amplitude")
    lines[header] = "time_s,amplitude"
    for i in range(header + 1, len(lines)):
        lines[i] = f"{(i - header - 1) / 2e9!r},{lines[i]}"
    p = tmp_path / "two_column.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["extract", p, "--config", si_cfg, "--out", tmp_path / "m.csv"]) == 2
    err = capsys.readouterr().err
    assert "two_column.csv" in err
    assert f"line {header + 1}: bad header 'time_s,amplitude', expected 'amplitude'" in err
    # the synthesized file itself still reads
    good = tmp_path / "good.csv"
    good.write_text(si_wave_text, encoding="utf-8")
    assert len(sk.read_waveform_csv(good)) == len(lines) - header - 1


def test_extract_zero_harmonics_exit_2(tmp_path, capsys, si_cfg, si_wave_text):
    line = "v_hint_m_s = 5080\nn_harmonics = 2"
    base = si_cfg.read_text(encoding="utf-8")
    assert line in base
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(base.replace(line, "v_hint_m_s = 5080\nn_harmonics = 0"), encoding="utf-8")
    wave = tmp_path / "w.csv"
    wave.write_text(si_wave_text, encoding="utf-8")
    capsys.readouterr()
    assert run(["extract", wave, "--config", cfg, "--out", tmp_path / "m.csv"]) == 2
    err = capsys.readouterr().err
    assert "zero.cfg" in err
    assert "[extraction] n_harmonics" in err


@pytest.mark.parametrize(
    "line, bad",
    [("zero_pad_factor = 4", "zero_pad_factor = 0"), ("window = hann", "window = bogus")],
)
def test_extract_bad_spectrum_settings_blame_config(
    tmp_path, capsys, si_cfg, si_wave_text, line, bad
):
    base = si_cfg.read_text(encoding="utf-8")
    assert line in base
    cfg = tmp_path / "bad_spectrum.cfg"
    cfg.write_text(base.replace(line, bad), encoding="utf-8")
    wave = tmp_path / "w.csv"
    wave.write_text(si_wave_text, encoding="utf-8")
    capsys.readouterr()
    assert run(["extract", wave, "--config", cfg, "--out", tmp_path / "m.csv"]) == 2
    err = capsys.readouterr().err
    assert "bad_spectrum.cfg" in err
    assert f"[extraction] {line.split()[0]}" in err
    assert "w.csv" not in err


@pytest.mark.parametrize("rate", ["0", "-1", "0.00001"])
def test_synth_bad_sample_rate_exit_2(tmp_path, capsys, si_cfg, rate):
    line = "sample_rate_ghz = 2.0"
    base = si_cfg.read_text(encoding="utf-8")
    assert line in base
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(base.replace(line, f"sample_rate_ghz = {rate}"), encoding="utf-8")
    capsys.readouterr()
    assert run(["synth", "--config", cfg, "--out", tmp_path / "w.csv"]) == 2
    err = capsys.readouterr().err
    assert "rate.cfg" in err
    assert "[synthesis] sample_rate_ghz" in err


@pytest.mark.parametrize("config, rate, fault", [
    # the default harmonics: the fundamental's 194.2 MHz lies above 0.45 of 0.3 GHz
    pytest.param("stack_1A", "0.3", "the fundamental at 1.942e+08 Hz lies above 0.45 of "
                 "sample_rate 3e+08 Hz", id="fundamental"),
    # two harmonics asked for: the second's 423 MHz lies above half of 0.6 GHz
    pytest.param("si_bare", "0.6", "violates anti-aliasing for highest harmonic",
                 id="explicit-harmonics"),
])
def test_synth_rate_below_the_harmonics_names_the_key(tmp_path, capsys, config, rate, fault):
    line = "sample_rate_ghz = 2.0"
    base = fixture_config_path(config).read_text(encoding="utf-8")
    assert line in base
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(base.replace(line, f"sample_rate_ghz = {rate}"), encoding="utf-8")
    capsys.readouterr()
    assert run(["synth", "--config", cfg, "--out", tmp_path / "w.csv"]) == 2
    err = capsys.readouterr().err
    assert f"slow.cfg: [synthesis] sample_rate_ghz = {rate}: " in err
    assert fault in err


@pytest.mark.parametrize(
    "key, old, new",
    [
        pytest.param("pulse_fwhm_ns", "1.2", "-1.2", id="-1.2"),
        pytest.param("pulse_fwhm_ns", "1.2", "0", id="0"),
        pytest.param("distance_mm", "5", "-5", id="distance_mm"),
        pytest.param("noise_rms", "0.01", "-1", id="noise_rms"),
        pytest.param("n_harmonics", "2", "0", id="n_harmonics"),
    ],
)
def test_synth_non_positive_pulse_width_exit_2(tmp_path, capsys, si_cfg, key, old, new):
    # only the square of the width enters the pulse spectrum, so -1.2 gave
    # 1.2's waveform and exit 0; the other [synthesis] faults exited 2 with
    # a message that named neither the file nor the key
    base = si_cfg.read_text(encoding="utf-8")
    head, section, body = base.partition("[synthesis]")
    line = f"{key} = {old}"
    assert body.split("[", 1)[0].count(line) == 1
    cfg = tmp_path / "pulse.cfg"
    cfg.write_text(head + section + body.replace(line, f"{key} = {new}", 1), encoding="utf-8")
    capsys.readouterr()
    assert run(["synth", "--config", cfg, "--out", tmp_path / "w.csv"]) == 2
    err = capsys.readouterr().err
    assert "pulse.cfg" in err and f"[synthesis] {key}" in err
    assert not (tmp_path / "w.csv").exists()


# --- calibrate -----------------------------------------------------------------------


def test_cmd_calibrate_round_trip(tmp_path):
    pitch, r_true, v = 32e-6, 9.1, 5080.0
    rng = np.random.default_rng(12)
    lines = ["period_pixels,frequency_hz"]
    for npx in range(10, 30, 2):
        f = r_true * v / (pitch * npx) * (1 + rng.normal(0, 0.003))
        lines.append(f"{npx},{f!r}")
    p = tmp_path / "cal.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "cal.txt"
    rc = run(["calibrate", p, "--pixel-pitch-um", "32", "--v-reference", "5080",
              "--out", out])
    assert rc == 0
    text = out.read_text()
    r_line = [ln for ln in text.splitlines() if ln.strip().startswith("r =")][0]
    r = float(r_line.split("=")[1])
    assert abs(r - r_true) < 0.05


def test_cmd_calibrate_single_row_flag(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("period_pixels,frequency_hz\n10,144537500.0\n", encoding="utf-8")
    out = tmp_path / "cal.txt"
    assert run(["calibrate", p, "--out", out]) == 0
    assert "undefined" in out.read_text()


def test_cmd_calibrate_empty_exit_2(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    assert run(["calibrate", p]) == 2


def _calibration_cfg(tmp_path, si_cfg, pitch, v_ref):
    base = si_cfg.read_text(encoding="utf-8")
    lines = ("pixel_pitch_um = 32", "v_reference_m_s = 5080")
    assert all(base.count(line) == 1 for line in lines)
    cfg = tmp_path / "cal.cfg"
    cfg.write_text(base.replace(lines[0], f"pixel_pitch_um = {pitch}")
                   .replace(lines[1], f"v_reference_m_s = {v_ref}"), encoding="utf-8")
    return cfg


def test_cmd_calibrate_reads_config(tmp_path, si_cfg):
    # [calibration] replaces the defaults of 32 um and 5080 m/s
    meas = tmp_path / "one.csv"
    f = 9.1 * 4000.0 / (16e-6 * 10)
    meas.write_text(f"period_pixels,frequency_hz\n10,{f!r}\n", encoding="utf-8")
    out = tmp_path / "cal.txt"
    cfg = _calibration_cfg(tmp_path, si_cfg, 16, 4000)
    assert run(["calibrate", meas, "--config", cfg, "--out", out]) == 0
    text = out.read_text()
    assert "pixel pitch: 16.0 um" in text and "reference velocity: 4000.0 m/s" in text
    r_line = [ln for ln in text.splitlines() if ln.strip().startswith("r =")][0]
    assert float(r_line.split("=")[1]) == pytest.approx(9.1, rel=1e-12)


@pytest.mark.parametrize(
    "flags, values, where",
    [
        (["--pixel-pitch-um", "-1"], (32, 5080), "--pixel-pitch-um"),
        (["--v-reference", "0"], (32, 5080), "--v-reference"),
        ([], (-1, 5080), "[calibration] pixel_pitch_um"),
        ([], (32, 0), "[calibration] v_reference_m_s"),
    ],
    ids=["pitch-flag", "v-reference-flag", "pitch-key", "v-reference-key"],
)
def test_cmd_calibrate_non_positive_exit_2(tmp_path, capsys, si_cfg, flags, values, where):
    meas = tmp_path / "one.csv"
    meas.write_text("period_pixels,frequency_hz\n10,144537500.0\n", encoding="utf-8")
    cfg = _calibration_cfg(tmp_path, si_cfg, *values)
    capsys.readouterr()
    assert run(["calibrate", meas, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert where in err and "must be finite and > 0" in err
    assert ("cal.cfg" in err) == (not flags)


# --- input faults ---------------------------------------------------------------------

_SIGMA_HEADER = "frequency_hz,phase_velocity_m_per_s,sigma_m_per_s\n"


@pytest.mark.parametrize(
    "command, content, bad",
    [
        # the blank line must not shift the reported line number
        ("calibrate", "period_pixels,frequency_hz\n10,144537500.0\n\n12,abc\n", "12,abc"),
        ("calibrate", "period_pixels,frequency_hz\n10,inf\n12,nan\n", "10,inf"),
        ("calibrate", "period_pixels,frequency_hz\n10,144537500.0\n-12,1e8\n", "-12,1e8"),
        # (data row, replacement) in a synthesized si_bare waveform
        ("extract", (3, "{a},{a}"), None),
        ("extract", (3, "nan"), None),
        ("fit", _SIGMA_HEADER + "1e8,4700.0,4.7\n2e8,nan,4.6\n3e8,4500.0,4.5\n", "2e8,nan"),
        ("plot", _SIGMA_HEADER + "1e8,4700.0,4.7\n2e8,inf,4.6\n", "2e8,inf"),
        ("fit", _SIGMA_HEADER + "1e8,4700.0,4.7\n2e8,4600.0,0\n3e8,4500.0,4.5\n",
         "2e8,4600.0,0"),
    ],
    ids=["calibrate-blank-line", "calibrate-non-finite", "calibrate-negative",
         "extract-two-numbers", "extract-nan-amplitude", "fit-nan-velocity", "plot-inf",
         "fit-zero-sigma"],
)
def test_input_fault_exit_2_names_file_and_line(
    tmp_path, capsys, si_cfg, cfg_1a, si_wave_text, command, content, bad
):
    if isinstance(content, tuple):
        row, template = content
        lines = si_wave_text.splitlines()
        i = lines.index("amplitude") + 1 + row
        lines[i] = bad = template.format(a=lines[i])
        content = "\n".join(lines) + "\n"
    line = content[: content.index(bad)].count("\n") + 1
    p = tmp_path / "faulty.csv"
    p.write_text(content, encoding="utf-8")
    config = {"extract": si_cfg, "fit": cfg_1a}
    args = [command, p] + (["--config", config[command]] if command in config else [])
    capsys.readouterr()
    assert run([*args, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "faulty.csv" in err
    assert f"line {line}:" in err


@pytest.mark.parametrize(
    "reader, text",
    [
        (sk.read_dispersion_csv, "frequency_hz,phase_velocity_m_per_s\n1e8,4700.0\n\n2e8,x\n"),
        (sk.read_waveform_csv,
         "# sample_rate_hz=2e9\n# distance_m=0.005\namplitude\n0.1\n\nx\n"),
        (_read_calibration_csv, "period_pixels,frequency_hz\n10,1e8\n\n12,x\n"),
    ],
)
def test_row_fault_after_blank_line_carries_file_line(tmp_path, reader, text):
    p = tmp_path / "rows.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        reader(p)
    assert err.value.line == text.count("\n")  # the last line holds the fault
    assert "rows.csv" in str(err.value)


# --- fit ------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def measured_1a_csv(tmp_path_factory, silicon, oxide, geom):
    from conftest import make_stack_1a

    freqs = np.linspace(50e6, 500e6, 16)
    model = sk.dispersion_curve(make_stack_1a(silicon, oxide, geom), freqs)
    rng = np.random.default_rng(4)
    v = np.array(model.velocities) * (1 + rng.normal(0, 0.001, 16))
    meas = sk.DispersionCurve(
        tuple(freqs), tuple(v), sigmas=tuple(0.001 * np.array(model.velocities))
    )
    p = tmp_path_factory.mktemp("fit") / "meas.csv"
    sk.write_dispersion_csv(meas, p)
    return p


def test_cmd_fit_recovers_1a(tmp_path, cfg_1a, measured_1a_csv):
    out = tmp_path / "fit.txt"
    rc = run(["fit", measured_1a_csv, "--config", cfg_1a, "--out", out])
    assert rc == 0
    text = out.read_text()
    assert "c_ge" in text
    assert "degrees of freedom: 14" in text
    est = (tmp_path / "fit.estimates.csv").read_text().splitlines()
    row = dict(line.split(",", 2)[:2] for line in est[1:])
    assert abs(float(row["c_ge"]) - 0.179) < 0.01
    assert abs(float(row["layer0.thickness"]) - 1.02e-6) < 30e-9


def test_pipeline_parses_the_builtin_db_once(tmp_path, monkeypatch, cfg_1a):
    from sawkit import materials

    parses = []
    parse = materials.parse_material_db
    monkeypatch.setattr(materials, "parse_material_db",
                        lambda text: parses.append(text) or parse(text))
    materials._builtin_db.cache_clear()
    wave, measured = tmp_path / "w.csv", tmp_path / "m.csv"
    for args in (["dispersion", "--config", cfg_1a, "--out", tmp_path / "d.csv"],
                 ["synth", "--config", cfg_1a, "--seed", 1, "--out", wave],
                 ["extract", wave, "--config", cfg_1a, "--out", measured],
                 ["fit", measured, "--config", cfg_1a, "--out", tmp_path / "fit.txt"]):
        assert run(args) == 0
    assert len(parses) == 1


def test_cmd_fit_sample3_warns_but_succeeds(tmp_path, capsys, silicon, geom):
    from conftest import make_stack_3

    freqs = np.linspace(50e6, 500e6, 16)
    model = sk.dispersion_curve(make_stack_3(silicon, geom), freqs)
    meas = tmp_path / "m3.csv"
    sk.write_dispersion_csv(model, meas)
    rc = run(["fit", meas, "--config", fixture_config_path("stack_3"),
              "--out", tmp_path / "fit3.txt"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "not well determined" in captured.err
    assert "layer0.thickness" in captured.err


def test_cmd_fit_echoes_the_reports_warnings_on_stderr(tmp_path, capsys, monkeypatch,
                                                      cfg_1a, measured_1a_csv):
    # every warning line of the fit report reaches stderr, the lower-mode
    # certificate's too, not only the weakly-determined one
    import dataclasses

    import sawkit.cli as cli

    fit = cli.fit_parameters
    monkeypatch.setattr(cli, "fit_parameters",
                        lambda problem: dataclasses.replace(fit(problem), lower_modes=(0,)))
    assert run(["fit", measured_1a_csv, "--config", cfg_1a, "--out", tmp_path / "fit.txt"]) == 0
    err = capsys.readouterr().err
    assert "lower mode" in err
    warnings = [line for line in (tmp_path / "fit.txt").read_text().splitlines()
                if line.startswith("warning:")]
    assert warnings and all(line in err.splitlines() for line in warnings)


def test_cmd_fit_jacobian_not_finite_exit_3(tmp_path, capsys, monkeypatch, cfg_1a,
                                           measured_1a_csv):
    # an indicator NaN at point 3 of each Jacobian's batch ends the fit with
    # the forward model's exit 3 and the point named, not a traceback
    import sawkit.inversion as inv

    indicator = inv._indicator

    def nan_in_jacobian_batch(prep, freqs, v):
        q = indicator(prep, freqs, v)
        if len(v) > 2 * 16:  # a residual evaluation's batch holds 2 pairs per point
            q[3] = np.nan
        return q

    monkeypatch.setattr(inv, "_indicator", nan_in_jacobian_batch)
    capsys.readouterr()
    assert run(["fit", measured_1a_csv, "--config", cfg_1a, "--out", tmp_path / "fit.txt"]) == 3
    err = capsys.readouterr().err
    assert "error: fit Jacobian not finite at 140 MHz (point indices [3])" in err
    assert "Traceback" not in err and not (tmp_path / "fit.txt").exists()


def test_fit_bounds_line_transform(tmp_path, capsys, cfg_1a, measured_1a_csv):
    # a [fit] bounds line is exactly 'initial lower upper': a fourth token,
    # 'log' included, exits 2 and names the key
    base = cfg_1a.read_text(encoding="utf-8")
    line = "layer0.thickness_um = 0.9 0.3 3.0"
    assert base.count(line) == 1
    for token in ("log", "bogus"):
        cfg = tmp_path / f"fit_{token}.cfg"
        cfg.write_text(base.replace(line, f"{line} {token}"), encoding="utf-8")
        capsys.readouterr()
        assert run(["fit", measured_1a_csv, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: [fit] layer0.thickness_um must be 'initial lower upper'" in err


@pytest.mark.parametrize(
    "command, section, line, bad",
    [
        ("dispersion", "[dispersion] n_points", "n_points = 16", "inf"),
        ("dispersion", "[dispersion] n_points", "n_points = 16", "nan"),
        ("synth", "[synthesis] noise_rms", "noise_rms = 0.01", "nan"),
        ("dispersion", "[layer:film] thickness_um", "thickness_um = 1.02", "inf"),
        ("fit", "[fit] layer0.thickness_um", "layer0.thickness_um = 0.9 0.3 3.0", "0.9 0.3 -inf"),
        ("fit", "[fit] c_ge", "c_ge = 0.25 0.0 1.0", "0.25 0.0 inf"),
        ("dispersion", "[layer:film] sige_c_ge", "sige_c_ge = 0.179", "nan"),
        ("dispersion", "[stack] normal", "normal = 0 0 1", "0 0 inf"),
    ],
)
def test_non_finite_config_number_exits_2(
    tmp_path, capsys, cfg_1a, measured_1a_csv, command, section, line, bad
):
    # NaN or inf is a config fault naming the file, section and key, not a
    # traceback, a noise-free waveform or a "no surface mode" exit 3
    base = cfg_1a.read_text(encoding="utf-8")
    assert base.count(line) == 1
    p = tmp_path / "nonfinite.cfg"
    p.write_text(base.replace(line, f"{line.split(' = ')[0]} = {bad}"), encoding="utf-8")
    args = [command, measured_1a_csv] if command == "fit" else [command]
    capsys.readouterr()
    assert run([*args, "--config", p, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "nonfinite.cfg" in err and section in err and "not a finite number" in err


@pytest.mark.parametrize(
    "config, command, section, line",
    [
        ("stack_1A", "dispersion", "[layer:film] thickness_um", "thickness_um = 1.02"),
        ("si_bare", "extract", "[extraction] v_hint_m_s", "v_hint_m_s = 5080"),
    ],
)
def test_negative_config_number_names_its_key(
    tmp_path, capsys, si_wave_text, config, command, section, line
):
    # a negative thickness exited 2 with a message naming neither the file
    # nor the key; a negative velocity hint exited 4, its fundamental
    # outside the spectrum
    base = fixture_config_path(config).read_text(encoding="utf-8")
    assert base.count(line) == 1
    p = tmp_path / "negative.cfg"
    p.write_text(base.replace(line, f"{line.split(' = ')[0]} = -1"), encoding="utf-8")
    wave = tmp_path / "w.csv"
    wave.write_text(si_wave_text, encoding="utf-8")
    args = [command, wave] if command == "extract" else [command]
    capsys.readouterr()
    assert run([*args, "--config", p, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "negative.cfg" in err and f"{section} must be finite and > 0" in err
    assert not (tmp_path / "out").exists()


def test_cmd_fit_warns_on_zero_degrees_of_freedom(tmp_path, capsys, cfg_1a):
    # the bundled stack-1A chain extracts 2 points for its 2 free parameters:
    # at duty 0.5 harmonic 2 is below prominence, and extract says so
    wave, measured, out = tmp_path / "w.csv", tmp_path / "m.csv", tmp_path / "fit.txt"
    assert run(["synth", "--config", cfg_1a, "--seed", 3, "--out", wave]) == 0
    capsys.readouterr()
    assert run(["extract", wave, "--config", cfg_1a, "--out", measured]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"warning: {wave}: harmonic 2 skipped: below prominence (")
    assert err.count("\n") == 1
    assert len(sk.read_dispersion_csv(measured)) == 2
    capsys.readouterr()
    assert run(["fit", measured, "--config", cfg_1a, "--out", out]) == 0
    assert "0 degrees of freedom" in capsys.readouterr().err
    assert "degrees of freedom: 0" in out.read_text()


def test_well_posed_example_chain(tmp_path, capsys):
    # duty 0.3 keeps harmonic 2, so the chain fits 3 points with 2 parameters
    cfg = fixture_config_path("stack_1A_duty30")
    wave, measured, out = tmp_path / "w.csv", tmp_path / "m.csv", tmp_path / "fit.txt"
    assert run(["synth", "--config", cfg, "--seed", 3, "--out", wave]) == 0
    capsys.readouterr()
    assert run(["extract", wave, "--config", cfg, "--out", measured]) == 0
    assert "warning:" not in capsys.readouterr().err
    assert run(["fit", measured, "--config", cfg, "--out", out]) == 0
    assert "degrees of freedom" not in capsys.readouterr().err
    assert "degrees of freedom: 1" in out.read_text()
    est = (tmp_path / "fit.estimates.csv").read_text().splitlines()
    rows = {ln.split(",")[0]: ln.split(",") for ln in est[1:]}
    for name, truth in (("c_ge", 0.179), ("layer0.thickness", 1.02e-6)):
        value, sigma = float(rows[name][1]), float(rows[name][2])
        assert abs(value - truth) <= 2 * sigma


@pytest.mark.parametrize(
    "section, key",
    [
        ("synthesis", "curve_f_min_mhz"),
        ("synthesis", "curve_f_max_mhz"),
        ("synthesis", "curve_points"),
        ("fit", "sensitivity_floor"),
        ("fit", "condition_limit"),
    ],
)
def test_removed_config_keys_rejected(
    tmp_path, capsys, cfg_1a, measured_1a_csv, section, key
):
    base = cfg_1a.read_text(encoding="utf-8")
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(base.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"),
                   encoding="utf-8")
    command = ["fit", measured_1a_csv] if section == "fit" else ["synth"]
    capsys.readouterr()
    assert run([*command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err
    assert key in err


def test_cmd_fit_rejects_a_layer_c_ge_naming_fit_exit_2(tmp_path, capsys, cfg_1a,
                                                        measured_1a_csv):
    # c_ge binds through the coupling, so only the bare name is a parameter
    text = cfg_1a.read_text(encoding="utf-8")
    text = text.replace("free = c_ge layer0.thickness_um",
                        "free = c_ge layer0.thickness_um layer0.c_ge\n"
                        "layer0.c_ge = 0.3 0.0 1.0")
    assert "layer0.c_ge = 0.3" in text
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(["fit", measured_1a_csv, "--config", cfg]) == 2
    assert f"{cfg}: [fit] unknown parameter 'layer0.c_ge'" in capsys.readouterr().err


_FIT_1A = ("free = c_ge layer0.thickness_um", "layer0.thickness_um = 0.9 0.3 3.0")


@pytest.mark.parametrize(
    "edits, fault",
    [
        ([*zip(_FIT_1A, ("free = c_ge layer7.thickness_um", "layer7.thickness_um = 0.9 0.3 3.0"))],
         "[fit] layer7.thickness_um: layer index out of range"),
        ([("material = SiO2_thermal", "material = silicon"),
          *zip(_FIT_1A, ("free = c_ge layer1.young_modulus_gpa",
                         "layer1.young_modulus_gpa = 150 50 400"))],
         "[fit] layer1.young_modulus_gpa: material fields are fittable on isotropic "
         "layers only"),
        ([("material = SiO2_thermal", "material = silicon"),
          ("couple_layer = 0", "couple_layer = 1")],
         "[fit] c_ge: coupled layer 1 is not isotropic"),
        ([*zip(_FIT_1A, ("free = c_ge layer0.thickness_um layer0.young_modulus_gpa",
                         "layer0.thickness_um = 0.9 0.3 3.0\n"
                         "layer0.young_modulus_gpa = 150 50 400"))],
         "[fit] layer0.young_modulus_gpa: c_ge sets it too, through the coupling"),
        ([("c_ge = 0.25 0.0 1.0", "c_ge = 0.0 -0.5 1.5")],
         "[fit] c_ge: germanium fraction must be in [0, 1], got -0.5"),
        ([("layer0.thickness_um = 0.9 0.3 3.0", "layer0.thickness_um = 0.9 0.0 3.0")],
         "[fit] layer0.thickness_um: layer thickness must be finite and > 0, got 0.0"),
    ],
    ids=["layer-index", "cubic-layer", "cubic-coupled-layer", "c_ge-and-its-modulus",
         "c_ge-bound", "thickness-bound"],
)
def test_cmd_fit_problem_faults_name_their_fit_key_exit_2(
    tmp_path, capsys, cfg_1a, measured_1a_csv, edits, fault
):
    # a fault the fit problem finds in one parameter names the [fit] key as
    # the config writes it; it named the library's 'layer7.thickness' alone
    text = cfg_1a.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    cfg = tmp_path / "f.cfg"
    cfg.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(["fit", measured_1a_csv, "--config", cfg]) == 2
    assert f"error: {cfg}: {fault}\n" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["stack_2", "stack_3"])
def test_bundled_chain_fits_take_one_curve_solve_per_iteration(tmp_path, monkeypatch, name):
    # Work guard that does not depend on the machine: the synth -> extract
    # -> fit chain of a bundled config at synth seed 3 fits its 2 points in
    # 4 curve solves; a damped step whose damping alternated up and down
    # between rejected and accepted trials took 9 (stack 2) and 30 (stack 3).
    # The start solve, hinted one Newton step of the start model's indicator
    # from the measured points, finds the measured hints' roots with no scan
    # (each chain scanned one point before), so the fit's one mode count is
    # its certificate.  Stack 3's two points barely constrain c_ge: its
    # sigma is about 1 on the parameter-scaled Jacobian (2.9e-14 when the
    # covariance was taken in the parameters' own units).
    import sawkit.dispersion as dsp
    import sawkit.inversion as inv

    cfg = fixture_config_path(name)
    wave, measured, report = tmp_path / "w.csv", tmp_path / "m.csv", tmp_path / "fit.txt"
    assert run(["synth", "--config", cfg, "--seed", 3, "--out", wave]) == 0
    assert run(["extract", wave, "--config", cfg, "--out", measured]) == 0
    solves, mode_counts = [], []
    curve_roots, mode_count = inv._curve_roots, dsp._mode_count

    def counting(*args):
        solves.append((args, curve_roots(*args)))
        return solves[-1][1]

    def counting_modes(*args):
        mode_counts.append(len(solves))
        return mode_count(*args)

    monkeypatch.setattr(inv, "_curve_roots", counting)
    monkeypatch.setattr(dsp, "_mode_count", counting_modes)
    assert run(["fit", measured, "--config", cfg, "--out", report]) == 0
    text = report.read_text(encoding="utf-8")
    assert "status: converged (promised cost drop <= 1e-06)" in text
    if name == "stack_3":
        assert float(re.search(r"c_ge = \S+ \+- (\S+)", text).group(1)) >= 0.1
    assert len(solves) <= 4
    (stack, freqs, _), (roots, cold) = solves[0]
    assert cold.size == 0 and mode_counts == [len(solves)]
    reference, _ = curve_roots(stack, freqs, sk.read_dispersion_csv(measured).velocities)
    np.testing.assert_allclose(roots, reference, rtol=1e-12, atol=0)


def test_fit_report_flags_no_lower_mode_on_bundled_configs(tmp_path, capsys):
    # each bundled fit config against its own stack's curve: the model
    # follows the lowest mode at every point, so the certificate is clean
    from sawkit.cli import _build_fit_problem

    for name in ("stack_1A", "stack_1A_duty30", "stack_2", "stack_3"):
        cfg = load_config(fixture_config_path(name))
        curve = sk.dispersion_curve(build_stack(cfg), np.linspace(50e6, 900e6, 12))
        measured = sk.DispersionCurve(curve.frequencies, curve.velocities,
                                      sigmas=tuple(0.001 * v for v in curve.velocities))
        problem = _build_fit_problem(cfg, measured)
        result = sk.fit_parameters(problem)
        assert result.lower_modes == (), name
        assert "lower mode" not in sk.format_fit_report(problem, result)


def test_main_builds_its_parser_once(tmp_path, si_cfg):
    from sawkit.cli import _build_parser

    parser = _build_parser()
    for n in (3, 4):
        out = tmp_path / f"d{n}.csv"
        assert run(["dispersion", "--config", si_cfg, "--n-points", n, "--out", out]) == 0
        assert len(sk.read_dispersion_csv(out)) == n
    assert _build_parser() is parser


def test_cmd_fit_malformed_csv_exit_2(tmp_path, cfg_1a):
    p = tmp_path / "bad.csv"
    p.write_text("frequency_hz,phase_velocity_m_per_s\n1e6,4000\n2e6,oops\n",
                 encoding="utf-8")
    assert run(["fit", p, "--config", cfg_1a]) == 2


def test_pipeline_synth_extract_fit_composes(tmp_path, cfg_1a):
    # synth | extract | fit reproduces the generating parameters
    base = cfg_1a.read_text(encoding="utf-8")
    measured_parts = []
    for period_um, n_periods, n_harm in ((24, 400, 3), (48, 200, 3), (96, 100, 3)):
        cfg_text = base.replace(
            "[mask]\nperiod_um = 24\nduty = 0.5\nn_periods = 400",
            f"[mask]\nperiod_um = {period_um}\nduty = 0.5\nn_periods = {n_periods}",
        )
        cfg_path = tmp_path / f"mask{period_um}.cfg"
        cfg_path.write_text(cfg_text, encoding="utf-8")
        w = tmp_path / f"w{period_um}.csv"
        assert run(["synth", "--config", cfg_path, "--out", w]) == 0
        measured_parts.append(w)
    merged = tmp_path / "merged.csv"
    assert run(["extract", *measured_parts, "--config", cfg_1a, "--out", merged]) == 0
    curve = sk.read_dispersion_csv(merged)
    assert len(curve) >= 5

    out = tmp_path / "fit.txt"
    assert run(["fit", merged, "--config", cfg_1a, "--out", out]) == 0
    est = (tmp_path / "fit.estimates.csv").read_text().splitlines()
    rows = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in est[1:]}
    assert abs(rows["c_ge"] - 0.179) <= 0.01
    assert abs(rows["layer0.thickness"] - 1.02e-6) <= 30e-9


# --- plot ------------------------------------------------------------------------------


def test_cmd_plot_single_curve(tmp_path):
    c = sk.DispersionCurve((50e6, 100e6, 200e6), (5000.0, 4800.0, 4500.0))
    p = tmp_path / "c.csv"
    sk.write_dispersion_csv(c, p)
    out = tmp_path / "plot.svg"
    assert run(["plot", p, "--out", out]) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    text = out.read_text()
    assert "Frequency (MHz)" in text
    assert "Phase velocity (m/s)" in text


def test_cmd_plot_two_styles(tmp_path):
    a = sk.DispersionCurve((50e6, 100e6), (5000.0, 4800.0))
    b = sk.DispersionCurve((60e6, 110e6), (4900.0, 4700.0))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    sk.write_dispersion_csv(a, pa)
    sk.write_dispersion_csv(b, pb)
    out = tmp_path / "two.svg"
    assert run(["plot", pa, "--model", pb, "--out", out]) == 0
    text = out.read_text()
    assert "<polyline" in text
    assert "<circle" in text
    ET.parse(out)


def test_cmd_plot_unreadable_exit_2(tmp_path):
    assert run(["plot", tmp_path / "missing.csv", "--out", tmp_path / "x.svg"]) == 2


def test_cmd_plot_requires_input():
    assert run(["plot"]) == 2


# --- version ----------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "sawkit" in capsys.readouterr().out
