import math

import numpy as np
import pytest

from whaledet.audio import AudioClip, mean_square_power, save_wav
from whaledet.spectrogram import StftParams, stft_magnitude
from whaledet.synth import (
    ExperimentConfig,
    NoiseBank,
    SynthError,
    build_experiment,
    load_noise_bank,
    mix_at_snr,
    read_dataset,
    snr_gain,
    synth_noise,
    synth_noise_bank,
    synth_unit_pool,
    synth_whale_unit,
    write_dataset,
)

SR = 8000.0  # small rate keeps synthesis tests fast


def _white(n, seed, amp=1.0):
    return AudioClip(amp * np.random.default_rng(seed).standard_normal(n), SR)


def test_equal_power_zero_snr_gain_is_one():
    assert snr_gain(0.3, 0.3, 0.0) == pytest.approx(1.0)


def test_equal_power_10db_gain():
    assert snr_gain(0.5, 0.5, 10.0) == pytest.approx(10 ** -0.5)


def test_mix_round_trip_snr():
    sig = _white(4000, 1)
    noise = _white(4000, 2, amp=3.0)
    mixed = mix_at_snr(sig, noise, -10.0)
    added = AudioClip(mixed.samples - sig.samples, SR)
    snr = 10 * math.log10(mean_square_power(sig) / mean_square_power(added))
    assert snr == pytest.approx(-10.0, abs=1e-9)


def test_mix_errors():
    sig = _white(100, 3)
    with pytest.raises(SynthError):
        mix_at_snr(sig, _white(99, 4), 0.0)
    with pytest.raises(SynthError):
        mix_at_snr(sig, AudioClip(np.zeros(100), SR), 0.0)
    with pytest.raises(SynthError):
        mix_at_snr(AudioClip(np.zeros(100), SR), sig, 0.0)


def test_unit_pure_tone_argmax_bin():
    params = StftParams(segment_len=256, hop=128, fft_size=512)
    freq = 50 * SR / 512  # exact bin center
    unit = synth_whale_unit(1.0, freq, freq, sample_rate=SR)
    mag = stft_magnitude(unit, params)
    interior = mag[:, 2:-2]  # onset/offset ramps suppress the edges
    assert (interior.argmax(axis=0) == 50).all()


def test_unit_zero_amp_is_silence():
    unit = synth_whale_unit(0.5, 100, 400, amp=0.0, sample_rate=SR)
    assert (unit.samples == 0.0).all()


def test_unit_peak_amplitude():
    unit = synth_whale_unit(1.0, 200, 800, amp=0.7, sample_rate=SR)
    assert np.max(np.abs(unit.samples)) == pytest.approx(0.7)


def test_unit_frequency_validation():
    with pytest.raises(SynthError):
        synth_whale_unit(1.0, 0.0, 500, sample_rate=SR)
    with pytest.raises(SynthError):
        synth_whale_unit(1.0, 100, SR, sample_rate=SR)


def test_chirp_ridge_increases_monotonically():
    unit = synth_whale_unit(1.0, 200, 800, sample_rate=SR)
    params = StftParams(segment_len=256, hop=128, fft_size=512)
    ridge = stft_magnitude(unit, params).argmax(axis=0)
    interior = ridge[2:-2]
    assert (np.diff(interior) >= 0).all()
    assert interior[-1] > interior[0]


def test_synth_noise_deterministic():
    for nt in ("clean", "wind", "rain", "traffic", "chorus"):
        a = synth_noise(nt, 2.0, SR, seed=5)
        b = synth_noise(nt, 2.0, SR, seed=5)
        assert np.array_equal(a.samples, b.samples), nt


def test_synth_noise_unknown_type():
    with pytest.raises(SynthError):
        synth_noise("volcano", 1.0, SR, seed=0)


def _spectral_flatness(clip, f_max_hz):
    mag = stft_magnitude(clip, StftParams(segment_len=512, hop=256,
                                          fft_size=512))
    n_bins = int(f_max_hz / (clip.sample_rate_hz / 512)) + 1
    power = np.mean(mag[:n_bins] ** 2, axis=1) + 1e-30
    return float(np.exp(np.mean(np.log(power))) / np.mean(power))


def test_rain_flatter_than_wind():
    rain = synth_noise("rain", 4.0, SR, seed=6)
    wind = synth_noise("wind", 4.0, SR, seed=6)
    assert _spectral_flatness(rain, SR / 2) > _spectral_flatness(wind, SR / 2)


def test_chorus_has_ridge_in_every_window():
    chorus = synth_noise("chorus", 10.0, SR, seed=7)
    params = StftParams(segment_len=512, hop=256, fft_size=1024)
    win = int(2.0 * SR)
    for start in range(0, len(chorus.samples) - win + 1, win):
        seg = AudioClip(chorus.samples[start : start + win], SR)
        mag = stft_magnitude(seg, params)
        # a tonal ridge concentrates energy: peak bin well above the median
        frame_peak = mag.max(axis=0)
        frame_med = np.median(mag, axis=0) + 1e-30
        assert np.median(frame_peak / frame_med) > 20


def _small_setup(seed=0):
    units = synth_unit_pool(n_units=4, sample_rate=SR, seed=seed)
    bank = synth_noise_bank(duration_s=5.0, clips_per_type=2,
                            sample_rate=SR, seed=seed)
    return units, bank


def test_build_experiment_counts_and_labels():
    units, bank = _small_setup()
    cfg = ExperimentConfig("E2", snr_db=0.0, seed=42)
    samples = build_experiment(units, bank, cfg, n_pos=5, n_neg=7,
                               window_s=2.0)
    assert sum(s.label == 1 for s in samples) == 5
    assert sum(s.label == 0 for s in samples) == 7
    assert all(len(s.audio) == int(2.0 * SR) for s in samples)
    assert all(s.provenance.noise_type == "wind" for s in samples)


def test_build_experiment_e1_uses_clean_background():
    units, bank = _small_setup()
    cfg = ExperimentConfig("E1", snr_db=0.0, seed=1)
    samples = build_experiment(units, bank, cfg, 3, 3, window_s=2.0)
    assert all(s.provenance.noise_type == "clean" for s in samples)


def test_build_experiment_deterministic():
    units, bank = _small_setup()
    cfg = ExperimentConfig("E6", snr_db=-5.0, seed=9)
    a = build_experiment(units, bank, cfg, 4, 4, window_s=2.0)
    b = build_experiment(units, bank, cfg, 4, 4, window_s=2.0)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.audio.samples, sb.audio.samples)
        pa, pb = sa.provenance, sb.provenance
        assert (pa.unit_id, pa.noise_type, pa.noise_id,
                pa.offset_samples) == (pb.unit_id, pb.noise_type,
                                       pb.noise_id, pb.offset_samples)
        assert (pa.achieved_snr_db == pb.achieved_snr_db
                or (math.isnan(pa.achieved_snr_db)
                    and math.isnan(pb.achieved_snr_db)))


def test_achieved_snr_matches_requested():
    units, bank = _small_setup()
    for snr in (-10.0, 0.0, 10.0):
        cfg = ExperimentConfig("E3", snr_db=snr, seed=17)
        for s in build_experiment(units, bank, cfg, 6, 0, window_s=2.0):
            assert s.provenance.achieved_snr_db == pytest.approx(snr, abs=1e-9)
            assert abs(s.provenance.achieved_snr_db - snr) < 0.01


def test_e6_noise_types_near_uniform():
    # multinomial bound: p=1/4, n=1000 positives, 3 sigma ~ 16% relative;
    # the asserted 43% band is comfortably wider
    units, bank = _small_setup()
    cfg = ExperimentConfig("E6", snr_db=0.0, seed=100)
    samples = build_experiment(units, bank, cfg, n_pos=1000, n_neg=0,
                               window_s=2.0)
    counts = {}
    for s in samples:
        counts[s.provenance.noise_type] = counts.get(s.provenance.noise_type, 0) + 1
    assert set(counts) == {"wind", "rain", "traffic", "chorus"}
    for nt, c in counts.items():
        assert abs(c / 1000 - 0.25) <= 0.43 * 0.25, (nt, c)


def test_experiment_config_validation():
    with pytest.raises(SynthError):
        ExperimentConfig("E7", snr_db=0.0, seed=0)
    for snr_db in (math.nan, math.inf, -math.inf):
        with pytest.raises(SynthError, match="snr_db"):
            ExperimentConfig("E1", snr_db=snr_db, seed=0)
    assert ExperimentConfig("E6", 0.0, 0).noise_types == (
        "wind", "rain", "traffic", "chorus")


def test_short_unit_center_embedded():
    unit = synth_whale_unit(0.5, 300, 600, sample_rate=SR)  # shorter than 2 s
    bank = synth_noise_bank(duration_s=5.0, clips_per_type=1,
                            sample_rate=SR, seed=0)
    cfg = ExperimentConfig("E1", snr_db=20.0, seed=3)
    samples = build_experiment([unit], bank, cfg, 1, 0, window_s=2.0)
    x = samples[0].audio.samples
    n = len(unit.samples)
    start = (len(x) - n) // 2
    # high SNR: the center must carry nearly all the energy
    center_power = np.mean(x[start : start + n] ** 2)
    edge_power = np.mean(np.concatenate([x[:start], x[start + n :]]) ** 2)
    assert center_power > 100 * edge_power


def test_insufficient_noise_duration_errors():
    unit = synth_whale_unit(1.0, 300, 600, sample_rate=SR)
    short_bank = NoiseBank(entries={"clean": [_white(100, 0)]})
    cfg = ExperimentConfig("E1", snr_db=0.0, seed=0)
    with pytest.raises(SynthError):
        build_experiment([unit], short_bank, cfg, 1, 1, window_s=2.0)


def test_dataset_write_read_round_trip(tmp_path):
    units, bank = _small_setup()
    cfg = ExperimentConfig("E4", snr_db=5.0, seed=8)
    samples = build_experiment(units, bank, cfg, 3, 2, window_s=2.0)
    manifest = write_dataset(samples, tmp_path / "ds", seed=cfg.seed)
    assert manifest.is_file()
    clips, labels = read_dataset(tmp_path / "ds")
    assert labels.tolist() == [1, 1, 1, 0, 0]
    for clip, s in zip(clips, samples):
        assert np.array_equal(clip.samples,
                              s.audio.samples.astype(np.float32))


def test_manifest_byte_identical_across_runs(tmp_path):
    units, bank = _small_setup()
    cfg = ExperimentConfig("E5", snr_db=0.0, seed=21)
    for d in ("a", "b"):
        samples = build_experiment(units, bank, cfg, 3, 3, window_s=2.0)
        write_dataset(samples, tmp_path / d, seed=cfg.seed)
    assert ((tmp_path / "a" / "manifest.csv").read_bytes()
            == (tmp_path / "b" / "manifest.csv").read_bytes())


def test_load_noise_bank_layout(tmp_path):
    root = tmp_path / "bank"
    (root / "wind").mkdir(parents=True)
    save_wav(root / "wind" / "w0.wav", _white(4000, 30))
    bank = load_noise_bank(root)
    assert list(bank.entries) == ["wind"]
    assert len(bank.entries["wind"][0]) == 4000
    with pytest.raises(SynthError):
        load_noise_bank(tmp_path / "nope")


def test_build_experiment_rejects_mixed_sample_rates():
    units, bank = _small_setup()
    cfg = ExperimentConfig("E2", snr_db=0.0, seed=0)
    slow_unit = AudioClip(units[1].samples, SR / 2)
    with pytest.raises(SynthError, match="sample rate"):
        build_experiment([units[0], slow_unit], bank, cfg, 2, 2)
    wind = [AudioClip(c.samples, SR / 2) for c in bank.entries["wind"]]
    slow_bank = NoiseBank(entries={**bank.entries, "wind": wind})
    with pytest.raises(SynthError, match="sample rate"):
        build_experiment(units, slow_bank, cfg, 2, 2)
    # a noise type the experiment does not use may have any rate
    build_experiment(units, slow_bank, ExperimentConfig("E3", 0.0, 0), 2, 2)
