import math

import numpy as np
import pytest

from whaledet import parallel, synth
from whaledet.audio import (
    AudioClip,
    SampleRateMismatchError,
    mean_square_power,
    save_wav,
)
from whaledet.cnn import tiny_vgg
from whaledet.features import feature_dim, featurize_clips
from whaledet.spectrogram import StftParams, stft_magnitude
from whaledet.synth import (
    NOISE_TYPES,
    ExperimentConfig,
    SynthError,
    build_experiment,
    dataset_loader,
    load_noise_bank,
    mix_at_snr,
    sample_builder,
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
    mixed, _ = mix_at_snr(sig, noise, -10.0)
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
    # the noise gain underflows to 0 (7000) or overflows (-7000), the scaled
    # noise power overflows (-3100) or underflows (3300), or P_s over it
    # overflows to an infinite achieved SNR (3090)
    for snr_db in (7000.0, -7000.0, -3100.0, 3300.0, 3090.0):
        with pytest.raises(SynthError, match="out of range"):
            mix_at_snr(sig, _white(100, 4), snr_db)


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


@pytest.mark.parametrize("rate", [700.0, 7200.0])
@pytest.mark.parametrize("noise_type", NOISE_TYPES)
def test_synth_noise_below_the_chorus_floor_names_the_rate(noise_type, rate):
    # every type shares the bank's floor; below it wind's filter design
    # raised scipy's ValueError and chorus named one of its unit frequencies
    with pytest.raises(SynthError, match=f"needs a sample_rate above 7200 "
                                         f"Hz .* got {rate:g} Hz"):
        synth_noise(noise_type, 1.0, rate, seed=0)


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
    assert all(s.noise_type == "wind" for s in samples)


def test_build_experiment_e1_uses_clean_background():
    units, bank = _small_setup()
    cfg = ExperimentConfig("E1", snr_db=0.0, seed=1)
    samples = build_experiment(units, bank, cfg, 3, 3, window_s=2.0)
    assert all(s.noise_type == "clean" for s in samples)


def test_build_experiment_deterministic():
    units, bank = _small_setup()
    cfg = ExperimentConfig("E6", snr_db=-5.0, seed=9)
    a = build_experiment(units, bank, cfg, 4, 4, window_s=2.0)
    b = build_experiment(units, bank, cfg, 4, 4, window_s=2.0)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.audio.samples, sb.audio.samples)
        assert (sa.unit_id, sa.noise_type, sa.noise_id,
                sa.offset_samples) == (sb.unit_id, sb.noise_type,
                                       sb.noise_id, sb.offset_samples)
        assert (sa.achieved_snr_db == sb.achieved_snr_db
                or (math.isnan(sa.achieved_snr_db)
                    and math.isnan(sb.achieved_snr_db)))


def test_achieved_snr_matches_requested():
    units, bank = _small_setup()
    for snr in (-10.0, 0.0, 10.0):
        cfg = ExperimentConfig("E3", snr_db=snr, seed=17)
        for s in build_experiment(units, bank, cfg, 6, 0, window_s=2.0):
            assert s.achieved_snr_db == pytest.approx(snr, abs=1e-9)
            assert abs(s.achieved_snr_db - snr) < 0.01


def test_build_experiment_mixes_every_positive_through_mix_at_snr(
        monkeypatch):
    mixtures = []

    def counting_mix(sig, noise, snr_db):
        mixed, achieved = mix_at_snr(sig, noise, snr_db)
        mixtures.append(mixed)
        return mixed, achieved

    monkeypatch.setattr(synth, "mix_at_snr", counting_mix)
    units, bank = _small_setup()
    samples = build_experiment(units, bank, ExperimentConfig("E6", 5.0, 3),
                               n_pos=3, n_neg=2, window_s=2.0)
    assert len(mixtures) == 3
    assert [s.label for s in samples] == [1, 1, 1, 0, 0]
    for s, mixed in zip(samples, mixtures):
        assert s.audio is mixed


def test_e6_noise_types_near_uniform():
    # multinomial bound: p=1/4, n=1000 positives, 3 sigma ~ 16% relative;
    # the asserted 43% band is comfortably wider
    units, bank = _small_setup()
    cfg = ExperimentConfig("E6", snr_db=0.0, seed=100)
    samples = build_experiment(units, bank, cfg, n_pos=1000, n_neg=0,
                               window_s=2.0)
    counts = {}
    for s in samples:
        counts[s.noise_type] = counts.get(s.noise_type, 0) + 1
    assert cfg.noise_types == ("wind", "rain", "traffic", "chorus")
    assert set(counts) == set(cfg.noise_types)
    for nt, c in counts.items():
        assert abs(c / 1000 - 0.25) <= 0.43 * 0.25, (nt, c)


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


def test_dataset_write_read_round_trip(tmp_path):
    units, bank = _small_setup()
    cfg = ExperimentConfig("E4", snr_db=5.0, seed=8)
    samples = build_experiment(units, bank, cfg, 3, 2, window_s=2.0)
    manifest = write_dataset(samples, tmp_path / "ds", seed=cfg.seed)
    assert manifest.is_file()
    load, labels = dataset_loader(tmp_path / "ds", SR)
    assert labels.tolist() == [1, 1, 1, 0, 0]
    for i, s in enumerate(samples):
        assert np.array_equal(load(i).samples,
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
    bank = load_noise_bank(root, SR)
    assert list(bank) == ["wind"]
    assert len(bank["wind"][0]) == 4000
    with pytest.raises(SynthError):
        load_noise_bank(tmp_path / "nope", SR)
    # every clip is read at the run's rate
    save_wav(root / "wind" / "w1.wav", AudioClip(np.ones(4000), SR / 2))
    with pytest.raises(SampleRateMismatchError, match=r"w1\.wav: audio at "
                       r"4000 Hz, config sample_rate is 8000 Hz"):
        load_noise_bank(root, SR)


@pytest.fixture
def chunk_calls(monkeypatch):
    """The item counts that synth passes to map_chunks, in call order."""
    calls = []
    real_map_chunks = synth.map_chunks

    def recording(fn, n_items, *args):
        calls.append(n_items)
        return real_map_chunks(fn, n_items, *args)

    monkeypatch.setattr(synth, "map_chunks", recording)
    return calls


def test_pool_and_bank_bytes_do_not_depend_on_thread_count(monkeypatch,
                                                          chunk_calls):
    runs = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(parallel, "default_jobs", lambda: threads)
        chunk_calls.clear()
        units = synth_unit_pool(30, 44100.0, seed=4)
        bank = synth_noise_bank(5.0, 2, 44100.0, seed=4)
        assert chunk_calls == [30, 10]  # the units, then 5 types x 2 clips
        assert list(bank) == list(NOISE_TYPES)
        runs.append(([u.samples.tobytes() for u in units],
                     {nt: [c.samples.tobytes() for c in clips]
                      for nt, clips in bank.items()}))
    assert runs[0] == runs[1] == runs[2]
    # clip i of each type is synth_noise's clip at seed 4 * 1000 + i
    assert runs[0][1] == {
        nt: [synth_noise(nt, 5.0, 44100.0, seed=4000 + i).samples.tobytes()
             for i in range(2)]
        for nt in NOISE_TYPES}


@pytest.mark.parametrize("build, rate", [
    (lambda sr: synth_unit_pool(3, sr), 1000.0),
    (lambda sr: synth_unit_pool(3, sr), 1333.0),
    (lambda sr: synth_noise_bank(1.0, 1, sr), 4000.0),
    (lambda sr: synth_noise_bank(1.0, 1, sr), 7200.0),
], ids=["units-1000", "units-1333", "bank-4000", "bank-7200"])
def test_rate_below_the_generators_floor_raises_before_any_thread(
        chunk_calls, build, rate):
    with pytest.raises(SynthError, match="needs a sample_rate above"):
        build(rate)
    assert chunk_calls == []


def test_pool_and_bank_build_just_above_the_floor():
    assert len(synth_unit_pool(3, 1334.0)) == 3
    bank = synth_noise_bank(1.0, 1, 7201.0, seed=1)
    assert [len(clips) for clips in bank.values()] == [1] * 5


def test_lazy_cell_featurizes_like_the_eager_list(monkeypatch):
    # criterion 6's E6 cell at -10 dB: sweep builds each window on the
    # thread that featurizes it, from the samples build_experiment lists
    units = synth_unit_pool(6, SR, seed=42)
    bank = synth_noise_bank(6.0, 1, SR, seed=42)
    cfg = ExperimentConfig("E6", -10.0, seed=1234)
    featurize = dict(network=tiny_vgg(seed=0, in_size=32),
                     params=StftParams(segment_len=512, hop=256,
                                       fft_size=512), size=32)
    monkeypatch.setattr(parallel, "default_jobs", lambda: 1)
    samples = build_experiment(units, bank, cfg, 12, 12, window_s=2.0)
    dim = feature_dim(featurize["network"], featurize["size"])
    eager = featurize_clips(24, lambda k: samples[k].audio,
                            np.empty((24, dim), "<f4"), **featurize)
    sample = sample_builder(units, bank, cfg, 12, window_s=2.0)
    for threads in (1, 2, 3):
        monkeypatch.setattr(parallel, "default_jobs", lambda: threads)
        lazy = featurize_clips(24, lambda k: sample(k).audio,
                               np.empty((24, dim), "<f4"), **featurize)
        assert lazy.tobytes() == eager.tobytes(), threads
    assert [s.label for s in samples] == [1] * 12 + [0] * 12
