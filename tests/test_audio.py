import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from whaledet.audio import (
    AudioClip,
    EmptyAudioError,
    NonFiniteAudioError,
    UnreadableFileError,
    UnsupportedEncodingError,
    WindowingError,
    frame_windows,
    load_wav,
    mean_square_power,
    normalize_unit,
    save_wav,
)


def test_load_pcm16_scaling_boundary(tmp_path):
    path = tmp_path / "one.wav"
    wavfile.write(str(path), 44100, np.array([-32768], dtype=np.int16))
    clip = load_wav(path)
    assert clip.samples.tolist() == [-1.0]
    assert clip.sample_rate_hz == 44100


def test_load_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    wavfile.write(str(path), 8000, np.array([[0.5, -0.5]], dtype=np.float32))
    clip = load_wav(path)
    assert clip.samples.tolist() == [0.0]


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    original = rng.uniform(-1, 1, 4096).astype(np.float32).astype(np.float64)
    clip = AudioClip(original, 22050)
    save_wav(tmp_path / "rt.wav", clip)
    back = load_wav(tmp_path / "rt.wav")
    assert np.array_equal(back.samples, original)
    assert back.sample_rate_hz == 22050


def test_load_errors_are_distinct(tmp_path):
    with pytest.raises(UnreadableFileError):
        load_wav(tmp_path / "missing.wav")
    bad = tmp_path / "garbage.wav"
    bad.write_bytes(b"not a riff file at all")
    with pytest.raises(UnreadableFileError):
        load_wav(bad)
    unsupported = tmp_path / "i32.wav"
    wavfile.write(str(unsupported), 8000, np.array([1, 2], dtype=np.int32))
    with pytest.raises(UnsupportedEncodingError):
        load_wav(unsupported)
    for bad in (np.nan, np.inf, -np.inf):
        non_finite = tmp_path / "non_finite.wav"
        wavfile.write(str(non_finite), 8000,
                      np.array([0.1, bad, 0.2], dtype=np.float32))
        with pytest.raises(NonFiniteAudioError, match="non_finite.wav"):
            load_wav(non_finite)


def test_normalize_unit_peak_scaling():
    clip = normalize_unit(AudioClip([0.5, -0.25], 8000))
    assert clip.samples.tolist() == [1.0, -0.5]


def test_normalize_unit_all_zero_passthrough():
    clip = normalize_unit(AudioClip([0.0, 0.0, 0.0], 8000))
    assert clip.samples.tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=50)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
def test_normalize_unit_idempotent(samples):
    once = normalize_unit(AudioClip(samples, 8000))
    twice = normalize_unit(once)
    assert np.array_equal(once.samples, twice.samples)
    if np.any(np.asarray(samples) != 0.0):
        assert np.max(np.abs(once.samples)) == pytest.approx(1.0, abs=1e-12)


def test_frame_windows_floor_and_remainder():
    clip = AudioClip(np.arange(5 * 44100, dtype=float), 44100)
    ws = frame_windows(clip, 2.0)
    assert len(ws) == 2
    assert all(len(w) == 88200 for w in ws)


def test_frame_windows_identity_case():
    clip = AudioClip(np.arange(88200, dtype=float), 44100)
    ws = frame_windows(clip, 2.0)
    assert len(ws) == 1
    assert np.array_equal(ws[0].samples, clip.samples)


def test_frame_windows_too_short():
    clip = AudioClip(np.zeros(88199), 44100)
    with pytest.raises(WindowingError):
        frame_windows(clip, 2.0)


def test_frame_windows_concatenation_is_source_prefix():
    rng = np.random.default_rng(11)
    clip = AudioClip(rng.standard_normal(10000), 1000)
    ws = frame_windows(clip, 3.0)
    joined = np.concatenate([w.samples for w in ws])
    assert np.array_equal(joined, clip.samples[: len(joined)])


def test_mean_square_power_constant():
    assert mean_square_power(AudioClip([0.5] * 100, 8000)) == pytest.approx(0.25)


def test_mean_square_power_full_scale_sine():
    t = np.arange(8000) / 8000.0
    clip = AudioClip(np.sin(2 * np.pi * 100 * t), 8000)  # whole periods
    assert mean_square_power(clip) == pytest.approx(0.5, abs=1e-9)


def test_mean_square_power_matches_naive_loop():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(501)
    acc = 0.0
    for s in samples:
        acc += s * s
    expected = acc / len(samples)
    got = mean_square_power(AudioClip(samples, 8000))
    assert got == pytest.approx(expected, rel=1e-12)


def test_mean_square_power_empty_clip_errors():
    with pytest.raises(EmptyAudioError):
        mean_square_power(AudioClip(np.array([]), 8000))


def test_power_of_normalized_clip_at_most_one():
    rng = np.random.default_rng(23)
    for _ in range(20):
        clip = AudioClip(rng.uniform(-5, 5, 256), 8000)
        assert mean_square_power(normalize_unit(clip)) <= 1.0 + 1e-12
