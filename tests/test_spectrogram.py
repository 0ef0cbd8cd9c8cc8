import numpy as np
import pytest

from naive_ref import naive_dft_frame, naive_dft_magnitudes
from whaledet.audio import AudioClip
from whaledet.spectrogram import (
    SpectrogramError,
    StftParams,
    gray_scale,
    resize_bilinear,
    stft_magnitude,
    stft_spectrogram,
    to_image,
)

SR = 44100.0


def test_default_params_give_171_frames_1025_bins():
    clip = AudioClip(np.random.default_rng(0).standard_normal(88200), SR)
    assert stft_spectrogram(clip).shape == (1025, 171)


def test_params_validation():
    with pytest.raises(SpectrogramError):
        StftParams(segment_len=100, hop=200, fft_size=256)
    with pytest.raises(SpectrogramError):
        StftParams(segment_len=4096, hop=512, fft_size=2048)
    with pytest.raises(SpectrogramError):
        StftParams(segment_len=1024, hop=0, fft_size=2048)


def test_clip_shorter_than_segment_errors():
    with pytest.raises(SpectrogramError):
        stft_spectrogram(AudioClip(np.zeros(1000), SR))


def test_sine_at_bin_center_dominates_that_bin():
    params = StftParams()
    k = 100
    freq = k * SR / params.fft_size
    t = np.arange(44100) / SR
    clip = AudioClip(np.sin(2 * np.pi * freq * t), SR)
    mag = stft_magnitude(clip, params)
    assert (mag.argmax(axis=0) == k).all()


def test_stft_matches_naive_dft_small():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(200)
    params = StftParams(segment_len=64, hop=32, fft_size=128)
    got = stft_magnitude(AudioClip(samples, 8000.0), params)
    want = naive_dft_magnitudes(samples, 64, 32, 128)
    assert got.shape == want.shape
    scale = np.maximum(np.abs(want), 1e-9)
    assert (np.abs(got - want) / scale).max() < 1e-6


def test_parseval_per_frame():
    # sum of |X_k|^2 over the full spectrum equals fft_size * windowed energy
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(1024)
    params = StftParams(segment_len=512, hop=256, fft_size=512)
    windowed = samples[:512] * params.taper()
    spectrum = naive_dft_frame(windowed, 512)
    energy_freq = np.sum(np.abs(spectrum) ** 2) / 512
    energy_time = np.sum(windowed**2)
    assert energy_freq == pytest.approx(energy_time, rel=1e-6)
    # and the one-sided magnitudes of stft_magnitude agree with the oracle
    mag = stft_magnitude(AudioClip(samples, 8000.0), params)
    assert np.allclose(mag[:, 0], np.abs(spectrum[:257]), rtol=1e-9, atol=1e-9)


def test_stft_deterministic():
    clip = AudioClip(np.random.default_rng(1).standard_normal(88200), SR)
    a = stft_spectrogram(clip)
    b = stft_spectrogram(clip)
    assert np.array_equal(a, b)


def test_db_floor_keeps_values_finite():
    spec = stft_spectrogram(AudioClip(np.zeros(88200), SR))
    assert np.isfinite(spec).all()


def test_constant_spectrogram_maps_to_128():
    img = to_image(np.full((10, 8), -42.0), width=8, height=10)
    assert (img == 128).all()


def test_two_valued_grid_maps_to_endpoints():
    grid = np.array([[-80.0, -20.0], [-20.0, -80.0]])
    scaled = gray_scale(grid)
    assert set(np.unique(scaled)) == {0.0, 255.0}


def test_image_is_256x256_from_default_grid():
    clip = AudioClip(np.random.default_rng(4).standard_normal(88200), SR)
    img = to_image(stft_spectrogram(clip))
    assert img.shape == (256, 256)
    assert img.dtype == np.uint8


def test_gray_scale_monotone():
    rng = np.random.default_rng(6)
    grid = rng.uniform(-90, -10, (16, 16))
    scaled = gray_scale(grid)
    flat_db = grid.ravel()
    flat_px = scaled.ravel()
    order = np.argsort(flat_db)
    assert (np.diff(flat_px[order]) >= 0).all()


def test_low_frequency_at_bottom_row():
    grid = np.zeros((4, 4))
    grid[0, :] = 100.0  # bin 0 = lowest frequency, hottest
    img = to_image(grid, width=4, height=4)
    assert (img[-1, :] == 255).all()
    assert (img[0, :] == 0).all()


def test_resize_bilinear_identity_and_average():
    grid = np.array([[0.0, 10.0], [20.0, 30.0]])
    assert np.array_equal(resize_bilinear(grid, 2, 2), grid)
    up = resize_bilinear(grid, 3, 3)
    assert up[1, 1] == pytest.approx(15.0)


def test_to_image_matches_gray_scale_then_resize():
    # to_image gray-scales only the rows the resize reads; the pixels must
    # equal those of the whole-grid composition, for shrinking, growing and
    # constant grids alike
    rng = np.random.default_rng(5)
    grids = [rng.normal(-40.0, 20.0, (1025, 171)),
             rng.normal(0.0, 1.0, (7, 5)), np.full((9, 4), -3.0)]
    for grid in grids:
        for height, width in ((256, 256), (16, 3), (1, 1)):
            want = resize_bilinear(gray_scale(grid)[::-1, :], height, width)
            want = np.clip(np.round(want), 0, 255).astype(np.uint8)
            got = to_image(grid, width=width, height=height)
            assert np.array_equal(got, want)
