"""dB spectrograms of analysis windows and their 8-bit image rendering.

The STFT uses Hamming-windowed segments (default 1024 samples, 50% overlap)
zero-padded to the FFT size (default 2048), giving 1025 one-sided bins and,
for a 2-s window at 44.1 kHz, exactly 171 frames.  The dB grid is
10*log10(|X|) of the magnitude, floored at DB_FLOOR so silence stays
finite.  A reference level or the |X|^2 convention would only shift or scale
the grid, and the min-max gray scaling of to_image cancels such an affine
change (up to rounding), so neither is configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioClip


DB_FLOOR = 1e-12


class SpectrogramError(Exception):
    pass


@dataclass(frozen=True)
class StftParams:
    segment_len: int = 1024
    hop: int = 512
    fft_size: int = 2048

    def __post_init__(self):
        if not (1 <= self.hop <= self.segment_len <= self.fft_size):
            raise SpectrogramError(
                f"need 1 <= hop <= segment_len <= fft_size, got "
                f"{self.hop}/{self.segment_len}/{self.fft_size}"
            )
        if self.fft_size < 2:
            raise SpectrogramError("fft_size must be >= 2")

    def taper(self) -> np.ndarray:
        return np.hamming(self.segment_len)


def stft_magnitude(clip: AudioClip, params: StftParams | None = None) -> np.ndarray:
    """Linear one-sided STFT magnitudes |X|, shape [fft_size//2+1, n_frames]."""
    params = params or StftParams()
    x = clip.samples
    if len(x) < params.segment_len:
        raise SpectrogramError(
            f"clip of {len(x)} samples shorter than segment_len {params.segment_len}"
        )
    frames = sliding_window_view(x, params.segment_len)[:: params.hop]
    segments = frames * params.taper()[None, :]
    spec = np.fft.rfft(segments, n=params.fft_size, axis=1)
    return np.abs(spec).T


def stft_spectrogram(clip: AudioClip, params: StftParams | None = None) -> np.ndarray:
    """dB spectrogram of one analysis window: the float64 grid
    [n_freq_bins x n_frames], bin 0 at DC (lowest frequency)."""
    mag = stft_magnitude(clip, params)
    return 10.0 * np.log10(np.maximum(mag, DB_FLOOR))


def gray_scale(values_db: np.ndarray) -> np.ndarray:
    """Map a dB grid linearly from [min, max] onto [0, 255] (float).

    A constant grid maps to all-128.  Monotonic: larger dB never maps to a
    smaller gray level.
    """
    values_db = np.asarray(values_db, dtype=np.float64)
    return _gray_levels(values_db, values_db.min(), values_db.max())


def _gray_levels(values_db: np.ndarray, vmin, vmax) -> np.ndarray:
    if vmax - vmin < 1e-30:
        return np.full(values_db.shape, 128.0)
    return (values_db - vmin) / (vmax - vmin) * 255.0


def _bilinear_taps(n_in: int, n_out: int):
    """Endpoint-aligned sample positions: lower index, upper index, weight."""
    pos = np.linspace(0.0, n_in - 1.0, n_out) if n_out > 1 else \
        np.array([(n_in - 1) / 2.0])
    lo = np.clip(np.floor(pos).astype(int), 0, n_in - 1)
    return lo, np.clip(lo + 1, 0, n_in - 1), pos - lo


def _blend(top: np.ndarray, bot: np.ndarray, wy: np.ndarray, width: int):
    """Bilinear blend of the row pairs (top[k], bot[k]) onto `width` columns."""
    x0, x1, wx = _bilinear_taps(top.shape[1], width)
    wx, wy = wx[None, :], wy[:, None]
    top = top[:, x0] * (1 - wx) + top[:, x1] * wx
    bot = bot[:, x0] * (1 - wx) + bot[:, x1] * wx
    return top * (1 - wy) + bot * wy


def resize_bilinear(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Endpoint-aligned bilinear resize of a 2-D float grid."""
    img = np.asarray(img, dtype=np.float64)
    y0, y1, wy = _bilinear_taps(img.shape[0], height)
    return _blend(img[y0], img[y1], wy, width)


def to_image(values_db: np.ndarray, width: int = 256,
             height: int = 256) -> np.ndarray:
    """Render a dB grid as a uint8 image [height x width], row 0 at the top
    and low frequency at the bottom row.

    Same pixels as resize_bilinear(gray_scale(grid)[::-1], ...), but only the
    rows the resize reads are gray-scaled.
    """
    if values_db.size == 0:
        raise SpectrogramError("empty spectrogram")
    flipped = values_db[::-1, :]  # bin 0 goes to the bottom
    vmin, vmax = values_db.min(), values_db.max()
    y0, y1, wy = _bilinear_taps(flipped.shape[0], height)
    resized = _blend(_gray_levels(flipped[y0], vmin, vmax),
                     _gray_levels(flipped[y1], vmin, vmax), wy, width)
    return np.clip(np.round(resized), 0, 255).astype(np.uint8)
