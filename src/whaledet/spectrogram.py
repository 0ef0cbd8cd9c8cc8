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

from .audio import AudioClip


DB_FLOOR = 1e-12


class SpectrogramError(Exception):
    pass


@dataclass(frozen=True)
class StftParams:
    segment_len: int = 1024
    hop: int = 512
    fft_size: int = 2048
    window_fn: str = "hamming"

    def __post_init__(self):
        if not (self.hop <= self.segment_len <= self.fft_size):
            raise SpectrogramError(
                f"need hop <= segment_len <= fft_size, got "
                f"{self.hop}/{self.segment_len}/{self.fft_size}"
            )
        if self.fft_size < 2:
            raise SpectrogramError("fft_size must be >= 2")

    def taper(self) -> np.ndarray:
        if self.window_fn == "hamming":
            return np.hamming(self.segment_len)
        if self.window_fn == "hann":
            return np.hanning(self.segment_len)
        if self.window_fn == "rect":
            return np.ones(self.segment_len)
        raise SpectrogramError(f"unknown tapering window: {self.window_fn}")


@dataclass(frozen=True)
class Spectrogram:
    """dB grid [n_freq_bins x n_frames]; bin 0 is DC (lowest frequency)."""

    values_db: np.ndarray
    freq_resolution_hz: float
    time_resolution_s: float
    params: StftParams

    @property
    def n_freq_bins(self) -> int:
        return self.values_db.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values_db.shape[1]


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image as a uint8 grid [height x width], row 0 at the top."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.uint8))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def stft_magnitude(clip: AudioClip, params: StftParams | None = None) -> np.ndarray:
    """Linear one-sided STFT magnitudes |X|, shape [fft_size//2+1, n_frames]."""
    params = params or StftParams()
    x = clip.samples
    if len(x) < params.segment_len:
        raise SpectrogramError(
            f"clip of {len(x)} samples shorter than segment_len {params.segment_len}"
        )
    n_frames = (len(x) - params.segment_len) // params.hop + 1
    taper = params.taper()
    idx = np.arange(params.segment_len)[None, :] + \
        params.hop * np.arange(n_frames)[:, None]
    segments = x[idx] * taper[None, :]
    spec = np.fft.rfft(segments, n=params.fft_size, axis=1)
    return np.abs(spec).T


def stft_spectrogram(clip: AudioClip, params: StftParams | None = None) -> Spectrogram:
    """dB spectrogram of one analysis window."""
    params = params or StftParams()
    mag = stft_magnitude(clip, params)
    values_db = 10.0 * np.log10(np.maximum(mag, DB_FLOOR))
    return Spectrogram(
        values_db=values_db,
        freq_resolution_hz=clip.sample_rate_hz / params.fft_size,
        time_resolution_s=params.hop / clip.sample_rate_hz,
        params=params,
    )


def gray_scale(values_db: np.ndarray) -> np.ndarray:
    """Map a dB grid linearly from [min, max] onto [0, 255] (float).

    A constant grid maps to all-128.  Monotonic: larger dB never maps to a
    smaller gray level.
    """
    values_db = np.asarray(values_db, dtype=np.float64)
    vmin = values_db.min()
    vmax = values_db.max()
    if vmax - vmin < 1e-30:
        return np.full(values_db.shape, 128.0)
    return (values_db - vmin) / (vmax - vmin) * 255.0


def resize_bilinear(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Endpoint-aligned bilinear resize of a 2-D float grid."""
    img = np.asarray(img, dtype=np.float64)
    in_h, in_w = img.shape
    ys = np.linspace(0.0, in_h - 1.0, height) if height > 1 else \
        np.array([(in_h - 1) / 2.0])
    xs = np.linspace(0.0, in_w - 1.0, width) if width > 1 else \
        np.array([(in_w - 1) / 2.0])
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    y1 = np.clip(y0 + 1, 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    x1 = np.clip(x0 + 1, 0, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def to_image(spec: Spectrogram, width: int = 256, height: int = 256) -> GrayImage:
    """Render the dB grid as a uint8 image, low frequency at the bottom row."""
    if spec.values_db.size == 0:
        raise SpectrogramError("empty spectrogram")
    scaled = gray_scale(spec.values_db)[::-1, :]  # bin 0 goes to the bottom
    resized = resize_bilinear(scaled, height, width)
    return GrayImage(np.clip(np.round(resized), 0, 255).astype(np.uint8))


def save_pgm(image: GrayImage, path) -> None:
    """Export as binary PGM (P5) for quick inspection."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.pixels.tobytes())
