"""Audio ingestion, normalization, power measurement and windowing.

Everything downstream consumes mono clips cut into fixed-length,
non-overlapping analysis windows (2 s by default).  All functions are pure;
clips are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile


class AudioError(Exception):
    """Base class for audio-layer failures."""


class UnreadableFileError(AudioError):
    """File missing or not a parseable RIFF/WAV container."""


class UnsupportedEncodingError(AudioError):
    """WAV sample format other than PCM16 or IEEE float32."""


class EmptyAudioError(AudioError):
    """Zero-length audio payload, or an empty clip where one is required."""


class NonFiniteAudioError(AudioError):
    """NaN or infinite sample in a float WAV payload."""


class SampleRateMismatchError(AudioError):
    """Clip sample rate differs from the rate the pipeline is set up for."""


class WindowingError(AudioError):
    """Clip too short for the requested analysis window."""


@dataclass(frozen=True)
class AudioClip:
    """Mono time series with its sample rate.

    Samples are dimensionless pressure amplitudes held as float64.
    """

    samples: np.ndarray
    sample_rate_hz: float = 44100.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise AudioError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.samples)


def load_wav(path) -> AudioClip:
    """Read a PCM16 or float32 WAV file as a mono AudioClip.

    PCM16 samples are scaled by 1/32768; float32 payloads holding a NaN or
    infinite sample are rejected; multichannel audio is averaged down to
    mono.  No resampling is performed.
    """
    path = Path(path)
    if not path.is_file():
        raise UnreadableFileError(f"cannot read WAV file: {path}")
    try:
        rate, data = wavfile.read(str(path))
    except Exception as exc:
        raise UnreadableFileError(f"cannot parse WAV file {path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
        if not np.isfinite(samples).all():
            raise NonFiniteAudioError(f"{path}: NaN or infinite sample values")
    else:
        raise UnsupportedEncodingError(
            f"{path}: unsupported WAV sample format {data.dtype} "
            "(expected int16 PCM or float32)"
        )
    if samples.ndim > 1:
        samples = samples.mean(axis=1)
    if samples.size == 0:
        raise EmptyAudioError(f"{path}: zero-length audio payload")
    return AudioClip(samples=samples, sample_rate_hz=float(rate))


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as a float32 WAV (bit-exact round trip via load_wav)."""
    wavfile.write(str(path), int(round(clip.sample_rate_hz)),
                  clip.samples.astype(np.float32))


def normalize_unit(clip: AudioClip) -> AudioClip:
    """Peak-normalize so max |sample| == 1.  All-zero clips pass through."""
    if len(clip) == 0:
        raise EmptyAudioError("cannot normalize an empty clip")
    peak = float(np.max(np.abs(clip.samples)))
    if peak == 0.0:
        return clip
    return AudioClip(clip.samples / peak, clip.sample_rate_hz)


def frame_windows(clip: AudioClip, window_s: float = 2.0) -> list[AudioClip]:
    """Cut a clip into contiguous non-overlapping windows of window_s seconds.

    The trailing remainder shorter than one window is discarded.
    """
    window_len = int(round(window_s * clip.sample_rate_hz))
    if window_len < 1:
        raise WindowingError(
            f"a {window_s} s window at {clip.sample_rate_hz:g} Hz is under "
            f"one sample")
    n = len(clip) // window_len
    if n == 0:
        raise WindowingError(
            f"clip of {len(clip)} samples is shorter than one "
            f"{window_len}-sample window"
        )
    return [
        AudioClip(clip.samples[m * window_len : (m + 1) * window_len],
                  clip.sample_rate_hz)
        for m in range(n)
    ]


def mean_square_power(clip: AudioClip) -> float:
    """Mean of squared samples: (1/N) * sum(x^2)."""
    if len(clip) == 0:
        raise EmptyAudioError("cannot measure power of an empty clip")
    return float(np.mean(np.square(clip.samples)))
