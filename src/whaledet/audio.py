"""Audio ingestion, normalization, power measurement and windowing.

Everything downstream consumes mono clips cut into fixed-length,
non-overlapping analysis windows (2 s by default).  All functions are pure;
clips are never modified in place.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
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

    def span(self, start: int, stop: int) -> "AudioClip":
        """Samples start .. stop - 1 of the clip, sharing its memory."""
        return AudioClip(self.samples[start:stop], self.sample_rate_hz)


# the GUID tail of a little-endian WAVE_FORMAT_EXTENSIBLE subformat
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x008\x9bq"


def _parse_wav(fh, file_len: int):
    """Walk the chunks of an open little-endian RIFF or RF64 WAV file as
    scipy's wavfile.read does, reading no payload: the (rate, channels,
    dtype, byte offset, frames) of the last data chunk, the rate from the
    last fmt chunk.  The dtype is <i2 or <f4, for exactly the files that
    wavfile.read types as int16 or float32; a RIFX file, or another sample
    format at the data chunk, raises UnsupportedEncodingError naming the
    file.  Raises ValueError, struct.error and others where wavfile.read
    raises on the same bytes, which tests/test_readers_fuzz.py checks."""
    kind = fh.read(4)
    if kind == b"RIFX":
        raise UnsupportedEncodingError(
            f"{fh.name}: unsupported big-endian (RIFX) WAV")
    if kind not in (b"RIFF", b"RF64"):
        raise ValueError(f"file format {kind!r} not understood, only 'RIFF' "
                         "and 'RF64' are")
    rf64_size = None
    if kind == b"RF64":
        fh.read(4)
        form = fh.read(4)
        if fh.read(4) != b"ds64":
            raise ValueError("RF64 file without a ds64 chunk")
        ds64_size = struct.unpack("<I", fh.read(4))[0]
        end, rf64_size = struct.unpack("<QQ", fh.read(16))
        fh.seek(ds64_size - 16, 1)
    else:
        end = struct.unpack("<I", fh.read(4))[0]
        form = fh.read(4)
    end += 8
    if form != b"WAVE":
        raise ValueError(f"RIFF form type {form!r} is not WAVE")
    fmt = data = None
    while fh.tell() < end:
        chunk = fh.read(4)
        if len(chunk) < 4:  # the end of the file
            if data is None:
                raise ValueError("unexpected end of file")
            break
        if chunk == b"fmt ":
            size = struct.unpack("<I", fh.read(4))[0]
            if size < 16:
                raise ValueError("fmt chunk shorter than 16 bytes")
            tag, channels, rate, byte_rate, block_align, bits = \
                struct.unpack("<HHIIHH", fh.read(16))
            done = 16
            if tag == 0xFFFE and size >= 18:  # WAVE_FORMAT_EXTENSIBLE
                if struct.unpack("<H", fh.read(2))[0] < 22:
                    raise ValueError("extensible fmt chunk too short")
                guid = fh.read(22)[6:]
                done += 24
                if guid.endswith(_GUID_TAIL):
                    tag = struct.unpack("<I", guid[:4])[0]
            if tag not in (1, 3):  # PCM, IEEE float
                raise UnsupportedEncodingError(
                    f"{fh.name}: unsupported WAV format tag {tag:#06x} "
                    "(expected PCM16 or float32)")
            # past the rest of the chunk, where reading it would leave the
            # file, then its pad byte
            here = fh.tell()
            fh.seek(min(here + max(size - done, 0), max(file_len, here))
                    + size % 2)
            if tag == 1 and byte_rate != rate * block_align:
                raise ValueError("nAvgBytesPerSec is not nSamplesPerSec "
                                 "times nBlockAlign")
            fmt = tag, channels, rate, block_align, bits
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before data")
            tag, channels, _, block_align, bits = fmt
            if rf64_size is None:
                size = struct.unpack("<I", fh.read(4))[0]
            else:
                fh.read(4)
                size = rf64_size
            width = block_align // channels
            # the two of wavfile.read's sample formats that whaledet reads
            if not (tag == 1 and width == 2 and (bits == 0 or 9 <= bits <= 64)
                    or tag == 3 and width == 4 and bits in (32, 64)):
                raise UnsupportedEncodingError(
                    f"{fh.name}: unsupported WAV sample format: tag {tag}, "
                    f"{bits} bits in {width} bytes (expected PCM16 or float32)")
            count = size // width
            start = fh.tell()
            got = min(count, max(file_len - start, 0) // width)
            # a payload cut short is read to the end of the file
            fh.seek(start + got * width if got == count
                    else max(file_len, start))
            fh.seek(size % 2, 1)
            if got % channels:
                raise ValueError("payload is not whole frames")
            data = (channels, np.dtype("<i2" if tag == 1 else "<f4"), start,
                    got // channels)
        else:
            size = fh.read(4)
            if size:
                size = struct.unpack("<I", size)[0]
                fh.seek(size + size % 2, 1)
    return (fmt[2], *data)


@dataclass(frozen=True)
class WavRange:
    """Frames start .. stop - 1 of a checked PCM16 or float32 WAV file,
    read from disk only by read(); open_wav makes one for the whole file."""

    path: Path
    sample_rate_hz: float
    channels: int
    dtype: np.dtype
    offset: int  # of frame 0, in bytes
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def span(self, start: int, stop: int) -> "WavRange":
        """Frames start .. stop - 1 of this range."""
        return replace(self, start=self.start + start,
                       stop=self.start + stop)

    def read(self) -> AudioClip:
        """The range as a mono AudioClip, read with one pread: PCM16 samples
        scaled by 1/32768, channels averaged; a NaN or infinite float32
        sample raises NonFiniteAudioError."""
        shape = (len(self),) + ((self.channels,) if self.channels > 1 else ())
        data = np.empty(shape, self.dtype)
        with open(self.path, "rb") as fh:
            got = pread_into(fh.fileno(), data, self.offset
                             + self.start * self.channels * self.dtype.itemsize)
        if got != data.nbytes:  # the file shrank since it was opened
            raise UnreadableFileError(
                f"{self.path}: short read, {got} of {data.nbytes} bytes")
        samples = data.astype(np.float64)
        if self.dtype == np.int16:
            samples /= 32768.0
        elif not np.isfinite(samples).all():
            raise NonFiniteAudioError(
                f"{self.path}: NaN or infinite sample values")
        if self.channels > 1:
            samples = samples.mean(axis=1)
        return AudioClip(samples=samples, sample_rate_hz=self.sample_rate_hz)


def open_wav(path, sample_rate: float) -> WavRange:
    """The whole of a PCM16 or float32 WAV file at sample_rate Hz, its
    header parsed and checked here; its samples are read by read().

    No resampling is performed: a file at any other rate raises
    SampleRateMismatchError.
    """
    path = Path(path)
    if not path.is_file():
        raise UnreadableFileError(f"cannot read WAV file: {path}")
    try:
        with open(path, "rb") as fh:
            rate, channels, dtype, offset, frames = _parse_wav(
                fh, os.fstat(fh.fileno()).st_size)
    except UnsupportedEncodingError:
        raise
    except Exception as exc:
        raise UnreadableFileError(f"cannot parse WAV file {path}: {exc}") from exc
    if frames == 0:
        raise EmptyAudioError(f"{path}: zero-length audio payload")
    if rate != sample_rate:
        raise SampleRateMismatchError(
            f"{path}: audio at {rate:g} Hz, config sample_rate is "
            f"{sample_rate:g} Hz")
    return WavRange(path, float(rate), channels, dtype, offset, 0, frames)


def load_wav(path, sample_rate: float) -> AudioClip:
    """Read a PCM16 or float32 WAV file at sample_rate Hz as a mono AudioClip
    (open_wav(path, sample_rate).read()).

    PCM16 samples are scaled by 1/32768; float32 payloads holding a NaN or
    infinite sample are rejected; multichannel audio is averaged down to
    mono.  No resampling is performed: a file at any other rate raises
    SampleRateMismatchError.
    """
    return open_wav(path, sample_rate).read()


def pread_into(fd: int, buf: np.ndarray, offset: int) -> int:
    """Fill the C-contiguous array buf from fd's bytes at offset, with one
    pread unless the kernel returns part of them; the bytes read, fewer than
    buf's only at the end of the file."""
    view = memoryview(buf.reshape(-1).view(np.uint8))
    done = 0
    while done < len(view):
        n = os.preadv(fd, [view[done:]], offset + done)
        if n == 0:
            break
        done += n
    return done


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as a float32 WAV (bit-exact round trip via load_wav)."""
    wavfile.write(str(path), int(round(clip.sample_rate_hz)),
                  clip.samples.astype(np.float32))


def require_makeable_dir(path) -> None:
    """Raise NotADirectoryError, naming it, when the nearest existing
    ancestor of path (or path itself) is not a directory, so that path
    cannot be made a directory.  Creates nothing."""
    p = Path(path)
    while not p.exists() and p != p.parent:
        p = p.parent
    if not p.is_dir():
        raise NotADirectoryError(
            f"cannot create directory '{path}': '{p}' is not a directory")


def make_dir(path) -> None:
    """Create directory path and its missing parents, raising
    require_makeable_dir's error when a file is in the way."""
    require_makeable_dir(path)
    Path(path).mkdir(parents=True, exist_ok=True)


def normalize_unit(clip: AudioClip) -> AudioClip:
    """Peak-normalize so max |sample| == 1.  All-zero clips pass through."""
    if len(clip) == 0:
        raise EmptyAudioError("cannot normalize an empty clip")
    peak = float(np.max(np.abs(clip.samples)))
    if peak == 0.0:
        return clip
    return AudioClip(clip.samples / peak, clip.sample_rate_hz)


def frame_windows(clip: AudioClip | WavRange, window_s: float = 2.0
                  ) -> list[AudioClip] | list[WavRange]:
    """Cut a clip into contiguous non-overlapping windows of window_s seconds,
    each clip.span of it: views of an AudioClip, or of a WavRange ranges
    whose samples stay on disk until a window is read.

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
    return [clip.span(m * window_len, (m + 1) * window_len)
            for m in range(n)]


def mean_square_power(clip: AudioClip) -> float:
    """Mean of squared samples: (1/N) * sum(x^2)."""
    if len(clip) == 0:
        raise EmptyAudioError("cannot measure power of an empty clip")
    return float(np.mean(np.square(clip.samples)))
