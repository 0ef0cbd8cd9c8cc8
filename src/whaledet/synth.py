"""SNR-controlled dataset synthesis: whale-unit/noise mixing plus parametric
stand-in generators for desk-scale runs.

Positive samples are peak-normalized sound-unit windows mixed with a randomly
chosen noise segment scaled to hit the requested SNR exactly; negatives are
pure noise windows of the same types.  Generation is deterministic: sample k
of a run draws from an RNG seeded with (config seed, k), so samples can be
generated in any order or in parallel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import signal as sps

from .audio import (
    AudioClip,
    AudioError,
    load_wav,
    mean_square_power,
    normalize_unit,
    save_wav,
)

NOISE_TYPES = ("clean", "wind", "rain", "traffic", "chorus")

EXPERIMENT_NOISE_TYPES = {
    "E1": ("clean",),
    "E2": ("wind",),
    "E3": ("rain",),
    "E4": ("traffic",),
    "E5": ("chorus",),
    "E6": ("wind", "rain", "traffic", "chorus"),
}


class SynthError(Exception):
    pass


@dataclass
class NoiseBank:
    """Noise clips grouped by type; every clip must cover >= one window."""

    entries: dict[str, list[AudioClip]] = field(default_factory=dict)

    def require(self, noise_types, window_len: int) -> None:
        for nt in noise_types:
            clips = self.entries.get(nt)
            if not clips:
                raise SynthError(f"noise bank has no clips of type '{nt}'")
            for clip in clips:
                if len(clip) < window_len:
                    raise SynthError(
                        f"noise clip of type '{nt}' is shorter "
                        f"({len(clip)}) than one window ({window_len})"
                    )


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str  # E1..E6
    snr_db: float
    seed: int

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENT_NOISE_TYPES:
            raise SynthError(f"unknown experiment id: {self.experiment_id}")

    @property
    def noise_types(self) -> tuple[str, ...]:
        return EXPERIMENT_NOISE_TYPES[self.experiment_id]


@dataclass(frozen=True)
class Provenance:
    unit_id: str
    noise_type: str
    noise_id: str
    offset_samples: int
    requested_snr_db: float
    achieved_snr_db: float


@dataclass(frozen=True)
class MixedSample:
    audio: AudioClip  # one analysis window
    label: int  # whale=1, noise=0
    provenance: Provenance


def snr_gain(signal_power: float, noise_power: float, snr_db: float) -> float:
    """Scale factor for the noise so that 10*log10(P_s / (a^2 P_n)) == snr_db."""
    return math.sqrt(signal_power / noise_power) * 10.0 ** (-snr_db / 20.0)


def _scaled_noise(sig: AudioClip, noise: AudioClip,
                  snr_db: float) -> tuple[float, np.ndarray]:
    """Signal power P_s and the noise samples scaled by snr_gain."""
    if len(sig) != len(noise):
        raise SynthError(
            f"length mismatch: signal {len(sig)} vs noise {len(noise)}"
        )
    p_s = mean_square_power(sig)
    p_n = mean_square_power(noise)
    if p_s == 0.0:
        raise SynthError("zero-power signal cannot be mixed at a target SNR")
    if p_n == 0.0:
        raise SynthError("zero-power noise cannot be mixed at a target SNR")
    return p_s, snr_gain(p_s, p_n, snr_db) * noise.samples


def mix_at_snr(sig: AudioClip, noise: AudioClip, snr_db: float) -> AudioClip:
    """signal + a*noise with the noise scaled to hit the requested SNR.

    The signal is left untouched; the mixture is not re-normalized (that
    would silently change the SNR), so samples may exceed [-1, 1].
    """
    return AudioClip(sig.samples + _scaled_noise(sig, noise, snr_db)[1],
                     sig.sample_rate_hz)


def _unit_window(unit: AudioClip, window_len: int, rng) -> AudioClip:
    """One window of a unit: random frame of long units, center-embed short."""
    unit = normalize_unit(unit)
    n = len(unit)
    if n >= window_len:
        start = int(rng.integers(0, n - window_len + 1))
        return AudioClip(unit.samples[start : start + window_len],
                         unit.sample_rate_hz)
    buf = np.zeros(window_len)
    start = (window_len - n) // 2
    buf[start : start + n] = unit.samples
    return AudioClip(buf, unit.sample_rate_hz)


def _noise_window(bank: NoiseBank, noise_types, window_len: int, rng):
    nt = noise_types[int(rng.integers(0, len(noise_types)))]
    clips = bank.entries[nt]
    ci = int(rng.integers(0, len(clips)))
    clip = clips[ci]  # NoiseBank.require has checked it covers a window
    offset = int(rng.integers(0, len(clip) - window_len + 1))
    seg = AudioClip(clip.samples[offset : offset + window_len],
                    clip.sample_rate_hz)
    return nt, ci, offset, seg


def build_experiment(
    units: list[AudioClip],
    bank: NoiseBank,
    cfg: ExperimentConfig,
    n_pos: int,
    n_neg: int,
    window_s: float = 2.0,
) -> list[MixedSample]:
    """n_pos unit+noise mixtures at cfg.snr_db and n_neg pure-noise windows."""
    if not units:
        raise SynthError("no sound units provided")
    sr = units[0].sample_rate_hz
    window_len = int(round(window_s * sr))
    bank.require(cfg.noise_types, window_len)

    samples: list[MixedSample] = []
    for k in range(n_pos + n_neg):
        rng = np.random.default_rng([cfg.seed, k])
        if k < n_pos:
            ui = int(rng.integers(0, len(units)))
            sig = _unit_window(units[ui], window_len, rng)
            nt, ci, offset, noise_seg = _noise_window(
                bank, cfg.noise_types, window_len, rng
            )
            p_s, scaled = _scaled_noise(sig, noise_seg, cfg.snr_db)
            achieved = 10.0 * math.log10(
                p_s / mean_square_power(AudioClip(scaled, sr)))
            samples.append(
                MixedSample(
                    audio=AudioClip(sig.samples + scaled, sig.sample_rate_hz),
                    label=1,
                    provenance=Provenance(
                        unit_id=f"unit_{ui:04d}",
                        noise_type=nt,
                        noise_id=f"{nt}_{ci:04d}",
                        offset_samples=offset,
                        requested_snr_db=cfg.snr_db,
                        achieved_snr_db=achieved,
                    ),
                )
            )
        else:
            nt, ci, offset, noise_seg = _noise_window(
                bank, cfg.noise_types, window_len, rng
            )
            samples.append(
                MixedSample(
                    audio=noise_seg,
                    label=0,
                    provenance=Provenance(
                        unit_id="",
                        noise_type=nt,
                        noise_id=f"{nt}_{ci:04d}",
                        offset_samples=offset,
                        requested_snr_db=float("nan"),
                        achieved_snr_db=float("nan"),
                    ),
                )
            )
    return samples


def synth_whale_unit(
    duration_s: float,
    f_start_hz: float,
    f_end_hz: float,
    amp: float = 1.0,
    sample_rate: float = 44100.0,
    harmonics: tuple[float, ...] = (1.0,),
    vibrato_hz: float = 0.0,
    vibrato_depth: float = 0.0,
) -> AudioClip:
    """Linear-chirp tonal with raised-cosine onset/offset ramps.

    Stand-in for a recorded sound unit; peak amplitude equals amp.
    Optional overtone amplitudes and slow vibrato give the timbre of a
    close-range vocalization; the defaults are a plain chirp.
    """
    nyquist = sample_rate / 2.0
    for f in (f_start_hz, f_end_hz):
        if not 0.0 < f < nyquist:
            raise SynthError(f"frequency {f} Hz outside (0, {nyquist}) Hz")
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    inst = f_start_hz + (f_end_hz - f_start_hz) * t / duration_s
    if vibrato_hz > 0.0 and vibrato_depth > 0.0:
        inst = inst * (1.0 + vibrato_depth
                       * np.sin(2.0 * np.pi * vibrato_hz * t))
    phase = np.cumsum(2.0 * np.pi * inst / sample_rate)
    x = np.zeros(n)
    for h, h_amp in enumerate(harmonics, start=1):
        if h * max(f_start_hz, f_end_hz) * (1.0 + vibrato_depth) < nyquist:
            x += h_amp * np.sin(h * phase)
    ramp = min(int(0.05 * sample_rate), n // 4)
    if ramp > 0:
        env = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        x[:ramp] *= env
        x[-ramp:] *= env[::-1]
    peak = np.max(np.abs(x))
    if peak > 0 and amp > 0:
        x = x * (amp / peak)
    else:
        x = np.zeros(n)
    return AudioClip(x, sample_rate)


def synth_noise(
    noise_type: str,
    duration_s: float,
    sample_rate: float = 44100.0,
    seed: int = 0,
) -> AudioClip:
    """Seeded parametric background noise of the requested character.

    clean: very quiet white noise; wind: low-pass filtered white noise;
    rain: broadband white noise; traffic: slowly FM'd harmonic stack;
    chorus: dense superposition of synthetic whale units.
    """
    if noise_type not in NOISE_TYPES:
        raise SynthError(f"unknown noise type: {noise_type}")
    rng = np.random.default_rng([NOISE_TYPES.index(noise_type), seed])
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate

    if noise_type == "clean":
        # quiet residual low-frequency ambience, as in between-unit
        # stretches of a calm close-range recording
        b, a = sps.butter(4, 60.0 / (sample_rate / 2.0), btype="low")
        x = 1e-3 * sps.lfilter(b, a, rng.standard_normal(n))
    elif noise_type == "rain":
        x = rng.standard_normal(n)
    elif noise_type == "wind":
        b, a = sps.butter(4, 400.0 / (sample_rate / 2.0), btype="low")
        x = sps.lfilter(b, a, rng.standard_normal(n))
        # slow gusting amplitude modulation
        x *= 1.0 + 0.5 * np.sin(2.0 * np.pi * rng.uniform(0.1, 0.4) * t)
    elif noise_type == "traffic":
        f0 = rng.uniform(60.0, 180.0)
        fm = 0.03 * np.sin(2.0 * np.pi * rng.uniform(0.05, 0.3) * t
                           + rng.uniform(0, 2 * np.pi))
        inst = f0 * (1.0 + fm)
        phase0 = np.cumsum(2.0 * np.pi * inst / sample_rate)
        x = np.zeros(n)
        for h in range(1, 13):
            if h * f0 * 1.05 >= sample_rate / 2.0:
                break
            x += np.sin(h * phase0 + rng.uniform(0, 2 * np.pi)) / h
        x += 0.05 * rng.standard_normal(n)
    else:  # chorus
        x = 1e-4 * rng.standard_normal(n)  # floor keeps every window non-zero
        t_cursor = -0.5
        while t_cursor < duration_s:
            dur = rng.uniform(0.6, 1.2)
            f_lo = rng.uniform(150.0, 1200.0)
            f_hi = f_lo * rng.uniform(1.2, 3.0)
            if rng.random() < 0.5:
                f_lo, f_hi = f_hi, f_lo
            unit = synth_whale_unit(dur, f_lo, f_hi,
                                    amp=rng.uniform(0.3, 1.0),
                                    sample_rate=sample_rate)
            start = int(round(t_cursor * sample_rate))
            seg = unit.samples
            if start < 0:
                seg = seg[-start:]
                start = 0
            end = min(start + len(seg), n)
            if end > start:
                x[start:end] += seg[: end - start]
            t_cursor += rng.uniform(0.3, 0.9)
    return AudioClip(x, sample_rate)


def synth_noise_bank(
    duration_s: float = 20.0,
    clips_per_type: int = 2,
    sample_rate: float = 44100.0,
    seed: int = 0,
) -> NoiseBank:
    """Fully synthetic noise bank covering every supported type."""
    entries = {
        nt: [
            synth_noise(nt, duration_s, sample_rate, seed=seed * 1000 + i)
            for i in range(clips_per_type)
        ]
        for nt in NOISE_TYPES
    }
    return NoiseBank(entries=entries)


def synth_unit_pool(
    n_units: int = 30,
    sample_rate: float = 44100.0,
    seed: int = 0,
) -> list[AudioClip]:
    """Pool of varied synthetic whale units for desk-scale runs.

    Long harmonic-rich chirps with slow vibrato: closer in texture to a
    recorded vocalization than a bare sinusoid, so they paint an extended
    ridge across a 2-s analysis window.
    """
    rng = np.random.default_rng([97, seed])
    ceiling = 0.45 * sample_rate
    units = []
    for _ in range(n_units):
        dur = rng.uniform(1.5, 3.5)
        f0 = rng.uniform(200.0, min(1000.0, ceiling / 3.0))
        f1 = min(f0 * rng.uniform(1.3, 3.0), 0.2 * sample_rate)
        if rng.random() < 0.5:
            f0, f1 = f1, f0
        units.append(synth_whale_unit(
            dur, f0, f1, amp=1.0, sample_rate=sample_rate,
            harmonics=(1.0, 0.5, 0.25),
            vibrato_hz=rng.uniform(2.0, 6.0), vibrato_depth=0.02,
        ))
    return units


MANIFEST_FIELDS = (
    "sample_id", "label", "unit_file", "noise_type", "noise_file",
    "offset_samples", "requested_snr_db", "achieved_snr_db", "seed",
)


def load_noise_bank(root, window_len: int | None = None) -> NoiseBank:
    """Read bank/<noise_type>/*.wav into a NoiseBank."""
    root = Path(root)
    if not root.is_dir():
        raise SynthError(f"noise bank directory not found: {root}")
    entries: dict[str, list[AudioClip]] = {}
    for nt_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        clips = [load_wav(p) for p in sorted(nt_dir.glob("*.wav"))]
        if clips:
            entries[nt_dir.name] = clips
    bank = NoiseBank(entries=entries)
    if window_len is not None:
        bank.require(tuple(entries), window_len)
    return bank


def write_dataset(samples: list[MixedSample], out_dir, seed: int) -> Path:
    """Write sample WAVs plus a manifest CSV; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for k, s in enumerate(samples):
            wav_name = f"sample_{k:05d}.wav"
            save_wav(out_dir / wav_name, s.audio)
            p = s.provenance
            writer.writerow([
                wav_name, s.label, p.unit_id, p.noise_type, p.noise_id,
                p.offset_samples,
                "" if math.isnan(p.requested_snr_db) else f"{p.requested_snr_db:.6f}",
                "" if math.isnan(p.achieved_snr_db) else f"{p.achieved_snr_db:.9f}",
                seed,
            ])
    return manifest


def read_dataset(out_dir) -> tuple[list[AudioClip], np.ndarray]:
    """Load clips and labels back from a written dataset directory."""
    out_dir = Path(out_dir)
    manifest = out_dir / "manifest.csv"
    if not manifest.is_file():
        raise SynthError(f"dataset manifest not found: {manifest}")
    clips: list[AudioClip] = []
    labels: list[int] = []
    with open(manifest, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                clips.append(load_wav(out_dir / row["sample_id"]))
                labels.append(int(row["label"]))
            except AudioError as exc:
                raise SynthError(f"dataset sample unreadable: {exc}") from exc
            except (KeyError, TypeError, ValueError):
                raise SynthError(f"{manifest}: every row needs a sample_id "
                                 "and an integer label") from None
    return clips, np.asarray(labels, dtype=np.int64)
