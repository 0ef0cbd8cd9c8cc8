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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (
    AudioClip,
    load_wav,
    make_dir,
    mean_square_power,
    normalize_unit,
    save_wav,
)
from .parallel import map_chunks

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


def require_noise(bank: dict[str, list[AudioClip]], noise_types,
                  window_len: int) -> None:
    """Raise SynthError unless the bank (noise type -> clips) holds clips of
    each type and every one of them covers a window."""
    for nt in noise_types:
        clips = bank.get(nt)
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
    """One cell of the grid: experiment_id a key of EXPERIMENT_NOISE_TYPES,
    snr_db finite."""

    experiment_id: str  # E1..E6
    snr_db: float
    seed: int

    @property
    def noise_types(self) -> tuple[str, ...]:
        return EXPERIMENT_NOISE_TYPES[self.experiment_id]


@dataclass(frozen=True)
class MixedSample:
    audio: AudioClip  # one analysis window
    label: int  # whale=1, noise=0
    unit_id: str  # "" for a noise-only sample
    noise_type: str
    noise_id: str
    offset_samples: int
    requested_snr_db: float  # NaN for a noise-only sample
    achieved_snr_db: float  # NaN for a noise-only sample


def snr_gain(signal_power: float, noise_power: float, snr_db: float) -> float:
    """Scale factor for the noise so that 10*log10(P_s / (a^2 P_n)) == snr_db."""
    return math.sqrt(signal_power / noise_power) * 10.0 ** (-snr_db / 20.0)


def mix_at_snr(sig: AudioClip, noise: AudioClip,
               snr_db: float) -> tuple[AudioClip, float]:
    """signal + a*noise with the noise scaled to hit the requested SNR, and
    the SNR achieved, 10*log10(P_s / P(a*noise)).

    The signal is left untouched; the mixture is not re-normalized (that
    would silently change the SNR), so samples may exceed [-1, 1].  An SNR
    whose noise gain a, scaled-noise power or achieved SNR over- or
    underflows raises SynthError.
    """
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
    try:
        gain = snr_gain(p_s, p_n, snr_db)
    except OverflowError:  # 10 ** (-snr_db / 20) beyond the float range
        gain = math.inf
    p_a = achieved = math.nan
    if 0.0 < gain < math.inf:
        scaled = gain * noise.samples
        with np.errstate(over="ignore"):  # an infinite power is named below
            p_a = mean_square_power(AudioClip(scaled, noise.sample_rate_hz))
    if 0.0 < p_a < math.inf:
        achieved = 10.0 * math.log10(p_s / p_a)
    if not math.isfinite(achieved):
        raise SynthError(
            f"an SNR of {snr_db:g} dB is out of range for this signal and "
            f"noise: noise gain {gain:g}, scaled noise power {p_a:g}, "
            f"achieved SNR {achieved:g} dB")
    return AudioClip(sig.samples + scaled, sig.sample_rate_hz), achieved


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


def _noise_window(bank: dict[str, list[AudioClip]], noise_types,
                  window_len: int, rng):
    nt = noise_types[int(rng.integers(0, len(noise_types)))]
    clips = bank[nt]
    ci = int(rng.integers(0, len(clips)))
    clip = clips[ci]  # require_noise has checked it covers a window
    offset = int(rng.integers(0, len(clip) - window_len + 1))
    seg = AudioClip(clip.samples[offset : offset + window_len],
                    clip.sample_rate_hz)
    return nt, ci, offset, seg


def sample_builder(
    units: list[AudioClip],
    bank: dict[str, list[AudioClip]],
    cfg: ExperimentConfig,
    n_pos: int,
    window_s: float = 2.0,
) -> Callable[[int], MixedSample]:
    """The function that builds sample k of an experiment: for k < n_pos a
    unit+noise mixture at cfg.snr_db, else a pure-noise window.

    Preconditions, checked where the audio enters: units is not empty, every
    unit and noise clip has one sample rate, and require_noise passes for
    cfg.noise_types and a window_s window.  Sample k draws from its own RNG,
    so samples can be built in any order and on any thread.
    """
    window_len = int(round(window_s * units[0].sample_rate_hz))

    def sample(k: int) -> MixedSample:
        rng = np.random.default_rng([cfg.seed, k])
        positive = k < n_pos
        if positive:
            ui = int(rng.integers(0, len(units)))
            sig = _unit_window(units[ui], window_len, rng)
        nt, ci, offset, audio = _noise_window(bank, cfg.noise_types,
                                              window_len, rng)
        unit_id, requested, achieved = "", math.nan, math.nan
        if positive:
            audio, achieved = mix_at_snr(sig, audio, cfg.snr_db)
            unit_id, requested = f"unit_{ui:04d}", cfg.snr_db
        return MixedSample(
            audio=audio, label=int(positive), unit_id=unit_id,
            noise_type=nt, noise_id=f"{nt}_{ci:04d}", offset_samples=offset,
            requested_snr_db=requested, achieved_snr_db=achieved)

    return sample


def build_experiment(
    units: list[AudioClip],
    bank: dict[str, list[AudioClip]],
    cfg: ExperimentConfig,
    n_pos: int,
    n_neg: int,
    window_s: float = 2.0,
) -> list[MixedSample]:
    """n_pos unit+noise mixtures at cfg.snr_db and n_neg pure-noise windows."""
    sample = sample_builder(units, bank, cfg, n_pos, window_s)
    return [sample(k) for k in range(n_pos + n_neg)]


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


def _require_noise_rate(sample_rate: float) -> None:
    if not sample_rate > 7200.0:
        raise SynthError(
            f"synthetic noise needs a sample_rate above 7200 Hz (chorus "
            f"units reach 3600 Hz), got {sample_rate:g} Hz")


def synth_noise(
    noise_type: str,
    duration_s: float,
    sample_rate: float = 44100.0,
    seed: int = 0,
) -> AudioClip:
    """Seeded parametric background noise of the requested character.

    clean: very quiet white noise; wind: low-pass filtered white noise;
    rain: broadband white noise; traffic: slowly FM'd harmonic stack;
    chorus: dense superposition of synthetic whale units.  Every type
    needs a sample rate above 7200 Hz, as chorus units reach 1200 x 3 Hz.
    """
    # imported here, not at module level: scipy.signal takes about a second
    # to import and no other command needs it
    from scipy import signal as sps

    if noise_type not in NOISE_TYPES:
        raise SynthError(f"unknown noise type: {noise_type}")
    _require_noise_rate(sample_rate)
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
) -> dict[str, list[AudioClip]]:
    """Fully synthetic noise bank (noise type -> clips) covering every
    supported type, its clips synthesized on the threads map_chunks chooses.

    Needs a sample rate above 7200 Hz, checked before any thread starts.
    """
    _require_noise_rate(sample_rate)
    clips = [None] * (len(NOISE_TYPES) * clips_per_type)

    def fill(indices) -> None:
        for j in indices:  # clip i of type t is item t * clips_per_type + i
            t, i = divmod(j, clips_per_type)
            clips[j] = synth_noise(NOISE_TYPES[t], duration_s, sample_rate,
                                   seed=seed * 1000 + i)

    map_chunks(fill, len(clips))
    return {nt: clips[t * clips_per_type:(t + 1) * clips_per_type]
            for t, nt in enumerate(NOISE_TYPES)}


def synth_unit_pool(
    n_units: int = 30,
    sample_rate: float = 44100.0,
    seed: int = 0,
) -> list[AudioClip]:
    """Pool of varied synthetic whale units for desk-scale runs.

    Long harmonic-rich chirps with slow vibrato: closer in texture to a
    recorded vocalization than a bare sinusoid, so they paint an extended
    ridge across a 2-s analysis window.  Every unit's parameters come from
    one RNG on the calling thread; the units are then synthesized on the
    threads map_chunks chooses.  Start frequencies are drawn from 200 Hz
    up to 0.15 x sample_rate, so the rate must exceed 1333.3 Hz.
    """
    f_top = min(1000.0, 0.45 * sample_rate / 3.0)
    if not f_top > 200.0:
        raise SynthError(
            f"the synthetic unit pool needs a sample_rate above 1333.3 Hz "
            f"(units start between 200 Hz and 0.15 x sample_rate), got "
            f"{sample_rate:g} Hz")
    rng = np.random.default_rng([97, seed])
    params = []
    for _ in range(n_units):
        dur = rng.uniform(1.5, 3.5)
        f0 = rng.uniform(200.0, f_top)
        f1 = min(f0 * rng.uniform(1.3, 3.0), 0.2 * sample_rate)
        if rng.random() < 0.5:
            f0, f1 = f1, f0
        params.append((dur, f0, f1, rng.uniform(2.0, 6.0)))
    units = [None] * n_units

    def fill(indices) -> None:
        for i in indices:
            dur, f0, f1, vibrato_hz = params[i]
            units[i] = synth_whale_unit(
                dur, f0, f1, amp=1.0, sample_rate=sample_rate,
                harmonics=(1.0, 0.5, 0.25),
                vibrato_hz=vibrato_hz, vibrato_depth=0.02,
            )

    map_chunks(fill, n_units)
    return units


MANIFEST_FIELDS = (
    "sample_id", "label", "unit_file", "noise_type", "noise_file",
    "offset_samples", "requested_snr_db", "achieved_snr_db", "seed",
)


def load_noise_bank(root, sample_rate: float) -> dict[str, list[AudioClip]]:
    """Read bank/<noise_type>/*.wav, every file at sample_rate Hz, into a
    noise bank (noise type -> clips)."""
    root = Path(root)
    if not root.is_dir():
        raise SynthError(f"noise bank directory not found: {root}")
    bank = {}
    for nt_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        clips = [load_wav(p, sample_rate)
                 for p in sorted(nt_dir.glob("*.wav"))]
        if clips:
            bank[nt_dir.name] = clips
    return bank


def write_dataset(samples: list[MixedSample], out_dir, seed: int) -> Path:
    """Write sample WAVs plus a manifest CSV; returns the manifest path.
    The sample_<k>.wav files that the manifest does not list are deleted,
    and no other file is touched."""
    out_dir = Path(out_dir)
    make_dir(out_dir)
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for k, s in enumerate(samples):
            wav_name = f"sample_{k:05d}.wav"
            save_wav(out_dir / wav_name, s.audio)
            writer.writerow([
                wav_name, s.label, s.unit_id, s.noise_type, s.noise_id,
                s.offset_samples,
                "" if math.isnan(s.requested_snr_db) else f"{s.requested_snr_db:.6f}",
                "" if math.isnan(s.achieved_snr_db) else f"{s.achieved_snr_db:.9f}",
                seed,
            ])
    # the sample WAVs of an earlier, larger dataset written here
    for path in out_dir.glob("sample_*.wav"):
        k = path.name[len("sample_"):-len(".wav")]
        if (k.isdecimal() and path.name == f"sample_{int(k):05d}.wav"
                and int(k) >= len(samples) and not path.is_dir()):
            path.unlink()
    return manifest


def dataset_loader(out_dir, sample_rate: float
                   ) -> tuple[Callable[[int], AudioClip], np.ndarray]:
    """A written dataset directory's labels, and the function that loads
    sample i's WAV, which must be at sample_rate Hz.

    The manifest is parsed and every row's sample_id and integer label
    checked here, before any WAV is read; the WAVs are read one at a time,
    by the thread that asks for one, and a WAV that cannot be read raises
    load_wav's AudioError, which names the file.
    """
    out_dir = Path(out_dir)
    manifest = out_dir / "manifest.csv"
    if not manifest.is_file():
        raise SynthError(f"dataset manifest not found: {manifest}")
    try:
        with open(manifest, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SynthError(f"{manifest}: unreadable manifest: {exc}") from None
    try:
        paths = [out_dir / row["sample_id"] for row in rows]
        labels = np.asarray([int(row["label"]) for row in rows],
                            dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise SynthError(f"{manifest}: every row needs a sample_id "
                         "and an integer label") from None

    def load(i: int) -> AudioClip:
        return load_wav(paths[i], sample_rate)

    return load, labels
