"""Command-line front end: synth, featurize, train, predict, evaluate, sweep.

Every command is deterministic given its config and seed; synth and sweep
write a run_config.txt manifest embedding the exact configuration, which
--config reads back.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure or
out of memory.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import svm as svm_mod
from .audio import (
    AudioError,
    SampleRateMismatchError,
    frame_windows,
    load_wav,
)
from .cnn import NetworkError, load_network, tiny_vgg
from .features import (
    FeatureError,
    featurize_clips,
    load_features,
    load_labels,
    save_features,
    save_labels,
)
from .spectrogram import SpectrogramError, StftParams
from .svm import SvmError
from .synth import (
    EXPERIMENT_NOISE_TYPES,
    ExperimentConfig,
    SynthError,
    build_experiment,
    load_noise_bank,
    read_dataset,
    synth_noise_bank,
    synth_unit_pool,
    write_dataset,
)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

FEATURE_MODES = ("cnn", "spectrogram")


class UsageError(Exception):
    pass


@dataclass
class PipelineConfig:
    sample_rate: float = 44100.0
    window_s: float = 2.0
    segment_len: int = 1024
    hop: int = 512
    fft_size: int = 2048
    image_size: int = 256
    features: str = "cnn"
    network: str = ""  # empty -> built-in tiny-vgg
    c_param: float = 1.0
    svm_max_iter: int = 1000
    experiments: str = "E1,E2,E3,E4,E5,E6"
    snr_values: str = "-10,-5,0,5,10"
    n_pos: int = 150
    n_neg: int = 150
    n_iter: int = 100
    n_train: int = 300
    n_test: int = 200
    n_units: int = 30
    bank_clip_s: float = 20.0
    bank_clips_per_type: int = 2
    seed: int = 0

    def stft_params(self) -> StftParams:
        return StftParams(segment_len=self.segment_len, hop=self.hop,
                          fft_size=self.fft_size)

    def experiment_list(self) -> list[str]:
        ids = [e.strip() for e in self.experiments.split(",") if e.strip()]
        if not ids or not set(ids) <= EXPERIMENT_NOISE_TYPES.keys():
            raise UsageError(f"experiments expects comma-separated ids "
                             f"E1..E6, got '{self.experiments}'")
        if len(set(ids)) != len(ids):
            raise UsageError(f"experiments repeats an id: '{self.experiments}'")
        return ids

    def snr_list(self) -> list[float]:
        try:
            snrs = [float(s) for s in self.snr_values.split(",") if s.strip()]
        except ValueError:
            snrs = [math.nan]  # reported with the non-finite values below
        if not snrs or not all(map(math.isfinite, snrs)):
            raise UsageError(
                f"snr_values expects comma-separated finite numbers, "
                f"got '{self.snr_values}'")
        # SNRs that print alike to 0.1 dB (0 and 0.0, -0.04 and 0.04, 0.05
        # and 0.15) would be one key of the sweep CSVs
        printed = {float(f"{s:.1f}") for s in snrs}
        if len(printed) != len(snrs):
            raise UsageError(f"snr_values repeats a value to 0.1 dB: "
                             f"'{self.snr_values}'")
        return snrs

    def to_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        cfg = cls()
        types = {f.name: type(getattr(cfg, f.name)) for f in fields(cls)}
        overrides = {}
        with open(path) as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise UsageError(f"{path}: not a text file: {exc}") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
            try:
                overrides[key] = types[key](value)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: '{key}' expects "
                    f"{types[key].__name__}, got '{value}'") from None
        return replace(cfg, **overrides)


# settings that size, count or weigh something; 0 or less has no meaning
_POSITIVE_SETTINGS = ("segment_len", "hop", "fft_size", "window_s",
                      "image_size", "n_iter", "n_train", "n_test",
                      "sample_rate", "c_param", "svm_max_iter", "n_units",
                      "bank_clip_s", "bank_clips_per_type")


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    # a flag whose dest is a config key overrides it when given
    keys = {f.name for f in fields(cfg)}
    cfg = replace(cfg, **{key: value for key, value in vars(args).items()
                          if key in keys and value is not None})
    if getattr(args, "snr", None) is not None:
        cfg = replace(cfg, snr_values=",".join(str(s) for s in args.snr))
    if getattr(args, "experiment", None):
        cfg = replace(cfg, experiments=",".join(args.experiment))
    if cfg.features not in FEATURE_MODES:
        raise UsageError(f"--features must be one of {FEATURE_MODES}")
    for key in _POSITIVE_SETTINGS:
        value = getattr(cfg, key)
        if not 0 < value < math.inf:
            raise UsageError(f"{key} must be finite and > 0, got {value}")
    for key in ("n_pos", "n_neg", "seed"):  # 0 is a valid count and seed
        if getattr(cfg, key) < 0:
            raise UsageError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    return cfg


def _write_run_config(out_dir: Path, cfg: PipelineConfig, command: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run_config.txt", "w") as fh:
        fh.write(f"# command={command}\n")
        for line in cfg.to_lines():
            fh.write(line + "\n")


def _make_featurizer(cfg: PipelineConfig):
    network = None
    if cfg.features == "cnn":
        network = (load_network(cfg.network) if cfg.network
                   else tiny_vgg(seed=0, in_size=cfg.image_size))
    return functools.partial(featurize_clips, network=network,
                             params=cfg.stft_params(), size=cfg.image_size)


def _require_sample_rate(cfg: PipelineConfig, clips, source) -> None:
    """Raise SampleRateMismatchError for a clip not at cfg.sample_rate."""
    rates = {c.sample_rate_hz for c in clips} - {cfg.sample_rate}
    if rates:
        raise SampleRateMismatchError(
            f"{source}: audio at {', '.join(f'{r:g}' for r in sorted(rates))} Hz, "
            f"config sample_rate is {cfg.sample_rate:g} Hz"
        )


def _load_units(cfg: PipelineConfig, units_dir: str | None):
    if units_dir:
        paths = sorted(Path(units_dir).glob("*.wav"))
        if not paths:
            raise SynthError(f"no unit WAV files found in {units_dir}")
        units = [load_wav(p) for p in paths]
        _require_sample_rate(cfg, units, units_dir)
        return units
    return synth_unit_pool(n_units=cfg.n_units, sample_rate=cfg.sample_rate,
                           seed=cfg.seed)


def _load_bank(cfg: PipelineConfig, bank_dir: str | None):
    if bank_dir:
        bank = load_noise_bank(bank_dir)
        _require_sample_rate(
            cfg, [c for clips in bank.entries.values() for c in clips],
            bank_dir)
        # the rate is checked first, so the window below is in its samples
        bank.require(bank.entries, int(round(cfg.window_s * cfg.sample_rate)))
        return bank
    return synth_noise_bank(duration_s=cfg.bank_clip_s,
                            clips_per_type=cfg.bank_clips_per_type,
                            sample_rate=cfg.sample_rate, seed=cfg.seed)


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    experiments = cfg.experiment_list()
    snrs = cfg.snr_list()
    if len(experiments) != 1 or len(snrs) != 1:
        raise UsageError("synth needs exactly one --experiment and one --snr")
    units = _load_units(cfg, args.units)
    bank = _load_bank(cfg, args.bank)
    ecfg = ExperimentConfig(experiment_id=experiments[0], snr_db=snrs[0],
                            seed=cfg.seed)
    samples = build_experiment(units, bank, ecfg, cfg.n_pos, cfg.n_neg,
                               window_s=cfg.window_s)
    out_dir = Path(args.out)
    _write_run_config(out_dir, cfg, "synth")
    manifest = write_dataset(samples, out_dir, seed=cfg.seed)
    print(f"wrote {len(samples)} samples, manifest {manifest}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    cfg = _load_config(args)
    in_dir = Path(args.input)
    if in_dir.is_dir():
        clips, labels = read_dataset(in_dir)
    else:
        clip = load_wav(in_dir)
        clips = list(frame_windows(clip, cfg.window_s))
        labels = np.full(len(clips), -1, dtype=np.int64)
    _require_sample_rate(cfg, clips, in_dir)
    # float32 rows, as the file holds them: save_features copies nothing
    X = _make_featurizer(cfg)(clips, dtype="<f4")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_features(out, X)
    save_labels(out.with_suffix(".labels.csv"), labels)
    print(f"wrote {X.shape[0]}x{X.shape[1]} features to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    X = load_features(args.feature_file)
    y = load_labels(args.labels)
    model = svm_mod.train(X, y, c_param=cfg.c_param,
                          max_iter=cfg.svm_max_iter, seed=cfg.seed)
    svm_mod.save_model(model, args.out)
    preds = svm_mod.predict_batch(model, X)
    acc = float(np.mean(preds == y))
    print(f"trained model dim={model.dim} epochs={model.n_epochs} "
          f"train_accuracy={acc:.4f} -> {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = svm_mod.load_model(args.model)
    X = load_features(args.feature_file)
    values = svm_mod.decision_values(model, X)
    with open(args.out, "w") as fh:
        fh.write("sample_index,prediction,decision_value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{int(v > 0.0)},{v:.9f}\n")
    print(f"wrote {len(values)} predictions to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    X = load_features(args.feature_file)
    y = load_labels(args.labels)
    result = ev.run_monte_carlo(
        X, y, n_iter=cfg.n_iter, n_train=cfg.n_train, n_test=cfg.n_test,
        seed=cfg.seed, c_param=cfg.c_param, max_iter=cfg.svm_max_iter,
    )
    with open(args.out, "w") as fh:
        fh.write(",".join(ev.SWEEP_CSV_FIELDS) + "\n")
        fh.write(",".join(ev.sweep_row(result)) + "\n")
    cr, fa = result.rates()
    print(f"correct_recognition={cr.mean():.4f} "
          f"false_alarm={fa.mean():.4f} -> {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    experiments, snrs = cfg.experiment_list(), cfg.snr_list()
    if cfg.n_train + cfg.n_test > cfg.n_pos + cfg.n_neg:
        raise UsageError(
            f"n_train + n_test ({cfg.n_train} + {cfg.n_test}) exceeds the "
            f"n_pos + n_neg ({cfg.n_pos} + {cfg.n_neg}) samples of each cell")
    units = _load_units(cfg, args.units)
    bank = _load_bank(cfg, args.bank)
    featurize = _make_featurizer(cfg)
    cells = []
    for ei, exp in enumerate(experiments):
        for si, snr_db in enumerate(snrs):
            seed = int(np.random.SeedSequence([cfg.seed, ei, si])
                       .generate_state(1)[0])
            samples = build_experiment(
                units, bank, ExperimentConfig(exp, snr_db, seed),
                cfg.n_pos, cfg.n_neg, window_s=cfg.window_s)
            result = ev.run_monte_carlo(
                featurize([s.audio for s in samples]),
                [s.label for s in samples], n_iter=cfg.n_iter,
                n_train=cfg.n_train, n_test=cfg.n_test, seed=seed,
                c_param=cfg.c_param, max_iter=cfg.svm_max_iter)
            cells.append(replace(result, experiment_id=exp, snr_db=snr_db))
    out_dir = Path(args.out)
    _write_run_config(out_dir, cfg, "sweep")
    ev.write_sweep_csv(cells, out_dir / "sweep_results.csv")
    ev.write_confusion_csv(cells, out_dir / "confusion_matrices.csv")
    print(f"wrote {len(cells)} sweep cells to {out_dir}")
    return EXIT_OK


# flags shared by several commands; a flag whose dest is a PipelineConfig
# key overrides that key (see _load_config)
_FLAGS = {
    "config": {"help": "flat key=value config file"},
    "seed": {"type": int},
    "experiment": {"action": "append", "help": "experiment id E1..E6"},
    "snr": {"type": float, "action": "append", "help": "target SNR in dB"},
    "units": {"help": "directory of sound-unit WAV files"},
    "bank": {"help": "noise bank directory bank/<type>/*.wav"},
    "features": {"choices": FEATURE_MODES},
    "network": {"help": "CNNW weight file"},
    "n-pos": {"type": int},
    "n-neg": {"type": int},
    "n-iter": {"type": int},
    "n-train": {"type": int},
    "n-test": {"type": int},
    "labels": {"required": True},
    "out": {"required": True},
}


def _add_command(sub, name: str, summary: str, func, *flags: str):
    """The subcommand `name`, running func, with the named _FLAGS."""
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whaledet",
        description="Whale sound-unit detection pipeline and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "synth", "build an SNR-controlled dataset", cmd_synth,
                 "config", "seed", "experiment", "snr", "units", "bank",
                 "n-pos", "n-neg", "out")

    p = _add_command(sub, "featurize", "dataset -> feature file",
                     cmd_featurize, "config", "features", "network", "out")
    p.add_argument("--in", dest="input", required=True,
                   help="dataset directory (manifest) or a single WAV")

    p = _add_command(sub, "train", "train the linear SVM", cmd_train,
                     "config", "seed", "labels", "out")
    p.add_argument("--features", dest="feature_file", required=True)
    p.add_argument("--c", dest="c_param", type=float)

    p = _add_command(sub, "predict", "classify feature rows", cmd_predict,
                     "out")
    p.add_argument("--model", required=True)
    p.add_argument("--features", dest="feature_file", required=True)

    p = _add_command(sub, "evaluate", "Monte-Carlo evaluation of features",
                     cmd_evaluate, "config", "seed", "labels", "n-iter",
                     "n-train", "n-test", "out")
    p.add_argument("--features", dest="feature_file", required=True)

    _add_command(sub, "sweep", "full experiment x SNR grid", cmd_sweep,
                 "config", "seed", "experiment", "snr", "units", "bank",
                 "features", "network", "n-pos", "n-neg", "n-iter",
                 "n-train", "n-test", "out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AudioError, SynthError, FeatureError, NetworkError,
            SpectrogramError, SvmError, ev.EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
