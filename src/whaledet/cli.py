"""Command-line front end: synth, featurize, train, predict, evaluate, sweep.

Every command is deterministic given its config and seed; each output
directory gets a run_config.txt manifest embedding the exact configuration.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import svm as svm_mod
from .audio import AudioError, frame_windows, load_wav
from .cnn import NetworkError, load_network, tiny_vgg
from .features import (
    FEATURE_MODES,
    FeatureError,
    featurize_clips,
    load_features,
    load_labels,
    save_features,
    save_labels,
)
from .spectrogram import SpectrogramError, StftParams
from .svm import LabeledSet, SvmError
from .synth import (
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


class UsageError(Exception):
    pass


@dataclass
class PipelineConfig:
    sample_rate: float = 44100.0
    window_s: float = 2.0
    segment_len: int = 1024
    hop: int = 512
    fft_size: int = 2048
    window_fn: str = "hamming"
    image_size: int = 256
    features: str = "cnn"
    network: str = ""  # empty -> built-in tiny-vgg
    c_param: float = 1.0
    svm_tol: float = 1e-4
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
    feature_scaling: bool = True
    seed: int = 0
    jobs: int = 1

    def stft_params(self) -> StftParams:
        return StftParams(segment_len=self.segment_len, hop=self.hop,
                          fft_size=self.fft_size, window_fn=self.window_fn)

    def experiment_list(self) -> list[str]:
        return [e.strip() for e in self.experiments.split(",") if e.strip()]

    def snr_list(self) -> list[float]:
        try:
            return [float(s) for s in self.snr_values.split(",") if s.strip()]
        except ValueError:
            raise UsageError(
                f"snr_values expects comma-separated numbers, "
                f"got '{self.snr_values}'") from None

    def to_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        cfg = cls()
        types = {f.name: type(getattr(cfg, f.name)) for f in fields(cls)}
        overrides = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in types:
                    raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
                if types[key] is bool:
                    if value.lower() not in ("true", "false", "0", "1"):
                        raise UsageError(
                            f"{path}:{lineno}: '{key}' expects true/false")
                    overrides[key] = value.lower() in ("true", "1")
                else:
                    try:
                        overrides[key] = types[key](value)
                    except ValueError:
                        raise UsageError(
                            f"{path}:{lineno}: '{key}' expects "
                            f"{types[key].__name__}, got '{value}'") from None
        return replace(cfg, **overrides)


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for key in ("seed", "features", "network", "jobs", "n_iter", "n_train",
                "n_test", "n_pos", "n_neg", "c_param"):
        value = getattr(args, key, None)
        if value is not None:
            cfg = replace(cfg, **{key: value})
    if getattr(args, "snr", None) is not None:
        cfg = replace(cfg, snr_values=",".join(str(s) for s in args.snr))
    if getattr(args, "experiment", None):
        cfg = replace(cfg, experiments=",".join(args.experiment))
    if cfg.features not in FEATURE_MODES:
        raise UsageError(f"--features must be one of {FEATURE_MODES}")
    return cfg


def _write_run_config(out_dir: Path, cfg: PipelineConfig, command: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run_config.txt", "w") as fh:
        fh.write(f"command={command}\n")
        for line in cfg.to_lines():
            fh.write(line + "\n")


def _get_network(cfg: PipelineConfig):
    if cfg.features != "cnn":
        return None
    if cfg.network:
        return load_network(cfg.network)
    return tiny_vgg(seed=0, in_size=cfg.image_size)


def _make_featurizer(cfg: PipelineConfig):
    network = _get_network(cfg)
    params = cfg.stft_params()

    def featurize(clips):
        if cfg.jobs > 1 and len(clips) > 1:
            chunks = np.array_split(np.arange(len(clips)), cfg.jobs)
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                parts = list(pool.map(
                    lambda idx: featurize_clips(
                        [clips[i] for i in idx], mode=cfg.features,
                        network=network, params=params,
                        width=cfg.image_size, height=cfg.image_size),
                    [c for c in chunks if len(c)],
                ))
            return np.vstack(parts)
        return featurize_clips(clips, mode=cfg.features, network=network,
                               params=params, width=cfg.image_size,
                               height=cfg.image_size)

    return featurize


def _load_units(cfg: PipelineConfig, units_dir: str | None):
    if units_dir:
        paths = sorted(Path(units_dir).glob("*.wav"))
        if not paths:
            raise SynthError(f"no unit WAV files found in {units_dir}")
        return [load_wav(p) for p in paths]
    return synth_unit_pool(n_units=cfg.n_units, sample_rate=cfg.sample_rate,
                           seed=cfg.seed)


def _load_bank(cfg: PipelineConfig, bank_dir: str | None):
    window_len = int(round(cfg.window_s * cfg.sample_rate))
    if bank_dir:
        return load_noise_bank(bank_dir, window_len=window_len)
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
    X = _make_featurizer(cfg)(clips)
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
    model = svm_mod.train(LabeledSet(X, y), c_param=cfg.c_param,
                          tol=cfg.svm_tol, max_iter=cfg.svm_max_iter,
                          seed=cfg.seed)
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
        LabeledSet(X, y), n_iter=cfg.n_iter, n_train=cfg.n_train,
        n_test=cfg.n_test, seed=cfg.seed, c_param=cfg.c_param,
        max_iter=cfg.svm_max_iter, standardize=cfg.feature_scaling,
    )
    cell = ev.SweepCell.from_result("-", float("nan"), result)
    with open(args.out, "w") as fh:
        fh.write(",".join(ev.SWEEP_CSV_FIELDS) + "\n")
        # one pool has no SNR; " -" keeps the row's established "-, -" prefix
        fh.write(",".join(ev.sweep_row(cell, snr_text=" -")) + "\n")
    print(f"correct_recognition={cell.mean_correct_recognition:.4f} "
          f"false_alarm={cell.mean_false_alarm:.4f} -> {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    units = _load_units(cfg, args.units)
    bank = _load_bank(cfg, args.bank)
    result = ev.snr_sweep(
        units, bank, _make_featurizer(cfg),
        experiments=cfg.experiment_list(), snr_values=cfg.snr_list(),
        n_pos=cfg.n_pos, n_neg=cfg.n_neg, n_iter=cfg.n_iter,
        n_train=cfg.n_train, n_test=cfg.n_test, seed=cfg.seed,
        window_s=cfg.window_s, c_param=cfg.c_param,
        svm_max_iter=cfg.svm_max_iter, standardize=cfg.feature_scaling,
    )
    out_dir = Path(args.out)
    _write_run_config(out_dir, cfg, "sweep")
    ev.write_sweep_csv(result, out_dir / "sweep_results.csv")
    ev.write_confusion_csv(result, out_dir / "confusion_matrices.csv")
    print(f"wrote {len(result.cells)} sweep cells to {out_dir}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whaledet",
        description="Whale sound-unit detection pipeline and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build an SNR-controlled dataset")
    _add_common(p)
    p.add_argument("--experiment", action="append",
                   help="experiment id E1..E6")
    p.add_argument("--snr", type=float, action="append",
                   help="target SNR in dB")
    p.add_argument("--units", help="directory of sound-unit WAV files")
    p.add_argument("--bank", help="noise bank directory bank/<type>/*.wav")
    p.add_argument("--n-pos", dest="n_pos", type=int, default=None)
    p.add_argument("--n-neg", dest="n_neg", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="dataset -> feature file")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True,
                   help="dataset directory (manifest) or a single WAV")
    p.add_argument("--features", choices=FEATURE_MODES, default=None)
    p.add_argument("--network", default=None, help="CNNW weight file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train the linear SVM")
    _add_common(p)
    p.add_argument("--features", dest="feature_file", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--c", dest="c_param", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify feature rows")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", dest="feature_file", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="Monte-Carlo evaluation of features")
    _add_common(p)
    p.add_argument("--features", dest="feature_file", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--n-iter", dest="n_iter", type=int, default=None)
    p.add_argument("--n-train", dest="n_train", type=int, default=None)
    p.add_argument("--n-test", dest="n_test", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="full experiment x SNR grid")
    _add_common(p)
    p.add_argument("--experiment", action="append")
    p.add_argument("--snr", type=float, action="append")
    p.add_argument("--units", help="directory of sound-unit WAV files")
    p.add_argument("--bank", help="noise bank directory")
    p.add_argument("--features", choices=FEATURE_MODES, default=None)
    p.add_argument("--network", default=None)
    p.add_argument("--n-pos", dest="n_pos", type=int, default=None)
    p.add_argument("--n-neg", dest="n_neg", type=int, default=None)
    p.add_argument("--n-iter", dest="n_iter", type=int, default=None)
    p.add_argument("--n-train", dest="n_train", type=int, default=None)
    p.add_argument("--n-test", dest="n_test", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

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


if __name__ == "__main__":
    sys.exit(main())
