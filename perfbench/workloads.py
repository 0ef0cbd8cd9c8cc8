"""The benchmark workloads: inputs from a seed, one operation, checks.

Every operation drives ``whaledet.cli.main`` in-process.  The program only
sees files that ``setup`` writes: WAV recordings, a dataset manifest, a
CNNW network, feature files and flat config files.

Inputs are drawn from ``seed % N_INPUT_SETS`` so that every run has a
reference output, recorded from the seed commit by ``record_refs.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from pathlib import Path

import numpy as np

N_INPUT_SETS = 10
REFS = Path(__file__).resolve().parent / "refs"

CODE_TOL = 1e-5  # CNN codes, absolute
DECISION_TOL = 1e-4  # SVM margin, absolute; predictions may flip inside it
RATE_TOL = 0.01  # correct recognition and false alarm, absolute

SAMPLE_RATE = 44100.0


class CheckError(Exception):
    """An operation's output is missing, malformed or off its reference."""


def run_cli(argv: list[str]) -> None:
    """whaledet.cli.main in-process; its own output is kept off stdout."""
    from whaledet import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckError(f"whaledet {argv[0]} exited {code}: "
                         f"{sink.getvalue().strip()[-300:]}")


def _write_config(path: Path, **values) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))


def _units_and_bank(seed: int):
    from whaledet import synth

    units = synth.synth_unit_pool(n_units=30, sample_rate=SAMPLE_RATE,
                                  seed=seed)
    bank = synth.synth_noise_bank(duration_s=10.0, clips_per_type=2,
                                  sample_rate=SAMPLE_RATE, seed=seed)
    return units, bank


def _experiment(units, bank, exp: str, snr_db: float, seed: int,
                n_pos: int, n_neg: int):
    from whaledet import synth

    cfg = synth.ExperimentConfig(experiment_id=exp, snr_db=snr_db, seed=seed)
    return synth.build_experiment(units, bank, cfg, n_pos, n_neg)


def _save_network(path: Path) -> Path:
    from whaledet import cnn

    cnn.save_network(cnn.tiny_vgg(seed=0, in_size=256), path)
    return path


def _read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckError(f"empty output {path.name}")
    return rows


def _num(row: dict, key: str, where: str) -> float:
    try:
        value = float(row[key])
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"{where}: malformed field {key!r}") from None
    if not np.isfinite(value):
        raise CheckError(f"{where}: non-finite {key}")
    return value


def _close(got: float, want: float, tol: float, what: str) -> None:
    if abs(got - want) > tol:
        raise CheckError(f"{what} {got:.6f} differs from reference "
                         f"{want:.6f} by more than {tol}")


def _read_feat(path: Path) -> np.ndarray:
    """Feature file (u32 rows, u32 dim, float32 payload), read independently
    of the program's own reader."""
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    raw = path.read_bytes()
    if len(raw) < 8:
        raise CheckError(f"{path.name}: truncated header")
    n, dim = np.frombuffer(raw[:8], dtype="<u4")
    if len(raw) != 8 + 4 * int(n) * int(dim):
        raise CheckError(f"{path.name}: payload size does not match header")
    return np.frombuffer(raw[8:], dtype="<f4").reshape(int(n), int(dim))


def _rates(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    pos, neg = truth == 1, truth == 0
    return float(pred[pos].mean()), float(pred[neg].mean())


def _clear(*paths: Path) -> None:
    for p in paths:
        if p.is_dir():
            shutil.rmtree(p)
        elif p.exists():
            p.unlink()


class Workload:
    """Inputs, one repeatable operation and its output check."""

    name = ""

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def run(self, k: int) -> dict:
        """Operation k; returns its work counts (windows, folds)."""
        raise NotImplementedError

    def check(self, k: int, ref: Path) -> dict:
        """Raises CheckError on a bad output; returns quality figures."""
        raise NotImplementedError

    def reference_files(self, k: int) -> dict[str, Path]:
        """Output files of operation k, by reference file name."""
        raise NotImplementedError

    def distinct_ops(self) -> int:
        return 1


class ScanCnn(Workload):
    """featurize --features cnn, then predict, over long recordings."""

    name = "scan_cnn"
    n_recordings = 3
    windows_per_recording = 60  # 2 minutes of audio
    units_per_recording = 15
    snrs = (-5.0, 0.0, 5.0)
    n_train_pos = n_train_neg = 30

    def setup(self, work, seed):
        from whaledet import audio, synth

        self.work = work
        units, bank = _units_and_bank(seed)
        net = _save_network(work / "net.cnnw")
        train = _experiment(units, bank, "E6", 0.0, 1000 * seed + 99,
                            self.n_train_pos, self.n_train_neg)
        synth.write_dataset(train, work / "train", seed=seed)
        run_cli(["featurize", "--in", work / "train", "--features", "cnn",
                 "--network", net, "--out", work / "train.feat"])
        run_cli(["train", "--features", work / "train.feat", "--labels",
                 work / "train.labels.csv", "--seed", seed,
                 "--out", work / "model.txt"])
        self.truth = []
        for r in range(self.n_recordings):
            n_pos = self.units_per_recording
            samples = _experiment(units, bank, "E6", self.snrs[r],
                                  1000 * seed + r, n_pos,
                                  self.windows_per_recording - n_pos)
            order = np.random.default_rng([seed, r]).permutation(len(samples))
            signal = np.concatenate([samples[i].audio.samples for i in order])
            audio.save_wav(work / f"rec{r}.wav",
                           audio.AudioClip(signal, SAMPLE_RATE))
            self.truth.append(np.array([samples[i].label for i in order]))

    def _outputs(self, k):
        r = k % self.n_recordings
        return r, self.work / f"rec{r}.feat", self.work / f"rec{r}.pred.csv"

    def run(self, k):
        r, feat, pred = self._outputs(k)
        _clear(feat, pred, feat.with_suffix(".labels.csv"))
        run_cli(["featurize", "--in", self.work / f"rec{r}.wav",
                 "--features", "cnn", "--network", self.work / "net.cnnw",
                 "--out", feat])
        run_cli(["predict", "--model", self.work / "model.txt",
                 "--features", feat, "--out", pred])
        return {"windows": self.windows_per_recording, "folds": 0}

    def distinct_ops(self):
        return self.n_recordings

    def reference_files(self, k):
        r, feat, pred = self._outputs(k)
        return {f"rec{r}.feat": feat, f"rec{r}.pred.csv": pred}

    def check(self, k, ref):
        r, feat, pred = self._outputs(k)
        codes = _read_feat(feat).astype(np.float64)
        want_codes = _read_feat(ref / f"rec{r}.feat").astype(np.float64)
        if codes.shape != want_codes.shape:
            raise CheckError(f"rec{r}.feat shape {codes.shape}, "
                             f"reference {want_codes.shape}")
        diff = float(np.max(np.abs(codes - want_codes)))
        if not diff <= CODE_TOL:
            raise CheckError(f"rec{r} CNN codes off by {diff:.3g}")
        got = self._predictions(pred)
        want = self._predictions(ref / f"rec{r}.pred.csv")
        if len(got) != len(want):
            raise CheckError(f"rec{r}: {len(got)} predictions, "
                             f"reference {len(want)}")
        d_err = np.abs(got[:, 1] - want[:, 1])
        if not np.all(d_err <= DECISION_TOL):
            raise CheckError(f"rec{r}: decision values off by "
                             f"{float(np.max(d_err)):.3g}")
        flips = (got[:, 0] != want[:, 0]) & (np.abs(want[:, 1]) > DECISION_TOL)
        if flips.any():
            raise CheckError(f"rec{r}: {int(flips.sum())} predictions "
                             "differ from the reference")
        truth = self.truth[r]
        cr, fa = _rates(got[:, 0], truth)
        want_cr, want_fa = _rates(want[:, 0], truth)
        _close(cr, want_cr, RATE_TOL, f"rec{r} correct recognition")
        _close(fa, want_fa, RATE_TOL, f"rec{r} false alarm")
        return {"correct_recognition": cr, "false_alarm": fa}

    @staticmethod
    def _predictions(path: Path) -> np.ndarray:
        rows = _read_csv(path)
        out = np.empty((len(rows), 2))
        for i, row in enumerate(rows):
            where = f"{path.name} row {i}"
            if _num(row, "sample_index", where) != i:
                raise CheckError(f"{where}: sample_index out of order")
            out[i] = (_num(row, "prediction", where),
                      _num(row, "decision_value", where))
            if out[i, 0] not in (0.0, 1.0):
                raise CheckError(f"{where}: prediction is not 0 or 1")
        return out


def _check_eval_rows(got_rows, want_rows, name):
    if len(got_rows) != len(want_rows):
        raise CheckError(f"{name}: {len(got_rows)} rows, "
                         f"reference {len(want_rows)}")
    cr, fa = [], []
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        where = f"{name} row {i}"
        for key in ("experiment_id", "snr_db", "n_iter"):
            if got.get(key) != want[key]:
                raise CheckError(f"{where}: {key} {got.get(key)!r}, "
                                 f"reference {want[key]!r}")
        for key in ("mean_correct_recognition", "mean_false_alarm"):
            _close(_num(got, key, where), _num(want, key, where), RATE_TOL,
                   f"{where} {key}")
        for key in ("std_correct_recognition", "std_false_alarm", "mean_tp",
                    "mean_fp", "mean_fn", "mean_tn"):
            _num(got, key, where)
        cr.append(_num(got, "mean_correct_recognition", where))
        fa.append(_num(got, "mean_false_alarm", where))
    return {"correct_recognition": float(np.mean(cr)),
            "false_alarm": float(np.mean(fa))}


class McSpectrogram(Workload):
    """evaluate on a 65 536-dimensional raw-spectrogram feature file."""

    name = "mc_spectrogram"
    snrs = (-10.0, -5.0, 0.0, 5.0, 10.0)
    per_class_per_snr = 16  # pool of 160 windows, 42 MB of float32
    # The epoch cap holds every fold at the same number of coordinate
    # steps, so the run times the solver rather than convergence luck.
    config = {"n_iter": 8, "n_train": 100, "n_test": 60, "svm_max_iter": 25}

    def setup(self, work, seed):
        from whaledet import synth

        self.work = work
        units, bank = _units_and_bank(seed)
        samples = []
        for j, snr in enumerate(self.snrs):
            samples += _experiment(units, bank, "E6", snr, 1000 * seed + j,
                                   self.per_class_per_snr,
                                   self.per_class_per_snr)
        self.n_windows = len(samples)
        synth.write_dataset(samples, work / "pool", seed=seed)
        run_cli(["featurize", "--in", work / "pool", "--features",
                 "spectrogram", "--out", work / "pool.feat"])
        _write_config(work / "mc.cfg", features="spectrogram", seed=seed,
                      **self.config)

    def run(self, k):
        out = self.work / "eval.csv"
        _clear(out)
        run_cli(["evaluate", "--config", self.work / "mc.cfg", "--features",
                 self.work / "pool.feat", "--labels",
                 self.work / "pool.labels.csv", "--out", out])
        return {"windows": self.n_windows, "folds": self.config["n_iter"]}

    def reference_files(self, k):
        return {"eval.csv": self.work / "eval.csv"}

    def check(self, k, ref):
        got = _read_csv(self.work / "eval.csv")
        want = _read_csv(ref / "eval.csv")
        return _check_eval_rows(got, want, "eval.csv")


WORKLOADS = {w.name: w for w in (ScanCnn, McSpectrogram)}


def ref_dir(workload: str, input_seed: int) -> Path:
    """Where the reference outputs of one input set live."""
    return REFS / workload / f"seed{input_seed:02d}"
