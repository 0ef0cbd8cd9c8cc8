import csv
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.io import wavfile

from whaledet import evaluate as ev
from whaledet import parallel
from whaledet.cli import PipelineConfig, main
from whaledet.cnn import FcLayer, save_network, tiny_vgg
from whaledet.features import (
    FeatureError,
    load_features,
    load_labels,
    save_features,
    save_labels,
)
from whaledet.svm import SvmModel, save_model

# small geometry keeps CLI runs fast while exercising every code path
FAST = [
    "sample_rate=8000", "segment_len=512", "hop=256", "fft_size=512",
    "image_size=32", "n_units=4", "bank_clip_s=6.0", "bank_clips_per_type=1",
]

# a one-cell sweep grid small enough for FAST
SMALL_SWEEP = ["experiments=E1", "snr_values=0", "n_pos=4", "n_neg=4",
               "n_iter=1", "n_train=4", "n_test=4", "svm_max_iter=20"]


def _cfg(tmp_path, extra=()):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(FAST + list(extra)) + "\n")
    return str(path)


def _read_manifest(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_synth_command_manifest_snr(tmp_path):
    cfg = _cfg(tmp_path, ["n_pos=4", "n_neg=4"])
    out = tmp_path / "ds"
    rc = main(["synth", "--config", cfg, "--experiment", "E6", "--snr", "0",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    rows = _read_manifest(out / "manifest.csv")
    assert len(rows) == 8
    for row in rows:
        if row["label"] == "1":
            assert abs(float(row["achieved_snr_db"])) <= 0.01
    assert (out / "run_config.txt").read_text().startswith("# command=synth")


def test_synth_missing_bank_names_path(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    rc = main(["synth", "--config", cfg, "--experiment", "E1", "--snr", "0",
               "--bank", str(tmp_path / "no_bank"), "--out",
               str(tmp_path / "ds")])
    assert rc == 2
    assert "no_bank" in capsys.readouterr().err


def test_synth_rerun_identical_manifest(tmp_path):
    cfg = _cfg(tmp_path, ["n_pos=3", "n_neg=3"])
    sums = []
    for d in ("d1", "d2"):
        out = tmp_path / d
        assert main(["synth", "--config", cfg, "--experiment", "E2",
                     "--snr", "-5", "--seed", "3", "--out", str(out)]) == 0
        sums.append(hashlib.sha256((out / "manifest.csv").read_bytes()).hexdigest())
    assert sums[0] == sums[1]


def test_synth_reruns_from_its_run_config(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["synth", "--config", _cfg(tmp_path, ["n_pos=3", "n_neg=3"]),
                 "--experiment", "E4", "--snr", "5", "--seed", "8",
                 "--out", str(first)]) == 0
    assert main(["synth", "--config", str(first / "run_config.txt"),
                 "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert "run_config.txt" in names and "manifest.csv" in names
    assert len(names) == 2 + 3 + 3  # and one WAV per sample
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.fixture()
def small_dataset(tmp_path):
    cfg = _cfg(tmp_path, ["n_pos=5", "n_neg=5"])
    out = tmp_path / "ds"
    assert main(["synth", "--config", cfg, "--experiment", "E1", "--snr", "10",
                 "--seed", "1", "--out", str(out)]) == 0
    return cfg, out


def test_featurize_cnn_dims(tmp_path, small_dataset):
    cfg, ds = small_dataset
    net_path = tmp_path / "net.cnnw"
    save_network(tiny_vgg(seed=0, in_size=32), net_path)
    feat = tmp_path / "f.feat"
    rc = main(["featurize", "--config", cfg, "--in", str(ds),
               "--network", str(net_path), "--out", str(feat)])
    assert rc == 0
    X = load_features(feat)
    assert X.shape == (10, 64)
    y = load_labels(feat.with_suffix(".labels.csv"))
    assert y.tolist() == [1] * 5 + [0] * 5


def test_featurize_spectrogram_dims(tmp_path, small_dataset):
    cfg, ds = small_dataset
    feat = tmp_path / "s.feat"
    rc = main(["featurize", "--config", cfg, "--in", str(ds),
               "--features", "spectrogram", "--out", str(feat)])
    assert rc == 0
    assert load_features(feat).shape == (10, 32 * 32)


def test_featurize_rerun_bit_identical(tmp_path, small_dataset):
    cfg, ds = small_dataset
    payloads = []
    for name in ("r1.feat", "r2.feat"):
        feat = tmp_path / name
        assert main(["featurize", "--config", cfg, "--in", str(ds),
                     "--features", "spectrogram", "--out", str(feat)]) == 0
        payloads.append(feat.read_bytes())
    assert payloads[0] == payloads[1]


def _oracle_feature_files(tmp_path, n=60):
    rng = np.random.default_rng(0)
    labels = np.array([1, 0] * (n // 2))
    X = np.repeat(labels[:, None].astype(float), 6, axis=1)
    X += 0.01 * rng.standard_normal(X.shape)
    feat = tmp_path / "oracle.feat"
    save_features(feat, X)
    save_labels(tmp_path / "oracle.labels.csv", labels)
    return feat, tmp_path / "oracle.labels.csv"


def test_train_predict_round_trip(tmp_path):
    feat, labels = _oracle_feature_files(tmp_path)
    model_path = tmp_path / "model.txt"
    assert main(["train", "--features", str(feat), "--labels", str(labels),
                 "--out", str(model_path)]) == 0
    preds_path = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model_path), "--features",
                 str(feat), "--out", str(preds_path)]) == 0
    with open(preds_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    truth = load_labels(labels)
    assert [int(r["prediction"]) for r in rows] == truth.tolist()


def test_predict_dim_mismatch_exit_code(tmp_path, capsys):
    feat, _ = _oracle_feature_files(tmp_path)
    model_path = tmp_path / "model.txt"
    save_model(SvmModel(np.zeros(3), 0.0, 1.0), model_path)
    rc = main(["predict", "--model", str(model_path), "--features", str(feat),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "6" in err and "3" in err


def test_evaluate_oracle_features(tmp_path):
    feat, labels = _oracle_feature_files(tmp_path)
    out = tmp_path / "eval.csv"
    rc = main(["evaluate", "--features", str(feat), "--labels", str(labels),
               "--n-iter", "5", "--n-train", "30", "--n-test", "20",
               "--out", str(out)])
    assert rc == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[3]) == 1.0  # mean correct recognition
    assert float(row[5]) == 0.0  # mean false alarm


def test_sweep_csv_row_count_and_determinism(tmp_path):
    cfg = _cfg(tmp_path, ["n_pos=8", "n_neg=8", "n_iter=2", "n_train=10",
                          "n_test=6", "svm_max_iter=100"])
    args = ["sweep", "--config", cfg, "--experiment", "E1", "--experiment",
            "E6", "--snr", "-10", "--snr", "10", "--features", "spectrogram",
            "--seed", "11"]
    sums = []
    for d in ("s1", "s2"):
        out = tmp_path / d
        assert main(args + ["--out", str(out)]) == 0
        lines = (out / "sweep_results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        sums.append(hashlib.sha256((out / "sweep_results.csv").read_bytes())
                    .hexdigest())
    assert sums[0] == sums[1]


def test_usage_errors_exit_1(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x")]) == 1  # no experiment
    assert main(["no-such-command"]) == 1
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("unknown_key=1\n")
    assert main(["synth", "--config", str(bad_cfg), "--experiment", "E1",
                 "--snr", "0", "--out", str(tmp_path / "y")]) == 1


def test_flags_only_on_commands_that_read_them(tmp_path, capsys):
    # predict reads no config or seed; the thread count is no setting of
    # any command, as a flag or as a config key
    feat, labels = _oracle_feature_files(tmp_path)
    model_path = tmp_path / "model.txt"
    save_model(SvmModel(np.ones(6), 0.0, 1.0), model_path)
    out = tmp_path / "out"
    assert main(["predict", "--model", str(model_path), "--features",
                 str(feat), "--seed", "1", "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    jobs_cfg = tmp_path / "jobs.cfg"
    jobs_cfg.write_text("jobs=2\n")
    for argv in (["train", "--features", str(feat), "--labels", str(labels)],
                 ["featurize", "--in", str(tmp_path)],
                 ["evaluate", "--features", str(feat), "--labels",
                  str(labels)],
                 ["sweep"]):
        assert main(argv + ["--jobs", "2", "--out", str(out)]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert main(argv + ["--config", str(jobs_cfg),
                            "--out", str(out)]) == 1
        assert "unknown config key 'jobs'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_split_larger_than_cell_is_usage_error(tmp_path, capsys):
    # the defaults draw 300 + 200 samples from cells of 150 + 150
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in ("n_train", "n_test", "n_pos", "n_neg"))
    assert not out.exists()


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nseed=9\nfeatures=spectrogram\nsnr_values=0,5\n")
    cfg = PipelineConfig.from_file(path)
    assert cfg.seed == 9
    assert cfg.features == "spectrogram"
    assert cfg.snr_list() == [0.0, 5.0]
    assert "seed=9" in cfg.to_lines()


_DEFAULT_JOBS = parallel.default_jobs


def _set_jobs(monkeypatch, jobs):
    """Run map_chunks on `jobs` threads, or for None on the default count,
    which with BLAS on one thread is one thread per usable CPU."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(parallel, "default_jobs",
                        _DEFAULT_JOBS if jobs is None else lambda: jobs)


def test_jobs_flag_does_not_change_features(tmp_path, small_dataset,
                                           monkeypatch):
    # cnn runs a conv GEMM per window inside each worker thread
    cfg, ds = small_dataset
    for features in ("spectrogram", "cnn"):
        outputs = []
        for jobs in (None, 1, 3):
            _set_jobs(monkeypatch, jobs)
            feat = tmp_path / f"{features}_j{len(outputs)}.feat"
            assert main(["featurize", "--config", cfg, "--in", str(ds),
                         "--features", features, "--out", str(feat)]) == 0
            outputs.append(feat.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], features


@pytest.mark.parametrize("dim", [6, 80], ids=["primal", "gram"])
def test_evaluate_jobs_do_not_change_output(tmp_path, monkeypatch, dim):
    # 5 folds: uneven chunks at 2 and 3 jobs, idle jobs at 8; 80-d folds of
    # 24 rows take the SVM's Gram path, 6-d ones the primal loop
    rng = np.random.default_rng(dim)
    labels = np.array([1, 0] * 20)
    X = labels[:, None] * (2.0 / np.sqrt(dim)) \
        + rng.standard_normal((len(labels), dim))
    feat = tmp_path / "noisy.feat"
    save_features(feat, X)
    save_labels(tmp_path / "noisy.labels.csv", labels)
    outputs = []
    for jobs in (None, 1, 2, 3, 8):
        _set_jobs(monkeypatch, jobs)
        out = tmp_path / f"eval{len(outputs)}.csv"
        assert main(["evaluate", "--features", str(feat), "--labels",
                     str(tmp_path / "noisy.labels.csv"), "--n-iter", "5",
                     "--n-train", "24", "--n-test", "16", "--seed", "4",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs)
    row = outputs[0].decode().splitlines()[1].split(",")
    assert float(row[4]) > 0.0  # the folds' recognition rates differ


@pytest.mark.parametrize("solver, n_train", [("gram", 24), ("primal", 48)])
def test_evaluate_matches_golden(tmp_path, solver, n_train):
    # 80 x 30 pool: 24-row folds take the SVM's Gram path (n <= d + 1),
    # 48-row folds the primal loop; see tests/data/README
    golden = Path(__file__).parent / "data" / "evaluate_golden"
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--features", str(golden / "pool.feat"),
                 "--labels", str(golden / "pool.labels.csv"), "--n-iter", "5",
                 "--n-train", str(n_train), "--n-test", "16", "--seed", "4",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (golden / f"{solver}.csv").read_bytes()


def test_save_features_writes_row_major(tmp_path):
    X = np.arange(12, dtype=np.float64).reshape(3, 4).T  # Fortran order
    assert not X.flags.c_contiguous
    feat = tmp_path / "t.feat"
    save_features(feat, X)
    assert feat.read_bytes()[8:] == X.astype("<f4").tobytes(order="C")
    assert np.array_equal(load_features(feat), X)
    X = np.random.default_rng(3).standard_normal((7, 33))  # rounds in float32
    save_features(feat, X)
    loaded = load_features(feat)
    assert loaded.dtype == np.float32 and loaded.shape == X.shape
    assert loaded.tobytes() == X.astype("<f4").tobytes()


def test_load_features_short_read_is_a_feature_error(tmp_path, monkeypatch):
    feat = tmp_path / "t.feat"
    save_features(feat, np.ones((4, 5)))
    feat.write_bytes(feat.read_bytes()[:-4])
    # a file that shrinks after its size was taken: the size check passes
    # and the read comes up short
    real_fstat = os.fstat
    monkeypatch.setattr(
        os, "fstat",
        lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 4))
    with pytest.raises(FeatureError, match="short read"):
        load_features(feat)


def _golden_wav(path):
    """6.5 s float32 chirp in noise at 44.1 kHz: three 2-s windows."""
    sr = 44100
    n = int(6.5 * sr)
    t = np.arange(n) / sr
    x = 0.3 * np.sin(2 * np.pi * (300.0 * t + 150.0 * t * t))
    x += 0.05 * np.random.default_rng(2017).standard_normal(n)
    wavfile.write(str(path), sr, x.astype(np.float32))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("features", ["cnn", "spectrogram"])
def test_featurize_matches_golden_digests(tmp_path, features):
    # default config: 44.1 kHz, 1024/512/2048 STFT, 256x256 image, tiny-vgg
    golden = Path(__file__).parent / "data" / "featurize_golden" / "SHA256SUMS"
    digests = {name: digest for digest, name in
               (line.split() for line in golden.read_text().splitlines())}
    wav = tmp_path / "golden.wav"
    _golden_wav(wav)
    assert _sha256(wav) == digests["golden.wav"]
    feat = tmp_path / f"{features}.feat"
    assert main(["featurize", "--in", str(wav), "--features", features,
                 "--out", str(feat)]) == 0
    assert _sha256(feat) == digests[f"{features}.feat"]


@pytest.mark.parametrize("kind, text, code", [
    ("config", "seed=abc\n", 1),
    ("config", "snr_values=0,loud\n", 1),
    ("labels", "sample_index,label\n0,1\n1,x\n", 2),
    ("labels", "sample_index,label\n0,1\n1\n", 2),
    ("labels", "sample_index,class\n0,1\n", 2),
    ("model", "6 1.0 zero\n" + "0.0\n" * 6, 2),
    ("model", "6 1.0 0.0\n" + "0.0\n" * 5 + "w\n", 2),
    ("model", "6 1.0 nan\n" + "0.0\n" * 6, 2),
    ("model", "6 1.0 0.0\n" + "0.0\n" * 5 + "-inf\n", 2),
    ("manifest", "sample_id,label\ns0.wav,whale\n", 2),
    ("manifest", "sample_id,label\n", 2),
    ("config", b"seed=1\n\xff\n", 1),
    ("labels", b"sample_index,label\n0,\xff\n", 2),
    ("model", b"6 1.0 0.0\n" + b"0.0\n" * 5 + b"\xff\n", 2),
    ("manifest", b"sample_id,label\ns0.wav,1\xff\n", 2),
    ("features", struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(8), 2),
    ("featurize-config", "hop=0\n", 1),
    ("featurize-config", "window_s=0\n", 1),
    ("featurize-config", "image_size=0\n", 1),
    ("featurize-config", "window_s=0.00001\n", 2),
    ("evaluate-config", "n_iter=0\nn_train=20\nn_test=10\n", 1),
    ("config", "snr_values=0\nsample_rate=0\n", 1),
    ("train-config", "c_param=nan\n", 1),
    ("train-config", "c_param=inf\n", 1),
    ("train-config", "svm_max_iter=0\n", 1),
    ("evaluate-config", "c_param=nan\nn_train=20\nn_test=10\n", 1),
    ("evaluate-config", "svm_max_iter=-1\nn_train=20\nn_test=10\n", 1),
    ("sweep-config", "sample_rate=0\n", 1),
    ("sweep-config", "c_param=inf\n", 1),
    ("sweep-config", "svm_max_iter=0\n", 1),
    ("synth-snr", "nan", 1),
    ("sweep-snr", "nan", 1),
    ("synth-snr", "inf", 1),
    ("synth-snr", "-inf", 1),
    ("synth-config", "bank_clip_s=nan\n", 1),
    ("synth-config", "n_pos=-1\n", 1),
    ("sweep-config", "n_pos=12\nn_neg=-1\n", 1),
    ("featurize-config", "segment_len=0\n", 1),
    ("featurize-config", "segment_len=-3\n", 1),
    ("featurize-config", "fft_size=0\n", 1),
    ("synth-config", "n_units=0\n", 1),
    ("synth-config", "n_units=-2\n", 1),
    ("synth-config", "bank_clips_per_type=0\n", 1),
    ("evaluate-config", "n_train=0\nn_test=10\n", 1),
    ("evaluate-config", "n_train=20\nn_test=-1\n", 1),
    ("sweep-config", "n_train=-4\n", 1),
    ("synth-config", "seed=-1\n", 1),
    ("train-config", "seed=-1\n", 1),
    ("evaluate-config", "seed=-1\nn_train=20\nn_test=10\n", 1),
    ("sweep-config", "experiments=\n", 1),
    ("sweep-config", "experiments=E1,E9\n", 1),
    ("sweep-config", "snr_values=,\n", 1),
    ("sweep-config", "experiments=E1,E1\n", 1),
    ("sweep-config", "snr_values=0,0.0\n", 1),
    ("sweep-snr", "0 0.0", 1),
    ("sweep-snr", "0.01 0.04", 1),
    ("sweep-snr", "-0.04 0.04", 1),
    ("sweep-config", "snr_values=0.05,0.15\n", 1),
], ids=["config-value", "config-snr-list", "label-not-int", "label-missing",
        "label-column-missing", "model-header", "model-weight",
        "model-header-nan", "model-weight-inf", "manifest-label",
        "manifest-empty", "config-not-utf8", "label-not-utf8",
        "model-not-ascii", "manifest-not-utf8", "features-header-overflow",
        "hop-zero", "window-zero", "image-size-zero",
        "window-under-one-sample", "n-iter-zero", "synth-sample-rate-zero",
        "train-c-nan", "train-c-inf", "train-max-iter-zero",
        "evaluate-c-nan", "evaluate-max-iter-negative",
        "sweep-sample-rate-zero", "sweep-c-inf", "sweep-max-iter-zero",
        "synth-snr-nan", "sweep-snr-nan", "synth-snr-inf",
        "synth-snr-minus-inf", "synth-bank-clip-nan", "synth-n-pos-negative",
        "sweep-n-neg-negative", "segment-len-zero", "segment-len-negative",
        "fft-size-zero", "synth-n-units-zero", "synth-n-units-negative",
        "synth-bank-clips-zero", "evaluate-n-train-zero",
        "evaluate-n-test-negative", "sweep-n-train-negative",
        "synth-seed-negative", "train-seed-negative",
        "evaluate-seed-negative", "sweep-no-experiments",
        "sweep-unknown-experiment", "sweep-no-snr",
        "sweep-repeated-experiment", "sweep-repeated-snr-value",
        "sweep-repeated-snr-flag", "sweep-snr-flags-print-alike",
        "sweep-snr-signed-zeros-print-alike",
        "sweep-snr-values-print-alike"])
def test_malformed_text_inputs_exit_codes(tmp_path, capsys, kind, text, code):
    feat, labels = _oracle_feature_files(tmp_path)
    ds = tmp_path / "ds"
    ds.mkdir()
    wavfile.write(str(ds / "s0.wav"), 8000, np.ones(16000, dtype=np.float32))
    bad = ds / "manifest.csv" if kind == "manifest" else tmp_path / "bad.txt"
    snr = []
    if kind.endswith("-snr"):  # text is the --snr values, on a sound config
        kind, snr, text = (kind[:-4] + "-config",
                           [f"--snr={v}" for v in text.split()], "")
    if kind in ("featurize-config", "synth-config", "sweep-config"):
        # the fast geometry and a one-cell grid that fits it, then the bad
        # value
        text = "\n".join(FAST + SMALL_SWEEP) + "\n" + text
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = str(tmp_path / "out")
    argv = {
        "config": ["synth", "--config", str(bad), "--experiment", "E1",
                   "--out", out],
        "labels": ["train", "--features", str(feat), "--labels", str(bad),
                   "--out", out],
        "model": ["predict", "--model", str(bad), "--features", str(feat),
                  "--out", out],
        "manifest": ["featurize", "--config", _cfg(tmp_path), "--in",
                     str(ds), "--features", "spectrogram", "--out", out],
        "features": ["train", "--features", str(bad), "--labels",
                     str(labels), "--out", out],
        "featurize-config": ["featurize", "--config", str(bad), "--in",
                             str(ds / "s0.wav"), "--features", "spectrogram",
                             "--out", out],
        "train-config": ["train", "--config", str(bad), "--features",
                         str(feat), "--labels", str(labels), "--out", out],
        "evaluate-config": ["evaluate", "--config", str(bad), "--features",
                            str(feat), "--labels", str(labels), "--out", out],
        "synth-config": ["synth", "--config", str(bad), "--out", out],
        "sweep-config": ["sweep", "--config", str(bad), "--features",
                         "spectrogram", "--out", out],
    }[kind] + snr
    try:
        rc = main(argv)
    except Exception as exc:  # the contract is an exit code, never a traceback
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert rc == code
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("size, code", [(8, 2), (13, 0), (30, 0)])
def test_builtin_network_takes_images_of_11_px_or_more(tmp_path, capsys,
                                                       size, code):
    # 13 and 30 px leave a 1x1 and a 2x2 map before the first fc layer;
    # below 11 px the map collapses to nothing
    wav = tmp_path / "clip.wav"
    wavfile.write(str(wav), 8000, np.ones(16000, dtype=np.float32))
    feat = tmp_path / "clip.feat"
    try:
        rc = main(["featurize", "--config",
                   _cfg(tmp_path, [f"image_size={size}"]), "--in", str(wav),
                   "--features", "cnn", "--out", str(feat)])
    except Exception as exc:  # the contract is an exit code, never a traceback
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert rc == code
    if code:
        assert "11 px" in capsys.readouterr().err
        assert not feat.exists()
    else:
        assert load_features(feat).shape == (1, 64)


def test_cli_import_leaves_out_scipy_signal():
    # only noise synthesis filters with scipy.signal, which takes about a
    # second to import; predict and evaluate should not pay for it
    src = Path(__file__).parent.parent / "src"
    probe = ("import sys, whaledet.cli; "
             "sys.exit('scipy.signal' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_featurize_rejects_nan_wav(tmp_path, capsys):
    samples = np.zeros(3 * 8000, dtype=np.float32)
    samples[100] = np.nan
    wav = tmp_path / "nan.wav"
    wavfile.write(str(wav), 8000, samples)
    feat = tmp_path / "nan.feat"
    rc = main(["featurize", "--config", _cfg(tmp_path), "--in", str(wav),
               "--features", "spectrogram", "--out", str(feat)])
    assert rc == 2
    assert "nan.wav" in capsys.readouterr().err
    assert not feat.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_featurize_rejects_non_finite_network(tmp_path, capsys, value):
    net = tiny_vgg(seed=0, in_size=32)
    fc = next(layer for layer in net.layers if isinstance(layer, FcLayer))
    fc.weights[0, 0] = value
    save_network(net, tmp_path / "bad.cnnw")
    wav = tmp_path / "clip.wav"
    wavfile.write(str(wav), 8000, np.ones(16000, dtype=np.float32))
    feat = tmp_path / "clip.feat"
    rc = main(["featurize", "--config", _cfg(tmp_path), "--in", str(wav),
               "--network", str(tmp_path / "bad.cnnw"), "--out", str(feat)])
    assert rc == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not feat.exists()


def _commands_on(feat, labels, model, out):
    """argv of train, evaluate and predict on one feature file."""
    return {
        "train": ["train", "--features", str(feat), "--labels", str(labels),
                  "--out", str(out)],
        "evaluate": ["evaluate", "--features", str(feat), "--labels",
                     str(labels), "--n-iter", "1", "--n-train", "20",
                     "--n-test", "10", "--out", str(out)],
        "predict": ["predict", "--model", str(model), "--features",
                    str(feat), "--out", str(out)],
    }


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_feature_rows_of_length_0_exit_2(tmp_path, capsys, command):
    # a header of 40 rows of 0 values: once trained to a "0 1.0 0.0"
    # model and scored at CR = FA = 0.5
    feat = tmp_path / "empty.feat"
    feat.write_bytes(struct.pack("<II", 40, 0))
    labels = tmp_path / "empty.labels.csv"
    save_labels(labels, [0, 1] * 20)
    model = tmp_path / "model.txt"
    model.write_text("0 1.0 0.0\n")
    out = tmp_path / "out.csv"
    argv = _commands_on(feat, labels, model, out)[command]
    assert main(argv) == 2
    assert "length 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_features_and_labels_of_different_lengths_exit_2(tmp_path, capsys,
                                                         command):
    feat, _ = _oracle_feature_files(tmp_path)  # 60 rows
    labels = tmp_path / "short.labels.csv"
    save_labels(labels, [1, 0] * 29)
    out = tmp_path / "out.csv"
    argv = _commands_on(feat, labels, tmp_path / "model.txt", out)[command]
    assert main(argv) == 2
    assert "60 feature rows vs 58 labels" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_non_finite_features(tmp_path, capsys):
    feat, _ = _oracle_feature_files(tmp_path)
    X = load_features(feat)
    X[2, 1] = np.nan
    save_features(feat, X)
    model_path = tmp_path / "model.txt"
    save_model(SvmModel(np.ones(6), 0.0, 1.0), model_path)
    out = tmp_path / "p.csv"
    rc = main(["predict", "--model", str(model_path), "--features", str(feat),
               "--out", str(out)])
    assert rc == 2
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["train", "evaluate-train-row",
                                     "evaluate-test-row", "predict"])
def test_non_finite_feature_exits_2(tmp_path, capsys, command, value):
    feat, labels = _oracle_feature_files(tmp_path)
    X = load_features(feat)
    # the one fold of evaluate --n-iter 1 --seed 0 trains on train_idx and
    # scores test_idx
    train_idx, test_idx = ev._draw_split(load_labels(labels), 30, 20,
                                         np.random.default_rng([0, 0]))
    row = test_idx[0] if command == "evaluate-test-row" else train_idx[0]
    X[row, 4] = value
    save_features(feat, X)
    model_path = tmp_path / "model.txt"
    save_model(SvmModel(np.ones(6), 0.0, 1.0), model_path)
    out = tmp_path / "out.csv"
    argv = {
        "train": ["train", "--features", str(feat), "--labels", str(labels),
                  "--out", str(out)],
        "evaluate": ["evaluate", "--features", str(feat), "--labels",
                     str(labels), "--n-iter", "1", "--n-train", "30",
                     "--n-test", "20", "--seed", "0", "--out", str(out)],
        "predict": ["predict", "--model", str(model_path), "--features",
                    str(feat), "--out", str(out)],
    }[command.split("-")[0]]
    assert main(argv) == 2
    assert "NaN or infinity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux",
                    reason="RLIMIT_AS caps allocations on Linux only")
def test_out_of_memory_exits_3_with_a_named_error(tmp_path):
    # At image_size=8192 the built-in network's fc1 holds 128 x 8192**2 / 16
    # float64 weights, 4 GiB; a 2 GiB address-space limit, set by the child
    # process on itself, turns that request into a MemoryError.
    wav = tmp_path / "golden.wav"
    _golden_wav(wav)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("image_size=8192\n")
    feat = tmp_path / "big.feat"
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from whaledet.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", child, "featurize", "--config", str(cfg),
         "--in", str(wav), "--features", "cnn", "--out", str(feat)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("out of memory: ")
    assert "Traceback" not in proc.stderr
    assert not feat.exists()


def test_featurize_rejects_sample_rate_mismatch(tmp_path, capsys,
                                                small_dataset):
    cfg, ds = small_dataset  # synthesized at the config's 8 kHz
    wav = tmp_path / "fast.wav"
    wavfile.write(str(wav), 16000, np.zeros(3 * 16000, dtype=np.float32))
    (tmp_path / "16k").mkdir()
    cfg_16k = _cfg(tmp_path / "16k", ["sample_rate=16000"])
    for source, config in ((wav, cfg), (ds, cfg_16k)):
        feat = tmp_path / "f.feat"
        rc = main(["featurize", "--config", config, "--in", str(source),
                   "--features", "spectrogram", "--out", str(feat)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sample_rate" in err and str(source) in err
        assert not feat.exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
@pytest.mark.parametrize("source", ["units", "bank"])
def test_units_and_bank_at_another_rate_exit_2(tmp_path, capsys, command,
                                               source):
    # 8 kHz WAVs under the default 44.1 kHz config; the 12-s noise clip
    # outlasts a 2-s window at either rate, so only the rate is wrong
    rng = np.random.default_rng(0)
    units, bank = tmp_path / "units", tmp_path / "bank"
    units.mkdir()
    (bank / "clean").mkdir(parents=True)
    for k in range(2):
        wavfile.write(str(units / f"u{k}.wav"), 8000,
                      (0.1 * rng.standard_normal(8000)).astype(np.float32))
    wavfile.write(str(bank / "clean" / "n0.wav"), 8000,
                  (0.1 * rng.standard_normal(12 * 8000)).astype(np.float32))
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("\n".join(["image_size=32", "features=spectrogram",
                              *SMALL_SWEEP]) + "\n")
    out = tmp_path / "out"
    sources = ["--bank", str(bank)]
    if source == "units":
        sources += ["--units", str(units)]
    rc = main([command, "--config", str(cfg), *sources, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sample_rate" in err and str(tmp_path / source) in err
    assert not (out / "run_config.txt").exists()
