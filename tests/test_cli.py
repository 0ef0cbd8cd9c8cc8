import csv
import hashlib

import numpy as np
import pytest
from scipy.io import wavfile

from whaledet.cli import PipelineConfig, main
from whaledet.cnn import save_network, tiny_vgg
from whaledet.features import load_features, load_labels, save_features, save_labels
from whaledet.svm import SvmModel, save_model

# small geometry keeps CLI runs fast while exercising every code path
FAST = [
    "sample_rate=8000", "segment_len=512", "hop=256", "fft_size=512",
    "image_size=32", "n_units=4", "bank_clip_s=6.0", "bank_clips_per_type=1",
]


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
    assert (out / "run_config.txt").read_text().startswith("command=synth")


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


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nseed=9\nfeatures=spectrogram\nsnr_values=0,5\n")
    cfg = PipelineConfig.from_file(path)
    assert cfg.seed == 9
    assert cfg.features == "spectrogram"
    assert cfg.snr_list() == [0.0, 5.0]
    assert "seed=9" in cfg.to_lines()


def test_jobs_flag_does_not_change_features(tmp_path, small_dataset):
    cfg, ds = small_dataset
    outputs = []
    for jobs in ("1", "3"):
        feat = tmp_path / f"j{jobs}.feat"
        assert main(["featurize", "--config", cfg, "--in", str(ds),
                     "--features", "spectrogram", "--jobs", jobs,
                     "--out", str(feat)]) == 0
        outputs.append(feat.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind, text, code", [
    ("config", "seed=abc\n", 1),
    ("config", "snr_values=0,loud\n", 1),
    ("labels", "sample_index,label\n0,1\n1,x\n", 2),
    ("labels", "sample_index,label\n0,1\n1\n", 2),
    ("labels", "sample_index,class\n0,1\n", 2),
    ("model", "6 1.0 zero\n" + "0.0\n" * 6, 2),
    ("model", "6 1.0 0.0\n" + "0.0\n" * 5 + "w\n", 2),
    ("manifest", "sample_id,label\ns0.wav,whale\n", 2),
], ids=["config-value", "config-snr-list", "label-not-int", "label-missing",
        "label-column-missing", "model-header", "model-weight",
        "manifest-label"])
def test_malformed_text_inputs_exit_codes(tmp_path, capsys, kind, text, code):
    feat, _ = _oracle_feature_files(tmp_path)
    ds = tmp_path / "ds"
    ds.mkdir()
    wavfile.write(str(ds / "s0.wav"), 8000, np.ones(16000, dtype=np.float32))
    bad = ds / "manifest.csv" if kind == "manifest" else tmp_path / "bad.txt"
    bad.write_text(text)
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
    }[kind]
    try:
        rc = main(argv)
    except Exception as exc:  # the contract is an exit code, never a traceback
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert rc == code
    assert capsys.readouterr().err.strip()


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
