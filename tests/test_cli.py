import csv
import hashlib
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.io import wavfile

from whaledet import cli, parallel, synth
from whaledet import evaluate as ev
from whaledet.audio import load_wav, open_wav
from whaledet.cli import PipelineConfig, main
from whaledet.cnn import FcLayer, save_network, tiny_vgg
from whaledet.features import (
    FeatureError,
    FeatureWriter,
    feature_dim,
    featurize_clips,
    load_features,
    load_labels,
    save_features,
    save_labels,
)
from whaledet.spectrogram import StftParams
from whaledet.svm import SvmModel, save_model
from whaledet.synth import dataset_loader

# a numpy RuntimeWarning on any command's path fails its test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


def test_synth_over_a_larger_dataset_leaves_only_the_smaller(tmp_path):
    # the WAVs of an earlier, larger dataset that the new manifest does not
    # list are deleted; files of any other name are kept
    out, fresh = tmp_path / "ds", tmp_path / "fresh"
    argv = ["--experiment", "E1", "--snr", "0", "--seed", "2"]
    assert main(["synth", "--config", _cfg(tmp_path, ["n_pos=6", "n_neg=6"]),
                 *argv, "--out", str(out)]) == 0
    others = {"notes.txt": b"a", "sample_7.wav": b"b",
              "sample_000011.wav": b"c", "sample_00011.wav.bak": b"d"}
    for name, data in others.items():
        (out / name).write_bytes(data)
    small = _cfg(tmp_path, ["n_pos=2", "n_neg=2"])
    for d in (out, fresh):
        assert main(["synth", "--config", small, *argv, "--out", str(d)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert len(names) == 2 + 2 + 2  # manifest, run_config and 4 WAVs
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, *others])
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    for name, data in others.items():
        assert (out / name).read_bytes() == data


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


@pytest.mark.parametrize("features", ["cnn", "spectrogram"])
def test_sweep_folds_read_a_float32_pool(tmp_path, monkeypatch, features):
    # the pool evaluate reads from a feature file, in both representations
    dtypes = []
    real_run_monte_carlo = ev.run_monte_carlo

    def recording(features, labels, **kwargs):
        dtypes.append(features.dtype)
        return real_run_monte_carlo(features, labels, **kwargs)

    monkeypatch.setattr(ev, "run_monte_carlo", recording)
    cfg = _cfg(tmp_path, SMALL_SWEEP)
    assert main(["sweep", "--config", cfg, "--features", features,
                 "--out", str(tmp_path / "out")]) == 0
    assert dtypes == [np.dtype("<f4")]


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


@pytest.mark.parametrize("setting, flags", [
    ("hop=256", ["--network", "missing.cnnw"]),
    ("hop=1024", []),  # over segment_len=512
    ("hop=256", ["--network", "net64.cnnw"]),  # not image_size=32 square
])
def test_sweep_checks_its_featurizer_before_synthesis(tmp_path, capsys,
                                                      monkeypatch, setting,
                                                      flags):
    # a missing network file, a network of another input size or an STFT
    # geometry that cannot run fails before the unit pool and the noise bank
    # are synthesized
    save_network(tiny_vgg(seed=0, in_size=64), tmp_path / "net64.cnnw")
    calls = []
    monkeypatch.setattr("whaledet.cli.synth_unit_pool",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _cfg(tmp_path, SMALL_SWEEP + [setting]),
                 *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
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


# the STFT geometry of FAST
FAST_STFT = StftParams(segment_len=512, hop=256, fft_size=512)


def test_jobs_flag_does_not_change_features(tmp_path, small_dataset,
                                           monkeypatch):
    # featurize reads each WAV on the thread that featurizes its row, and
    # cnn runs a conv GEMM per window inside each worker thread; every
    # thread count gives the bytes of featurizing the dataset read eagerly
    cfg, ds = small_dataset
    load, labels = dataset_loader(ds, 8000)
    clips = [load(i) for i in range(len(labels))]
    for features, network in (("spectrogram", None),
                              ("cnn", tiny_vgg(seed=0, in_size=32))):
        _set_jobs(monkeypatch, 1)
        eager = tmp_path / f"{features}_eager.feat"
        pool = np.empty((len(clips), feature_dim(network, 32)), "<f4")
        save_features(eager, featurize_clips(len(clips), clips.__getitem__,
                                             pool, network, FAST_STFT, 32))
        for jobs in (None, 1, 2, 3):
            _set_jobs(monkeypatch, jobs)
            feat = tmp_path / f"{features}_j{jobs}.feat"
            assert main(["featurize", "--config", cfg, "--in", str(ds),
                         "--features", features, "--out", str(feat)]) == 0
            assert feat.read_bytes() == eager.read_bytes(), (features, jobs)


def _traced_peak(fn) -> int:
    """The most bytes that fn's allocations held at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _featurize_peak(tmp_path, monkeypatch, n_per_class, size):
    """The traced peak of featurizing an n_per_class + n_per_class dataset
    to size x size spectrogram rows on 2 threads, the bound of 4 clips
    and 4 windows' peaks that it must stay under, and one clip."""
    cfg = _cfg(tmp_path, [f"n_pos={n_per_class}", f"n_neg={n_per_class}",
                          f"image_size={size}"])
    ds = tmp_path / "ds"
    assert main(["synth", "--config", cfg, "--experiment", "E6", "--snr",
                 "0", "--out", str(ds)]) == 0
    wav = ds / "sample_00000.wav"
    clip = load_wav(wav, 8000)

    def one_window():
        featurize_clips(1, lambda i: clip, np.empty((1, size * size), "<f4"),
                        None, FAST_STFT, size)

    one_window()  # first-call allocations
    one_clip = _traced_peak(lambda: load_wav(wav, 8000))
    window_peak = _traced_peak(one_window)
    jobs = 2
    _set_jobs(monkeypatch, jobs)
    peak = _traced_peak(lambda: main([
        "featurize", "--config", cfg, "--in", str(ds), "--features",
        "spectrogram", "--out", str(tmp_path / "ds.feat")]))
    return peak, (jobs + 2) * (one_clip + window_peak), clip


def test_featurize_of_a_dataset_holds_about_one_window_per_thread(
        tmp_path, monkeypatch):
    peak, bound, clip = _featurize_peak(tmp_path, monkeypatch, 20, 32)
    assert peak < bound
    # the bound leaves out what holding every clip at once would take
    assert 40 * clip.samples.nbytes > bound


def test_featurize_holds_no_feature_matrix(tmp_path, monkeypatch):
    peak, bound, _ = _featurize_peak(tmp_path, monkeypatch, 50, 128)
    assert peak < bound
    # the bound leaves out the 100 x 16 384 float32 matrix
    assert 100 * 128 * 128 * 4 > bound


def _count_window_reads(monkeypatch, fail=None):
    """The indices of the dataset rows that featurize reads, in a list that
    grows as it reads them; reading row 6 raises fail when one is given."""
    reads = []
    real_loader = cli.dataset_loader

    def loader(path, sample_rate):
        load, labels = real_loader(path, sample_rate)

        def counted(i):
            reads.append(i)
            if fail is not None and i == 6:
                raise fail
            return load(i)

        return counted, labels

    monkeypatch.setattr(cli, "dataset_loader", loader)
    return reads


def test_featurize_checks_its_output_path_before_any_window(
        tmp_path, capsys, monkeypatch, small_dataset):
    cfg, ds = small_dataset
    plain = tmp_path / "plain"
    plain.write_text("")
    before = set(tmp_path.iterdir())
    reads = _count_window_reads(monkeypatch)
    assert main(["featurize", "--config", cfg, "--in", str(ds),
                 "--features", "spectrogram",
                 "--out", str(plain / "x.feat")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot create directory '{plain}': '{plain}' is not a "
        f"directory"]
    assert reads == []
    assert set(tmp_path.iterdir()) == before
    assert plain.read_text() == ""


@pytest.mark.parametrize("source", ["dataset", "wav"])
def test_featurize_checks_its_network_size_before_any_window(
        tmp_path, capsys, monkeypatch, small_dataset, source):
    cfg, ds = small_dataset  # image_size=32
    net = tmp_path / "net64.cnnw"
    save_network(tiny_vgg(seed=0, in_size=64), net)
    before = set(tmp_path.iterdir())
    reads = []  # neither the manifest nor a WAV is read
    for name in ("dataset_loader", "load_wav", "open_wav"):
        monkeypatch.setattr(cli, name, lambda *args: reads.append(args))
    assert main(["featurize", "--config", cfg, "--in",
                 str(ds if source == "dataset" else ds / "sample_00000.wav"),
                 "--network", str(net),
                 "--out", str(tmp_path / "out" / "x.feat")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {net}: network input is 64x64, image_size is 32"]
    assert reads == []
    assert set(tmp_path.iterdir()) == before


def _softmax_then(layer: bytes, fc_in: int) -> bytes:
    """A CNNW file: 1x32x32 input, softmax, the given layer, then a 2-d code
    fc layer of fc_in inputs."""
    return (b"CNNW" + struct.pack("<IIIIIBI", 1, 1, 32, 32, 2, 0, 3)
            + bytes([5]) + layer + struct.pack("<BII", 4, 2, fc_in)
            + bytes(4 * (2 * fc_in + 2)))


@pytest.mark.parametrize("layer, fc_in", [
    (bytes([3]), 256),  # maxpool
    (struct.pack("<B6I", 1, 1, 1, 1, 1, 1, 0) + bytes(8), 1024),  # 1x1 conv
], ids=["maxpool", "conv"])
def test_softmax_before_a_spatial_layer_exits_2_at_load(tmp_path, capsys,
                                                        layer, fc_in):
    # softmax flattens its input, so the maxpool or conv after it has no
    # image to run on
    net = tmp_path / "net.cnnw"
    net.write_bytes(_softmax_then(layer, fc_in))
    wav = tmp_path / "clip.wav"
    wavfile.write(str(wav), 8000, np.ones(16000, dtype=np.float32))
    feat = tmp_path / "clip.feat"
    assert main(["featurize", "--config", _cfg(tmp_path), "--in", str(wav),
                 "--network", str(net), "--out", str(feat)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: layer 1: ")
    assert not feat.exists()


@pytest.mark.parametrize("command, out", [
    ("synth", "plain"),
    ("synth", "plain/ds"),
    ("sweep", "plain"),
    ("sweep", "plain/sw"),
])
def test_out_through_a_regular_file_is_named_before_any_sample(
        tmp_path, capsys, monkeypatch, command, out):
    # featurize's case is the test above; SMALL_SWEEP holds one cell
    cfg = _cfg(tmp_path, SMALL_SWEEP)
    plain = tmp_path / "plain"
    plain.write_text("")
    before = set(tmp_path.iterdir())
    built = []
    for name in ("build_experiment", "sample_builder"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: built.append(args))
    assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot create directory '{tmp_path / out}': '{plain}' is "
        f"not a directory"]
    assert built == []
    assert set(tmp_path.iterdir()) == before
    assert plain.read_text() == ""


def test_rows_too_long_for_the_header_exit_2_before_any_window(
        tmp_path, capsys, monkeypatch, small_dataset):
    # 65 536 x 65 536 pixels: a row length of 2**32, past the u32 header
    _, ds = small_dataset
    cfg = _cfg(tmp_path, ["image_size=65536"])
    reads = _count_window_reads(monkeypatch)
    out_dir = tmp_path / "out"
    assert main(["featurize", "--config", cfg, "--in", str(ds),
                 "--features", "spectrogram",
                 "--out", str(out_dir / "f.feat")]) == 2
    assert "do not fit the u32 header" in capsys.readouterr().err
    assert reads == []
    assert not out_dir.exists()


def test_featurize_short_write_exits_2_and_leaves_no_file(
        tmp_path, capsys, monkeypatch, small_dataset):
    # a full disk: os.pwrite writes part of a row and reports how much
    cfg, ds = small_dataset
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    feat = out_dir / "f.feat"
    real_pwrite = os.pwrite

    def short_pwrite(fd, data, offset):
        if offset == 0:  # the header
            return real_pwrite(fd, data, offset)
        return real_pwrite(fd, memoryview(data).cast("B")[:-4], offset)

    monkeypatch.setattr(os, "pwrite", short_pwrite)
    assert main(["featurize", "--config", cfg, "--in", str(ds),
                 "--features", "spectrogram", "--out", str(feat)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {feat}: short write")
    assert list(out_dir.iterdir()) == []


def test_memory_error_mid_featurize_exits_3_and_leaves_no_file(
        tmp_path, capsys, monkeypatch, small_dataset):
    cfg, ds = small_dataset
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    _set_jobs(monkeypatch, 2)
    reads = _count_window_reads(monkeypatch, fail=MemoryError())
    assert main(["featurize", "--config", cfg, "--in", str(ds),
                 "--features", "spectrogram",
                 "--out", str(out_dir / "f.feat")]) == 3
    assert capsys.readouterr().err.startswith("out of memory: ")
    assert 6 in reads
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("fault", ["missing", "non-finite", "other-rate"])
def test_bad_dataset_row_exits_2_with_one_error_line(tmp_path, capsys,
                                                     monkeypatch,
                                                     small_dataset, fault):
    # row 6 of 10 fails on its worker thread, possibly after other rows
    # were featurized
    cfg, ds = small_dataset
    wav = ds / "sample_00006.wav"
    if fault == "missing":
        wav.unlink()
    elif fault == "non-finite":
        samples = np.zeros(16000, dtype=np.float32)
        samples[7] = np.inf
        wavfile.write(str(wav), 8000, samples)
    else:
        wavfile.write(str(wav), 16000, np.zeros(32000, dtype=np.float32))
    _set_jobs(monkeypatch, 2)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    feat = out_dir / "f.feat"
    try:
        rc = main(["featurize", "--config", cfg, "--in", str(ds),
                   "--features", "spectrogram", "--out", str(feat)])
    except Exception as exc:  # the contract is an exit code, never a traceback
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "sample_00006.wav" in err[0]
    if fault == "other-rate":  # load_wav's error, as it named the file
        assert err == [f"error: {wav}: audio at 16000 Hz, config "
                       "sample_rate is 8000 Hz"]
    # no feature file, no labels and no temporary file
    assert list(out_dir.iterdir()) == []


def test_manifest_faults_fail_before_any_wav_is_read(tmp_path, capsys,
                                                     small_dataset):
    # row 0's WAV is gone too, but the last row's label is named first
    cfg, ds = small_dataset
    (ds / "sample_00000.wav").unlink()
    manifest = ds / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[-1] = lines[-1].replace(",0,", ",x,", 1)
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["featurize", "--config", cfg, "--in", str(ds),
                 "--features", "spectrogram", "--out",
                 str(tmp_path / "f.feat")]) == 2
    err = capsys.readouterr().err
    assert "manifest.csv: every row needs a sample_id and an integer label" \
        in err


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


def test_feature_writer_takes_rows_from_many_threads(tmp_path):
    # more threads than cores, switching often: each row lands at its own
    # offset, so the file holds the bytes of writing the rows in order
    X = np.random.default_rng(5).standard_normal((64, 257))
    feat = tmp_path / "t.feat"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with FeatureWriter(feat, *X.shape) as out, \
                ThreadPoolExecutor(max_workers=8) as pool:
            def write(i):
                out[i] = X[i]
            list(pool.map(write, range(len(X)), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert feat.read_bytes() == (struct.pack("<II", *X.shape)
                                 + X.astype("<f4").tobytes())
    assert [p.name for p in tmp_path.iterdir()] == ["t.feat"]


def test_feature_writer_interrupted_leaves_no_file(tmp_path):
    feat = tmp_path / "t.feat"
    with pytest.raises(KeyboardInterrupt), FeatureWriter(feat, 2, 3) as out:
        out[0] = np.ones(3)
        raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


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


def test_evaluate_of_a_file_cut_short_while_open_exits_2(tmp_path, capsys,
                                                        monkeypatch):
    # the folds read their rows from the file as they need them; a file
    # that loses rows once evaluate has opened it fails the fold that reads
    # one with a FeatureError, not a traceback
    feat, labels = _oracle_feature_files(tmp_path)
    real_train = ev.svm.train

    def train_then_truncate(*args, **kwargs):
        with open(feat, "r+b") as fh:
            fh.truncate(8 + 4 * 6 * 10)  # 10 rows of 60 left
        return real_train(*args, **kwargs)

    monkeypatch.setattr(ev.svm, "train", train_then_truncate)
    out = tmp_path / "eval.csv"
    try:
        rc = main(["evaluate", "--features", str(feat), "--labels",
                   str(labels), "--n-iter", "3", "--n-train", "30",
                   "--n-test", "20", "--out", str(out)])
    except Exception as exc:  # the contract is an exit code, never a traceback
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {feat}: short read of the feature "
                             "payload")
    assert not out.exists()


def test_evaluate_holds_no_feature_pool(tmp_path, monkeypatch):
    # 400 x 4096 float32 rows (6.6 MB); the folds of 16 + 8 rows hold two
    # 16 x 4096 float64 buffers and the Gram path's small matrices
    rng = np.random.default_rng(1)
    labels = np.array([0, 1] * 200)
    X = (rng.standard_normal((400, 4096)) + labels[:, None]).astype("<f4")
    feat = tmp_path / "pool.feat"
    save_features(feat, X)
    save_labels(tmp_path / "pool.labels.csv", labels)
    _set_jobs(monkeypatch, 2)
    args = ["evaluate", "--features", str(feat), "--labels",
            str(tmp_path / "pool.labels.csv"), "--n-iter", "4", "--n-train",
            "16", "--n-test", "8", "--out", str(tmp_path / "eval.csv")]
    assert main(args) == 0  # first-call allocations
    assert _traced_peak(lambda: main(args)) < X.nbytes / 4


def test_featurize_of_a_wav_holds_about_one_window_per_thread(
        tmp_path, monkeypatch):
    # 3 minutes at 8 kHz: ninety 2-s windows, each read on its thread
    wav = tmp_path / "long.wav"
    wavfile.write(str(wav), 8000, np.random.default_rng(0).uniform(
        -0.5, 0.5, 180 * 8000).astype(np.float32))
    cfg = _cfg(tmp_path)
    window = open_wav(wav, 8000).span(0, 16000)
    clip = window.read()

    def one_window():
        featurize_clips(1, lambda i: clip, np.empty((1, 32 * 32), "<f4"),
                        None, FAST_STFT, 32)

    one_window()  # first-call allocations
    bound = 4 * (_traced_peak(window.read) + _traced_peak(one_window))
    _set_jobs(monkeypatch, 2)
    peak = _traced_peak(lambda: main([
        "featurize", "--config", cfg, "--in", str(wav), "--features",
        "spectrogram", "--out", str(tmp_path / "long.feat")]))
    assert peak < bound
    # the bound leaves out the float64 recording that load_wav would hold
    assert 180 * 8000 * 8 > 2 * bound


def test_killed_featurize_leaves_no_file(tmp_path, small_dataset):
    # the feature file has no name until the run ends, so a featurize that
    # is killed outright leaves nothing next to --out
    try:
        os.close(os.open(tmp_path, os.O_TMPFILE | os.O_WRONLY, 0o600))
    except (AttributeError, OSError):
        pytest.skip("no O_TMPFILE here, so the named temporary file stays")
    cfg, ds = small_dataset
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # on one thread, the child stops when it asks for row 1's window, with
    # the file open and row 0 written
    driver = "\n".join([
        "import sys, time",
        "from whaledet import cli, parallel",
        "parallel.default_jobs = lambda: 1",
        "real = cli.featurize_clips",
        "def stalled(n, window, out, **kwargs):",
        "    def stall_at_row_1(i):",
        "        if i == 1:",
        "            print('row 0 written', flush=True)",
        "            time.sleep(600)",
        "        return window(i)",
        "    return real(n, stall_at_row_1, out, **kwargs)",
        "cli.featurize_clips = stalled",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    child = subprocess.Popen(
        [sys.executable, "-c", driver, "featurize", "--config", cfg,
         "--in", str(ds), "--features", "spectrogram",
         "--out", str(out_dir / "f.feat")],
        stdout=subprocess.PIPE, text=True, env=env)
    stuck = threading.Timer(120, child.kill)  # ends a read that would hang
    stuck.start()
    try:
        assert child.stdout.readline() == "row 0 written\n"
    finally:
        stuck.cancel()
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
    assert child.returncode == -9
    assert list(out_dir.iterdir()) == []


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


def test_synth_matches_golden_digests(tmp_path):
    # criterion 6's geometry, E6 at 0 dB, seed 42: every file synth writes
    golden = Path(__file__).parent / "data" / "synth_golden" / "SHA256SUMS"
    digests = {name: digest for digest, name in
               (line.split() for line in golden.read_text().splitlines())}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "sample_rate=8000", "segment_len=512", "hop=256", "fft_size=512",
        "image_size=32", "n_units=6", "bank_clip_s=6.0",
        "bank_clips_per_type=1", "n_pos=12", "n_neg=12", "n_iter=3",
        "n_train=14", "n_test=8", "svm_max_iter=200",
    ]) + "\n")
    out = tmp_path / "synth_out"
    assert main(["synth", "--config", str(cfg), "--experiment", "E6",
                 "--snr", "0", "--seed", "42", "--out", str(out)]) == 0
    assert {p.name: _sha256(p) for p in out.iterdir()} == digests


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
    ("synth-config", "sample_rate=8000.5\n", 1),
    ("sweep-config", "sample_rate=8000.5\n", 1),
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
        "sweep-snr-values-print-alike", "synth-sample-rate-fractional",
        "sweep-sample-rate-fractional"])
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


# 5.5 s at 8 kHz: two 2-s windows, then a 1.5-s remainder that is dropped
@pytest.mark.parametrize("where", [2 * 16000 - 1, 5 * 8000],
                         ids=["last-window", "remainder"])
def test_featurize_rejects_a_nan_anywhere_in_the_wav(tmp_path, capsys,
                                                     monkeypatch, where):
    # each window is read, and checked, on the thread that featurizes it,
    # and the remainder before any window is; a NaN in either fails the run
    # and leaves no file
    samples = np.zeros(11 * 4000, dtype=np.float32)
    samples[where] = np.nan
    wav = tmp_path / "nan.wav"
    wavfile.write(str(wav), 8000, samples)
    cfg = _cfg(tmp_path)
    before = set(tmp_path.iterdir())
    _set_jobs(monkeypatch, 2)
    rc = main(["featurize", "--config", cfg, "--in", str(wav),
               "--features", "spectrogram",
               "--out", str(tmp_path / "nan.feat")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {wav}: NaN or infinite sample values"]
    assert set(tmp_path.iterdir()) == before


def test_featurize_refuses_a_big_endian_wav_by_name(tmp_path, capsys):
    # a RIFX PCM16 file, which scipy reads as >i2, is refused at its magic
    # as an unsupported format: exit 2, one error line, no file made
    samples = np.arange(3 * 8000, dtype=">i2")
    wav = tmp_path / "rifx.wav"
    wav.write_bytes(
        struct.pack(">4sI4s4sIHHIIHH4sI", b"RIFX", 36 + samples.nbytes,
                    b"WAVE", b"fmt ", 16, 1, 1, 8000, 16000, 2, 16, b"data",
                    samples.nbytes) + samples.tobytes())
    assert wavfile.read(str(wav))[1].dtype == ">i2"
    cfg = _cfg(tmp_path)
    before = sorted(os.listdir(tmp_path))
    rc = main(["featurize", "--config", cfg, "--in", str(wav),
               "--features", "spectrogram",
               "--out", str(tmp_path / "rifx.feat")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {wav}: ")
    assert "big-endian" in err[0]
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("dtype, channels", [(np.float32, 1), (np.int16, 2)],
                         ids=["float32-mono", "pcm16-stereo"])
def test_featurize_of_a_wav_reads_the_rows_of_the_whole_file(
        tmp_path, monkeypatch, dtype, channels):
    # a recording's windows, each read alone on its thread, give the bytes
    # of reading the whole file and cutting it into windows
    rng = np.random.default_rng(channels)
    x = rng.uniform(-0.5, 0.5, (9 * 4000 + 77, channels))  # 4.5 s and more
    if dtype == np.int16:
        x *= 32768.0
    wav = tmp_path / "rec.wav"
    wavfile.write(str(wav), 8000, x.astype(dtype).squeeze())
    cfg = _cfg(tmp_path)
    windows = cli.frame_windows(load_wav(wav, 8000), 2.0)
    network = tiny_vgg(seed=0, in_size=32)
    for features, net in (("spectrogram", None), ("cnn", network)):
        want = tmp_path / f"{features}_whole.feat"
        save_features(want, featurize_clips(
            len(windows), windows.__getitem__,
            np.empty((len(windows), feature_dim(net, 32)), "<f4"), net,
            FAST_STFT, 32))
        for jobs in (1, 2):
            _set_jobs(monkeypatch, jobs)
            feat = tmp_path / f"{features}_{jobs}.feat"
            assert main(["featurize", "--config", cfg, "--in", str(wav),
                         "--features", features, "--out", str(feat)]) == 0
            assert feat.read_bytes() == want.read_bytes(), (features, jobs)


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


@pytest.mark.parametrize("labels, named", [
    ([0, 1, -1] * 20, "got [-1, 0, 1]"),
    ([1] * 59 + [0], "got 1 of label 0 and 59 of 1"),
], ids=["unlabeled-rows", "one-negative"])
def test_evaluate_names_labels_it_cannot_split_exit_2(tmp_path, capsys,
                                                      labels, named):
    # -1 is what featurize writes for the windows of a single WAV
    feat, _ = _oracle_feature_files(tmp_path)  # 60 rows
    bad = tmp_path / "bad.labels.csv"
    save_labels(bad, labels)
    out = tmp_path / "out.csv"
    argv = _commands_on(feat, bad, tmp_path / "model.txt", out)["evaluate"]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error line is all stderr holds
        assert main(argv) == 2
    assert "NaN or infinity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, snr", [
    ("synth", "7000"), ("synth", "-7000"), ("synth", "-3100"),
    ("synth", "3300"), ("synth", "3090"), ("sweep", "3090"),
])
def test_snr_that_over_or_underflows_exits_2(tmp_path, capsys, command, snr):
    # finite SNRs whose noise gain (+-7000), scaled noise power (-3100,
    # 3300) or achieved SNR (3090) leaves the float range
    out = tmp_path / "out"
    argv = [command, "--config", _cfg(tmp_path, SMALL_SWEEP), f"--snr={snr}",
            "--out", str(out)]
    try:
        rc = main(argv)
    except Exception as exc:  # the contract is an exit code, never a traceback
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"SNR of {float(snr):g} dB is out of range" in err[0]
    assert not out.exists()  # no manifest, WAV or sweep CSV


@pytest.mark.parametrize("rate", ["1000", "4000", "7000"])
def test_rate_below_the_synthetic_generators_floor_exits_2(tmp_path, capsys,
                                                           rate):
    # 1000 Hz is below the unit pool's floor (1333.3 Hz), 4000 and 7000 Hz
    # below the noise bank's (7200 Hz)
    out = tmp_path / "out"
    argv = ["synth", "--config", _cfg(tmp_path, [f"sample_rate={rate}"]),
            "--experiment", "E1", "--snr", "0", "--out", str(out)]
    try:
        rc = main(argv)
    except Exception as exc:  # the contract is an exit code, never a traceback
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "needs a sample_rate above" in err[0]
    assert f"got {rate} Hz" in err[0]
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
    wav = units / "u0.wav" if source == "units" else bank / "clean" / "n0.wav"
    assert capsys.readouterr().err.splitlines() == [
        f"error: {wav}: audio at 8000 Hz, config sample_rate is 44100 Hz"]
    assert not out.exists()


def test_sweep_names_a_noise_type_the_bank_lacks_before_any_cell(
        tmp_path, capsys, monkeypatch):
    # clean, wind and rain clips; E6 needs traffic and chorus too
    rng = np.random.default_rng(0)
    bank = tmp_path / "bank"
    for nt in ("clean", "wind", "rain"):
        (bank / nt).mkdir(parents=True)
        wavfile.write(str(bank / nt / "n0.wav"), 8000,
                      (0.1 * rng.standard_normal(3 * 8000)).astype(np.float32))
    built = []
    monkeypatch.setattr(cli, "sample_builder",
                        lambda *args, **kw: built.append(args))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _cfg(tmp_path, SMALL_SWEEP),
                 "--experiment", "E1", "--experiment", "E2",
                 "--experiment", "E6", "--snr", "0", "--snr", "5",
                 "--bank", str(bank), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: noise bank has no clips of type 'traffic'"]
    assert built == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_synthesized_noise_shorter_than_a_window_exits_2_before_any_cell(
        tmp_path, capsys, monkeypatch, command):
    # 1-s clips cannot cover one 2-s window of any noise type
    built = []
    for module in (cli, synth):
        monkeypatch.setattr(module, "sample_builder",
                            lambda *args, **kw: built.append(args))
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, [*SMALL_SWEEP, "bank_clip_s=1.0", "window_s=2.0"])
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: noise clip of type 'clean' is shorter (8000) than one window "
        "(16000)"]
    assert built == []
    assert not out.exists()
