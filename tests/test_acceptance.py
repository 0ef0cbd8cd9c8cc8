"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with its headline numbers.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np

from naive_ref import naive_conv, naive_dft_frame, naive_fc, naive_maxpool
from whaledet import parallel
from whaledet.audio import AudioClip, mean_square_power
from whaledet.cli import main
from whaledet.cnn import (
    ConvLayer,
    FcLayer,
    MaxPoolLayer,
    Network,
    conv_forward,
    forward,
    maxpool_forward,
    softmax,
)
from whaledet.spectrogram import StftParams, stft_magnitude
from whaledet.svm import predict_batch, train
from whaledet.synth import mix_at_snr

SR = 44100.0


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_spectrogram_matches_naive_dft():
    t0 = time.perf_counter()
    params = StftParams()  # segment 1024, hop 512, fft 2048, Hamming
    window = np.array(
        [0.54 - 0.46 * math.cos(2 * math.pi * n / (params.segment_len - 1))
         for n in range(params.segment_len)])
    rng = np.random.default_rng(2024)
    worst = 0.0
    shapes_ok = True
    for _ in range(50):
        clip = AudioClip(rng.standard_normal(int(2.0 * SR)), SR)
        got = stft_magnitude(clip, params)
        shapes_ok &= got.shape == (1025, 171)
        segs = np.stack([
            clip.samples[t * params.hop : t * params.hop + params.segment_len]
            * window
            for t in range(171)
        ])
        ref = np.abs(naive_dft_frame(segs.T, params.fft_size)[:1025])
        worst = max(worst, float(np.abs(got - ref).max() / ref.max()))
    elapsed = time.perf_counter() - t0
    ok = shapes_ok and worst < 1e-6 and elapsed < 30.0
    _report("criterion 1 spectrogram oracle", ok,
            f"50 clips, shape 1025x171={shapes_ok}, "
            f"max rel err {worst:.2e} (<1e-6), {elapsed:.1f}s (<30s)")


def test_criterion_2_cnn_matches_nested_loop_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    pool_ok = True
    softmax_ok = True
    for _ in range(100):
        in_ch = int(rng.integers(1, 4))
        size = int(rng.integers(6, 13) * 2)  # even so pooling drops nothing
        x = rng.standard_normal((in_ch, size, size))
        k = int(rng.integers(1, 4)) * 2 + 1
        stride = int(rng.integers(1, 3))
        conv = ConvLayer(rng.standard_normal((3, in_ch, k, k)),
                         rng.standard_normal(3), stride=stride, pad=k // 2)
        c_got = conv_forward(x, conv)
        c_ref = naive_conv(x, conv.weights, conv.bias, stride, k // 2)
        worst = max(worst, float(np.abs(c_got - c_ref).max()))

        even = c_got[:, : c_got.shape[1] // 2 * 2, : c_got.shape[2] // 2 * 2]
        p_got = maxpool_forward(c_got)
        pool_ok &= p_got.shape[1] * p_got.shape[2] * 4 == (even.shape[1]
                                                           * even.shape[2])
        worst = max(worst, float(np.abs(p_got - naive_maxpool(even)).max()))

        flat = int(np.prod(p_got.shape))
        fc = FcLayer(rng.standard_normal((5, flat)), rng.standard_normal(5))
        worst = max(worst, float(np.abs(
            forward(Network(layers=[conv, MaxPoolLayer(), fc],
                            code_layer_index=2, in_channels=in_ch,
                            in_height=size, in_width=size), x)
            - naive_fc(p_got, fc.weights, fc.bias)).max()))

        s = softmax(rng.standard_normal(int(rng.integers(2, 10))) * 50.0)
        softmax_ok &= abs(float(s.sum()) - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and pool_ok and softmax_ok and elapsed < 60.0
    _report("criterion 2 cnn oracle", ok,
            f"100 nets, max abs err {worst:.2e} (<1e-5), pool 1/4={pool_ok}, "
            f"softmax sum ok={softmax_ok}, {elapsed:.1f}s (<60s)")


def test_criterion_3_snr_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    targets = (-10.0, -5.0, 0.0, 5.0, 10.0)
    worst = 0.0
    for i in range(1000):
        snr = targets[i % len(targets)]
        sig = AudioClip(rng.standard_normal(2000)
                        * rng.uniform(0.1, 2.0), SR)
        noise = AudioClip(rng.standard_normal(2000)
                          * rng.uniform(0.1, 2.0), SR)
        mixed, _ = mix_at_snr(sig, noise, snr)
        added = AudioClip(mixed.samples - sig.samples, SR)
        achieved = 10.0 * math.log10(mean_square_power(sig)
                                     / mean_square_power(added))
        worst = max(worst, abs(achieved - snr))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report("criterion 3 snr round trip", ok,
            f"1000 mixes, max |error| {worst:.2e} dB (<1e-9), "
            f"{elapsed:.1f}s (<10s)")


def test_criterion_4_svm_separable():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    n = 400
    labels = np.array([0, 1] * (n // 2))
    # clip the clouds so the two classes are strictly separable
    X = np.clip(rng.standard_normal((n, 2)), -2.5, 2.5)
    X[labels == 1] += [6.0, 6.0]
    c_param = 1.0
    model = train(X, labels, c_param=c_param, seed=0)
    acc = float(np.mean(predict_batch(model, X) == labels))
    elapsed = time.perf_counter() - t0
    # the dual objective after epochs 1, 2, 4, ... and the last: a fit capped
    # at k epochs is the full fit's state after epoch k (same seed, same
    # coordinate order)
    checkpoints = [*(2 ** j for j in range((model.n_epochs - 1).bit_length())),
                   model.n_epochs]
    objective = []
    for k in checkpoints:
        m = train(X, labels, c_param=c_param, seed=0, max_iter=k)
        objective.append(m.dual_coef.sum()
                         - 0.5 * (m.weights @ m.weights + m.bias ** 2))
    monotone = bool((np.diff(objective) >= -1e-9).all())
    boxed = bool(((model.dual_coef >= -1e-12)
                  & (model.dual_coef <= c_param + 1e-12)).all())
    ok = acc >= 0.99 and monotone and boxed and elapsed < 5.0
    _report("criterion 4 svm separable", ok,
            f"train acc {acc:.3f} (>=0.99), objective monotone={monotone}, "
            f"duals in [0,C]={boxed}, {elapsed:.1f}s (<5s)")


def test_criterion_5_end_to_end_desk_scale(tmp_path):
    t0 = time.perf_counter()
    # the defaults: 30 units, a 20-s bank with 2 clips per type, E1-E6,
    # the seed-0 tiny-vgg on 256-px images of the default STFT
    out = tmp_path / "sweep"
    assert main(["sweep", "--snr", "-10", "--snr", "0", "--snr", "10",
                 "--n-pos", "80", "--n-neg", "80", "--n-iter", "20",
                 "--n-train", "100", "--n-test", "60", "--seed", "0",
                 "--out", str(out)]) == 0
    with open(out / "sweep_results.csv", newline="") as fh:
        cr = {(row["experiment_id"], float(row["snr_db"])):
              float(row["mean_correct_recognition"])
              for row in csv.DictReader(fh)}
    a = all(cr[("E1", s)] >= 0.9 for s in (-10.0, 0.0, 10.0))
    b = all(cr[(e, 10.0)] >= cr[(e, -10.0)]
            for e in ("E2", "E3", "E4", "E5", "E6"))
    c = all(cr[("E6", s)] <= cr[("E1", s)] for s in (-10.0, 0.0, 10.0))
    elapsed = time.perf_counter() - t0
    ok = a and b and c and elapsed < 600.0
    e1 = ", ".join(f"{cr[('E1', s)]:.3f}" for s in (-10.0, 0.0, 10.0))
    _report("criterion 5 end-to-end desk scale", ok,
            f"E1 CR [{e1}] >=0.9={a}, SNR trend E2-E6={b}, "
            f"E6<=E1={c}, {elapsed:.0f}s (<600s)")


SWEEP_CSVS = ("sweep_results.csv", "confusion_matrices.csv")


def _criterion_6_sweep(tmp_path, name):
    """The two sweep CSVs of criterion 6's small cnn grid, as bytes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "sample_rate=8000", "segment_len=512", "hop=256", "fft_size=512",
        "image_size=32", "n_units=6", "bank_clip_s=6.0",
        "bank_clips_per_type=1", "n_pos=12", "n_neg=12", "n_iter=3",
        "n_train=14", "n_test=8", "svm_max_iter=200",
    ]) + "\n")
    out = tmp_path / name
    rc = main(["sweep", "--config", str(cfg), "--experiment", "E1",
               "--experiment", "E6", "--snr", "-10", "--snr", "10",
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    return tuple((out / csv_name).read_bytes() for csv_name in SWEEP_CSVS)


def test_criterion_6_sweep_determinism(tmp_path):
    outputs = [_criterion_6_sweep(tmp_path, d) for d in ("run1", "run2")]
    ok = outputs[0] == outputs[1]
    _report("criterion 6 sweep determinism", ok,
            "rerun with identical seeds is byte-identical"
            if ok else "rerun output differs")


def test_criterion_6_sweep_matches_golden(tmp_path, monkeypatch):
    golden_dir = Path(__file__).parent / "data" / "sweep_golden"
    golden = tuple((golden_dir / name).read_bytes() for name in SWEEP_CSVS)
    differ = []
    # the default thread count, then 3 threads: 24 windows and 3 folds per
    # cell split across threads
    for threads in (None, 3):
        if threads:
            monkeypatch.setattr(parallel, "default_jobs", lambda: threads)
        if _criterion_6_sweep(tmp_path, f"run{threads}") != golden:
            differ.append(f"{threads or 'default'} threads")
    ok = not differ
    _report("criterion 6 sweep golden", ok,
            "sweep CSVs byte-identical to tests/data/sweep_golden at the "
            "default and 3 threads" if ok else
            f"sweep CSVs differ from tests/data/sweep_golden at "
            f"{', '.join(differ)}")


def test_criterion_7_representation_comparison(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "sample_rate=8000", "segment_len=512", "hop=256", "fft_size=512",
        "image_size=32", "n_units=6", "bank_clip_s=6.0",
        "bank_clips_per_type=1", "n_pos=15", "n_neg=15",
    ]) + "\n")
    ds = tmp_path / "ds"
    assert main(["synth", "--config", str(cfg), "--experiment", "E1",
                 "--snr", "0", "--seed", "2", "--out", str(ds)]) == 0
    rows = {}
    for mode in ("spectrogram", "cnn"):
        feat = tmp_path / f"{mode}.feat"
        assert main(["featurize", "--config", str(cfg), "--in", str(ds),
                     "--features", mode, "--out", str(feat)]) == 0
        out = tmp_path / f"{mode}_eval.csv"
        assert main(["evaluate", "--config", str(cfg), "--features",
                     str(feat), "--labels",
                     str(feat.with_suffix(".labels.csv")),
                     "--n-iter", "5", "--n-train", "18", "--n-test", "10",
                     "--seed", "2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows[mode] = list(csv.DictReader(fh))[0]
    capsys.readouterr()  # drop the CLI chatter, keep the table readable
    table = tmp_path / "representation_comparison.csv"
    with open(table, "w") as fh:
        fh.write("features,mean_correct_recognition,mean_false_alarm\n")
        for mode, row in rows.items():
            fh.write(f"{mode},{row['mean_correct_recognition']},"
                     f"{row['mean_false_alarm']}\n")
    ok = set(rows) == {"spectrogram", "cnn"} and all(
        0.0 <= float(r["mean_correct_recognition"]) <= 1.0 for r in rows.values())
    detail = "; ".join(
        f"{m}: CR={rows[m]['mean_correct_recognition']} "
        f"FA={rows[m]['mean_false_alarm']}" for m in ("spectrogram", "cnn"))
    _report("criterion 7 representation comparison", ok, detail)
