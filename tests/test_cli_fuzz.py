"""Fuzzing of the command line through its config file: every drawn setting
ends in exit 1 (usage) or 2 (data), or in exit 0 with finite numbers in the
output file, never in a traceback.

featurize runs on a one-second 8 kHz WAV and evaluate on a 40-row feature
file.  Sizes stay small (FFTs of at most 1024 points, images of at most
64 px), so no example asks for a large allocation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from whaledet.cli import main
from whaledet.features import load_features, save_features, save_labels

FUZZ = settings(max_examples=80, deadline=None, derandomize=True)

# values that no setting accepts; integer keys take 0 and negatives, but
# 0 is a seed
BAD = {"window_s": [0.0, -1.0, math.nan, math.inf], "features": ["mfcc"],
       "seed": [-1, -3]}


@st.composite
def settings_with_few_bad(draw):
    """Settings in range, with zero to two of them replaced by a bad value.

    One STFT geometry in two satisfies hop <= segment_len <= fft_size; the
    rest fail as data.  Windows from 1e-4 s (under one sample) to 2 s (none
    fit the clip) reach the data errors of framing and featurization.
    """
    geometry = draw(st.lists(st.integers(1, 1024), min_size=3, max_size=3))
    if draw(st.booleans()):
        geometry.sort()
    values = dict(zip(("hop", "segment_len", "fft_size"), geometry))
    values.update(
        window_s=draw(st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0, 2.0])),
        image_size=draw(st.integers(1, 64)),
        features=draw(st.sampled_from(["cnn", "spectrogram"])),
        n_iter=draw(st.integers(1, 4)),
        n_train=draw(st.integers(1, 40)),
        n_test=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 1000)),
    )
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        values[key] = draw(st.sampled_from(BAD.get(key, [0, -1, -3])))
    return values


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    rng = np.random.default_rng(0)
    wavfile.write(str(root / "clip.wav"), 8000,
                  (0.1 * rng.standard_normal(8000)).astype(np.float32))
    labels = np.array([1, 0] * 20)
    save_features(root / "pool.feat",
                  labels[:, None] + rng.standard_normal((40, 8)))
    save_labels(root / "pool.labels.csv", labels)
    return root


def _run(argv, out):
    out.unlink(missing_ok=True)
    rc = main(argv + ["--out", str(out)])
    assert rc in (0, 1, 2)
    return rc


@FUZZ
@given(drawn=settings_with_few_bad())
def test_drawn_settings_exit_cleanly(inputs, drawn):
    cfg = inputs / "run.cfg"
    cfg.write_text("sample_rate=8000\nsvm_max_iter=50\n" + "".join(
        f"{key}={value}\n" for key, value in drawn.items()))

    feat = inputs / "clip.feat"
    if _run(["featurize", "--config", str(cfg), "--in",
             str(inputs / "clip.wav")], feat) == 0:
        assert np.isfinite(load_features(feat)).all()

    result = inputs / "eval.csv"
    if _run(["evaluate", "--config", str(cfg), "--features",
             str(inputs / "pool.feat"), "--labels",
             str(inputs / "pool.labels.csv")], result) == 0:
        row = result.read_text().splitlines()[1].split(",")
        assert all(math.isfinite(float(v)) for v in row[2:])
