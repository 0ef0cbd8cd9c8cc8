"""Fuzzing of the command line through its config file: every drawn setting
ends in exit 1 (usage) or 2 (data), or in exit 0 with finite numbers in the
output file, never in a traceback.

featurize runs on a one-second 8 kHz WAV and evaluate on a 40-row feature
file.  synth and sweep run on a grid of one cell: two units, 3-s noise clips,
four windows of each class and one fold, at rates on both sides of the
synthetic noise bank's 7200 Hz floor.  Sizes stay small (FFTs of at most
1024 points, images of at most 64 px), so no example asks for a large
allocation.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from whaledet.cli import main
from whaledet.features import load_features, save_features, save_labels

FUZZ = settings(max_examples=80, deadline=None, derandomize=True)
# each example synthesizes a unit pool and a noise bank
FUZZ_SYNTHESIS = settings(max_examples=30, deadline=None, derandomize=True)

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


# out-of-range values of a one-cell grid: images under the built-in
# network's 11 px, windows under one sample or longer than the 3-s noise
# clips, an SNR whose noise gain underflows, splits larger than the cell's
# eight windows or too small to hold both classes, and a hop longer than
# the segment
BAD_GRID = {"sample_rate": [8000.5], "image_size": [10, 1],
            "window_s": [1e-4, 4.0, math.inf], "snr_values": [7000, "nan"],
            "experiments": ["E7", "E1,E1"], "hop": [1024], "n_train": [8, 1],
            "n_test": [5, 1], "features": ["mfcc"], "seed": [-1]}


@st.composite
def grid_settings(draw):
    """Settings of a one-cell grid in range, with zero to two of them
    replaced by a bad value."""
    geometry = draw(st.lists(st.integers(2, 512), min_size=3, max_size=3))
    values = dict(zip(("hop", "segment_len", "fft_size"), sorted(geometry)))
    values.update(
        # both sides of the synthetic noise bank's 7200 Hz floor
        sample_rate=draw(st.sampled_from([8000, 7201, 7200, 1000])),
        window_s=draw(st.sampled_from([0.5, 1.0, 2.0])),
        image_size=draw(st.integers(11, 16)),
        features=draw(st.sampled_from(["cnn", "spectrogram"])),
        experiments=draw(st.sampled_from(["E1", "E2", "E3", "E4", "E5",
                                          "E6"])),
        snr_values=draw(st.sampled_from([-10.0, 0.0, 10.0])),
        n_train=draw(st.integers(2, 4)),
        n_test=draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 1000)),
    )
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        values[key] = draw(st.sampled_from(BAD_GRID.get(key, [0, -1])))
    return values


def _run_quietly(argv):
    """main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@FUZZ_SYNTHESIS
@given(drawn=grid_settings())
def test_drawn_grids_synthesize_and_sweep_cleanly(tmp_path_factory, drawn):
    root = tmp_path_factory.mktemp("grid")
    cfg = root / "run.cfg"
    cfg.write_text(
        "n_units=2\nbank_clip_s=3.0\nbank_clips_per_type=1\nn_pos=4\n"
        "n_neg=4\nn_iter=1\nsvm_max_iter=50\n" + "".join(
            f"{key}={value}\n" for key, value in drawn.items()))

    rc, err = _run_quietly(["synth", "--config", str(cfg), "--out",
                            str(root / "ds")])
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 0:
        rows = (root / "ds" / "manifest.csv").read_text().splitlines()
        assert len(rows) == 1 + 8
    else:
        assert err.strip()

    rc, err = _run_quietly(["sweep", "--config", str(cfg), "--out",
                            str(root / "sweep")])
    assert rc in (0, 1, 2, 3) and "Traceback" not in err
    if rc == 0:
        row = (root / "sweep" / "sweep_results.csv").read_text() \
            .splitlines()[1].split(",")
        assert all(math.isfinite(float(v)) for v in row[2:])
    else:
        assert err.strip()
