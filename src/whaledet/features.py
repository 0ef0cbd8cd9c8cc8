"""Window -> spectrogram -> image -> feature pipeline and feature-file IO.

Two feature modes: "cnn" (code vector of a loaded network, the default) and
"spectrogram" (the raw flattened 256x256 image), so both representations can
be compared on identical datasets.

Feature file format: u32 n_samples, u32 dim (little-endian), then n*dim
float32 values row-major.  Labels travel in a sibling CSV (sample_index,label).
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .audio import AudioClip
from .cnn import Network, extract_code
from .spectrogram import StftParams, stft_spectrogram, to_image

FEATURE_MODES = ("cnn", "spectrogram")


class FeatureError(Exception):
    pass


def featurize_clips(
    clips: list[AudioClip],
    mode: str = "cnn",
    network: Network | None = None,
    params: StftParams | None = None,
    width: int = 256,
    height: int = 256,
) -> np.ndarray:
    """Feature matrix (n_clips x dim) for a list of analysis windows."""
    if mode not in FEATURE_MODES:
        raise FeatureError(f"unknown feature mode: {mode}")
    if mode == "cnn" and network is None:
        raise FeatureError("cnn feature mode requires a network")
    rows = []
    for clip in clips:
        image = to_image(stft_spectrogram(clip, params), width=width, height=height)
        if mode == "cnn":
            rows.append(extract_code(network, image))
        else:
            rows.append(image.pixels.astype(np.float64).ravel() / 255.0)
    return np.vstack(rows)


def save_features(path, X: np.ndarray) -> None:
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2:
        raise FeatureError("feature matrix must be 2-D")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", X.shape[0], X.shape[1]))
        fh.write(X.astype("<f4").tobytes())


def load_features(path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise FeatureError(f"{path}: truncated feature file header")
        n, dim = struct.unpack("<II", header)
        buf = fh.read(4 * n * dim)
        if len(buf) != 4 * n * dim:
            raise FeatureError(f"{path}: truncated feature payload")
    return np.frombuffer(buf, dtype="<f4").reshape(n, dim).astype(np.float64)


def save_labels(path, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "label"])
        for i, lab in enumerate(labels):
            writer.writerow([i, int(lab)])


def load_labels(path) -> np.ndarray:
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise FeatureError(f"{path}: empty label file")
    try:
        return np.asarray([int(r["label"]) for r in rows], dtype=np.int64)
    except (KeyError, TypeError, ValueError):
        raise FeatureError(f"{path}: every row needs an integer label") from None
