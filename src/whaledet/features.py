"""Window -> spectrogram -> image -> feature pipeline and feature-file IO.

A row is the code vector of a network (CNN features) or, with no network,
the flattened gray image (spectrogram features), so both representations
can be compared on identical datasets.

Feature file format: u32 n_samples, u32 dim (little-endian), then n*dim
float32 values row-major.  Labels travel in a sibling CSV (sample_index,label).
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

from .audio import AudioClip
from .cnn import Network, extract_code
from .parallel import map_chunks
from .spectrogram import StftParams, stft_spectrogram, to_image


class FeatureError(Exception):
    pass


def featurize_clips(
    clips: list[AudioClip],
    network: Network | None = None,
    params: StftParams | None = None,
    size: int = 256,
    dtype=np.float64,
) -> np.ndarray:
    """Feature matrix (n_clips x dim) of the given dtype for a list of
    analysis windows, each rendered as a size x size image, computed on the
    threads map_chunks chooses.  Rows are the network's codes, or with no
    network the image's pixels scaled to [0, 1], computed in float64 and
    rounded once into the matrix."""
    if not clips:
        raise FeatureError("no clips to featurize")
    # Rows go straight into one matrix.  Kept as separate arrays until the
    # end, they sit in the heap among other windows' temporaries: on two
    # threads, the peak memory of featurizing 160 windows to 65 536-d rows
    # then rose by 50 MB in half the runs.
    X = np.empty((len(clips),
                  size * size if network is None else network.code_dim),
                 dtype=dtype)

    def fill(indices) -> None:
        for i in indices:
            image = to_image(stft_spectrogram(clips[i], params),
                             width=size, height=size)
            if network is None:
                X[i] = image.astype(np.float64).ravel() / 255.0
            else:
                X[i] = extract_code(network, image)

    map_chunks(fill, len(clips))
    return X


def save_features(path, X: np.ndarray) -> None:
    # written from the buffer of X when it is little-endian row-major
    # float32 already, else from one such copy
    X = np.ascontiguousarray(X, dtype="<f4")
    if X.ndim != 2:
        raise FeatureError("feature matrix must be 2-D")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", X.shape[0], X.shape[1]))
        fh.write(X)


def load_features(path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise FeatureError(f"{path}: truncated feature file header")
        n, dim = struct.unpack("<II", header)
        if dim == 0:
            raise FeatureError(f"{path}: feature rows of length 0")
        if 4 * n * dim > os.fstat(fh.fileno()).st_size - fh.tell():
            raise FeatureError(
                f"{path}: truncated feature payload ({n}x{dim} claimed)")
        X = np.empty((n, dim), dtype="<f4")
        if fh.readinto(X) != X.nbytes:
            raise FeatureError(f"{path}: short read of the feature payload")
    return X


def save_labels(path, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "label"])
        for i, lab in enumerate(labels):
            writer.writerow([i, int(lab)])


def load_labels(path) -> np.ndarray:
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FeatureError(f"{path}: unreadable label file: {exc}") from None
    if not rows:
        raise FeatureError(f"{path}: empty label file")
    try:
        return np.asarray([int(r["label"]) for r in rows], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise FeatureError(f"{path}: every row needs an integer label") from None
