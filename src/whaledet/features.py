"""Window -> spectrogram -> image -> feature pipeline and feature-file IO.

featurize_clips(n, window, out) turns the windows window(0) .. window(n - 1)
into the n feature rows of out.  A row is the code vector of a network
(CNN features) or, with no network, the flattened gray image (spectrogram
features), so both representations can be compared on identical datasets.

Feature file format: u32 n_samples, u32 dim (little-endian), then n*dim
float32 values row-major.  Labels travel in a sibling CSV (sample_index,label).
"""

from __future__ import annotations

import csv
import os
import struct
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .audio import AudioClip, make_dir, pread_into
from .cnn import Network, extract_code
from .parallel import map_chunks
from .spectrogram import StftParams, stft_spectrogram, to_image


class FeatureError(Exception):
    pass


def feature_dim(network: Network | None, size: int) -> int:
    """The length of a feature row: the network's code, or with no network
    the size x size image's pixels."""
    return size * size if network is None else network.code_dim


def featurize_clips(
    n: int,
    window: Callable[[int], AudioClip],
    out: np.ndarray | FeatureWriter,
    network: Network | None = None,
    params: StftParams | None = None,
    size: int = 256,
) -> np.ndarray | FeatureWriter:
    """Feature rows for the analysis windows window(0) .. window(n - 1),
    each rendered as a size x size image, computed on the threads
    map_chunks chooses; row i is assigned as out[i] = row, and out is
    returned.  Rows are the network's codes, or with no network the
    image's pixels scaled to [0, 1], computed in float64 and rounded once
    on assignment.

    out has shape (n, feature_dim(network, size)).  It is an array, such
    as the float32 pool that sweep's folds read, or a FeatureWriter, which
    writes each row to its file as it is assigned, so that no n x dim
    matrix is held in memory.

    window(i) is called once, on the thread that fills row i, so a window
    that is read or built when asked for holds about one window per thread
    in memory, not all n of them."""
    if n < 1:
        raise FeatureError("no clips to featurize")

    def fill(indices) -> None:
        for i in indices:
            image = to_image(stft_spectrogram(window(i), params),
                             width=size, height=size)
            if network is None:
                out[i] = image.astype(np.float64).ravel() / 255.0
            else:
                out[i] = extract_code(network, image)

    map_chunks(fill, n)
    return out


class FeatureWriter:
    """A feature file written row by row: writer[i] = row rounds row once
    to little-endian float32 and writes it at byte 8 + 4 * dim * i, with
    one pwrite on one descriptor, so threads may write rows in any order.

    As a context manager it writes into a file that has no name yet:
    entering writes the header, leaving gives the file the name path, and
    any exception (MemoryError and KeyboardInterrupt too) discards it, so a
    run that fails leaves no feature file.  On Linux the file is opened
    with O_TMPFILE, so a process killed outright leaves none either; where
    O_TMPFILE is refused it is the hidden sibling .<name>.<pid>.tmp until
    it is renamed or removed.
    """

    def __init__(self, path, n: int, dim: int):
        self.path = Path(path)
        self.shape = (n, dim)
        if max(n, dim) >= 2 ** 32:
            raise FeatureError(f"{self.path}: {n} x {dim} features do not "
                               "fit the u32 header of a feature file")
        self._tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.tmp")

    def __enter__(self) -> "FeatureWriter":
        make_dir(self.path.parent)
        try:
            self._fd = os.open(self.path.parent,
                               os.O_TMPFILE | os.O_WRONLY, 0o666)
            self._named = False
        except (AttributeError, OSError):  # no O_TMPFILE here
            self._fd = os.open(self._tmp,
                               os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            self._named = True
        try:
            self._pwrite(struct.pack("<II", *self.shape), 0)
        except BaseException:
            self._close(keep=False)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._close(keep=exc_type is None)

    def __setitem__(self, i: int, row) -> None:
        dim = self.shape[1]
        self._pwrite(np.ascontiguousarray(row, dtype="<f4").reshape(dim),
                     8 + 4 * dim * i)

    def _pwrite(self, data, offset: int) -> None:
        size = memoryview(data).nbytes
        written = os.pwrite(self._fd, data, offset)
        if written != size:  # a full disk, for one
            raise FeatureError(f"{self.path}: short write, {written} of "
                               f"{size} bytes at byte {offset}")

    def _close(self, keep: bool) -> None:
        try:
            if keep and not self._named:
                # the unnamed file takes the name _tmp; a dir fd makes
                # os.link call linkat(AT_SYMLINK_FOLLOW), which links the
                # file and not the /proc symlink (the absolute path
                # ignores the fd)
                os.link(f"/proc/self/fd/{self._fd}", self._tmp,
                        src_dir_fd=self._fd)
        finally:
            os.close(self._fd)
        try:
            if keep:
                os.replace(self._tmp, self.path)
        finally:
            self._tmp.unlink(missing_ok=True)


def save_features(path, X: np.ndarray) -> None:
    X = np.asarray(X)
    if X.ndim != 2:
        raise FeatureError("feature matrix must be 2-D")
    with FeatureWriter(path, *X.shape) as out:
        for i, row in enumerate(X):
            out[i] = row


class FeatureReader:
    """An open feature file whose rows are read when asked for: opening it
    checks the header against the file's size, reader.shape is (n, dim),
    and reader.read(i, out) fills out, a C-contiguous float32 array of
    whole rows, from row i on with one pread, so threads may read rows in
    any order.  As a context manager it closes the file on leaving.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "rb", buffering=0)
        try:
            header = self._fh.read(8)
            if len(header) != 8:
                raise FeatureError(f"{self.path}: truncated feature file "
                                   "header")
            n, dim = struct.unpack("<II", header)
            if dim == 0:
                raise FeatureError(f"{self.path}: feature rows of length 0")
            if 4 * n * dim > os.fstat(self._fh.fileno()).st_size - 8:
                raise FeatureError(f"{self.path}: truncated feature payload "
                                   f"({n}x{dim} claimed)")
        except BaseException:
            self._fh.close()
            raise
        self.shape = (n, dim)

    def __enter__(self) -> "FeatureReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()

    def read(self, i: int, out: np.ndarray) -> np.ndarray:
        """out, filled from row i on; a file that shrank since it was
        opened raises FeatureError."""
        got = pread_into(self._fh.fileno(), out, 8 + 4 * self.shape[1] * i)
        if got != out.nbytes:
            raise FeatureError(f"{self.path}: short read of the feature "
                               f"payload, {got} of {out.nbytes} bytes at "
                               f"row {i}")
        return out


def load_features(path) -> np.ndarray:
    """The n x dim little-endian float32 matrix of a feature file."""
    with FeatureReader(path) as reader:
        return reader.read(0, np.empty(reader.shape, dtype="<f4"))


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
