"""Fuzzing of every file reader: each returns a well-formed result or raises
the package's own error for that file kind, never anything else.

Inputs are either arbitrary bytes or byte strings assembled from tokens of
the file's format.  Binary header counts are drawn only from a few small
values and 2**32 - 1, so no example asks for a mid-sized allocation.
"""

import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from whaledet.audio import AudioClip
from whaledet.cli import PipelineConfig, UsageError
from whaledet.cnn import Network, NetworkError, load_network, validate_network
from whaledet.features import FeatureError, load_features, load_labels
from whaledet.svm import SvmError, SvmModel, load_model
from whaledet.synth import SynthError, read_dataset

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

BIG = 2**32 - 1
COUNTS = (0, 1, 2, 3, BIG)
NOISE = (b" ", b"\n", b"\r\n", b",", b'"', b"#", b"\x00", b"\xff", b"x",
         b"-1", b"0", b"1", b"2.5", b"nan", b"inf", b"1e999",
         b"99999999999999999999")


def _files(*tokens: bytes):
    """Arbitrary bytes, or a concatenation of format and noise tokens."""
    token = st.one_of(st.sampled_from(tokens + NOISE), st.binary(max_size=3))
    return st.one_of(st.binary(max_size=48),
                     st.lists(token, max_size=24).map(b"".join))


def _truncations(valid: bytes):
    return st.integers(0, len(valid)).map(lambda k: valid[:k])


def _u32s(n: int):
    return st.lists(st.sampled_from(COUNTS), min_size=n, max_size=n).map(
        lambda vals: struct.pack(f"<{n}I", *vals))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


CONFIG_KEYS = tuple(f.name.encode() for f in fields(PipelineConfig)) + (b"=",)


@FUZZ
@given(_files(*CONFIG_KEYS))
@example(b"seed=1\n\xff\n")
def test_config_reader(scratch, data):
    try:
        cfg = PipelineConfig.from_file(_write(scratch / "run.cfg", data))
    except UsageError:
        return
    default = PipelineConfig()
    for f in fields(cfg):
        assert type(getattr(cfg, f.name)) is type(getattr(default, f.name))


@FUZZ
@given(_files(b"sample_index", b"label"))
@example(b"sample_index,label\n0,\xff\n")
@example(b"sample_index,label\n0,99999999999999999999\n")
def test_labels_reader(scratch, data):
    try:
        labels = load_labels(_write(scratch / "x.labels.csv", data))
    except FeatureError:
        return
    assert labels.dtype == np.int64 and labels.ndim == 1 and len(labels) > 0


@FUZZ
@given(_files(b"3 1.0 0.5\n", b"0.25\n"))
@example(b"1 1.0 0.0\n\xff\n")
def test_model_reader(scratch, data):
    try:
        model = load_model(_write(scratch / "model.txt", data))
    except SvmError:
        return
    assert isinstance(model, SvmModel)
    assert model.weights.ndim == 1
    assert np.isfinite([model.c_param, model.bias, *model.weights]).all()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    wavfile.write(str(root / "s0.wav"), 8000, np.ones(800, dtype=np.float32))
    return root


@FUZZ
@given(_files(b"sample_id", b"label", b"s0.wav", b"missing.wav"))
@example(b"sample_id,label\ns0.wav,1\xff\n")
@example(b"sample_id,label\ns0.wav,99999999999999999999\n")
def test_dataset_reader(dataset_dir, data):
    _write(dataset_dir / "manifest.csv", data)
    try:
        clips, labels = read_dataset(dataset_dir)
    except SynthError:
        return
    assert all(isinstance(c, AudioClip) for c in clips)
    assert labels.dtype == np.int64 and labels.shape == (len(clips),)


def _f32(n: int) -> bytes:
    return np.linspace(-1.0, 1.0, n).astype("<f4").tobytes()


VALID_FEATURES = struct.pack("<II", 3, 2) + _f32(6)

# 1x4x4 input with a mean, conv 2x1x3x3 (stride 1, pad 1), relu, maxpool,
# then the code layer fc 3x8
VALID_NETWORK = (
    b"CNNW" + struct.pack("<IIIIIB", 1, 1, 4, 4, 3, 1) + _f32(1)
    + struct.pack("<I", 4)
    + struct.pack("<B6I", 1, 2, 1, 3, 3, 1, 1) + _f32(18) + _f32(2)
    + bytes([2, 3])
    + struct.pack("<BII", 4, 3, 8) + _f32(24) + _f32(3)
)


@FUZZ
@given(st.one_of(st.tuples(_u32s(2), st.binary(max_size=40)).map(b"".join),
                 _truncations(VALID_FEATURES)))
@example(VALID_FEATURES)
@example(struct.pack("<II", BIG, BIG) + bytes(8))
def test_feature_reader(scratch, data):
    try:
        X = load_features(_write(scratch / "x.feat", data))
    except FeatureError:
        return
    n, dim = struct.unpack("<II", data[:8])
    assert X.dtype == np.float32 and X.shape == (n, dim)


def _network_files():
    """CNNW files (magic and version intact) whose layers carry the right
    number of u32 counts, followed by zero-filled payloads of any length."""
    payload = st.sampled_from([0, 4, 8, 36]).map(bytes)
    layer = st.one_of(
        st.tuples(st.just(b"\x01"), _u32s(6), payload),  # conv
        st.tuples(st.just(b"\x04"), _u32s(2), payload),  # fc
        st.sampled_from([b"\x00", b"\x02", b"\x03", b"\x05", b"\x06"])
        .map(lambda tag: (tag,)),
    ).map(b"".join)
    head = st.tuples(
        st.just(VALID_NETWORK[:8]), _u32s(4),
        st.sampled_from([b"\x00", b"\x01" + bytes(4), b"\x02"]), _u32s(1),
    ).map(b"".join)
    layers = st.lists(layer, min_size=1, max_size=4).map(b"".join)
    return st.tuples(head, layers).map(b"".join)


@FUZZ
@given(st.one_of(_network_files(), _truncations(VALID_NETWORK)))
@example(VALID_NETWORK)
@example(b"CNNW" + struct.pack("<IIIIIBI", 1, 1, 4, 4, 0, 0, 1)
         + struct.pack("<BII", 4, BIG, BIG))
def test_network_reader(scratch, data):
    try:
        net = load_network(_write(scratch / "x.cnnw", data))
    except NetworkError:
        return
    assert isinstance(net, Network)
    validate_network(net)
