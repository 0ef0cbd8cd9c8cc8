"""Fuzzing of every file reader: each returns a well-formed result or raises
the package's own error for that file kind, never anything else.

Inputs are either arbitrary bytes or byte strings assembled from tokens of
the file's format.  Binary header counts are drawn only from a few small
values and 2**32 - 1, so no example asks for a mid-sized allocation.
"""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from naive_ref import scipy_wav_samples
from scipy.io import wavfile

from whaledet.audio import (
    AudioClip,
    AudioError,
    EmptyAudioError,
    NonFiniteAudioError,
    SampleRateMismatchError,
    UnreadableFileError,
    UnsupportedEncodingError,
    load_wav,
    open_wav,
)
from whaledet.cli import PipelineConfig, UsageError
from whaledet.cnn import (
    Network,
    NetworkError,
    forward,
    load_network,
    validate_network,
)
from whaledet.features import (
    FeatureError,
    FeatureReader,
    load_features,
    load_labels,
)
from whaledet.svm import SvmError, SvmModel, load_model
from whaledet.synth import SynthError, dataset_loader

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
        load, labels = dataset_loader(dataset_dir, 8000)
        clips = [load(i) for i in range(len(labels))]
    except (SynthError, AudioError):  # a bad manifest, or a bad row's WAV
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
    # the row reader that evaluate's folds use opens exactly the files that
    # load_features reads, and reads the same rows
    path = _write(scratch / "x.feat", data)
    try:
        X = load_features(path)
    except FeatureError:
        with pytest.raises(FeatureError):
            FeatureReader(path)
        return
    n, dim = struct.unpack("<II", data[:8])
    assert X.dtype == np.float32 and X.shape == (n, dim)
    with FeatureReader(path) as reader:
        assert reader.shape == (n, dim)
        for i in reversed(range(n)):
            row = reader.read(i, np.empty(dim, dtype="<f4"))
            assert row.tobytes() == X[i].tobytes()


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


# 1x4x4 input, no mean, code layer 2: a softmax, which flattens its input to
# 16 values, then a maxpool or a conv, then an fc that takes 4 or 16 values
SOFTMAX_THEN_MAXPOOL = (
    b"CNNW" + struct.pack("<IIIIIBI", 1, 1, 4, 4, 2, 0, 3) + bytes([5, 3])
    + struct.pack("<BII", 4, 3, 4) + _f32(12) + _f32(3)
)
SOFTMAX_THEN_CONV = (
    b"CNNW" + struct.pack("<IIIIIBI", 1, 1, 4, 4, 2, 0, 3) + bytes([5])
    + struct.pack("<B6I", 1, 1, 1, 1, 1, 1, 0) + _f32(1) + _f32(1)
    + struct.pack("<BII", 4, 3, 16) + _f32(48) + _f32(3)
)


@FUZZ
@given(st.one_of(_network_files(), _truncations(VALID_NETWORK)))
@example(VALID_NETWORK)
@example(b"CNNW" + struct.pack("<IIIIIBI", 1, 1, 4, 4, 0, 0, 1)
         + struct.pack("<BII", 4, BIG, BIG))
# a conv of zero output channels: an empty payload, and three dimensions
# that numpy cannot shape
@example(b"CNNW" + struct.pack("<IIIIIBI", 1, 1, 4, 4, 0, 0, 1)
         + struct.pack("<B6I", 1, 0, BIG, BIG, BIG, 1, 0))
@example(SOFTMAX_THEN_MAXPOOL)
@example(SOFTMAX_THEN_CONV)
def test_network_reader(scratch, data):
    # a network that loads runs forward on an input of its declared shape
    try:
        net = load_network(_write(scratch / "x.cnnw", data))
    except NetworkError:
        return
    assert isinstance(net, Network)
    validate_network(net)
    shape = (net.in_channels, net.in_height, net.in_width)
    assume(math.prod(shape) <= 65536)  # no case allocates a huge image
    forward(net, np.zeros(shape))


def _chunk(cid: bytes, payload: bytes, size=None) -> bytes:
    size = len(payload) if size is None else size
    return cid + struct.pack("<I", size) + payload + bytes(len(payload) % 2)


_OTHER_CHUNKS = (_chunk(b"LIST", b"abc"), _chunk(b"JUNK", b""),
                 _chunk(b"zzzz", b"12"), _chunk(b"fact", b"1234"), b"LI")

# the GUID tail of a WAVE_FORMAT_EXTENSIBLE subformat
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x008\x9bq"


def _pcm16_or_float32(tag: int, width: int, bits: int) -> bool:
    """Whether wavfile.read types samples of this format tag (after the
    subformat GUID), sample width and bit depth as int16 or float32."""
    return (tag == 1 and width == 2 and (bits == 0 or 9 <= bits <= 64)
            or tag == 3 and width == 4 and bits in (32, 64))


def _wav_example(tag, width, bits, payload, magic=b"RIFF", subformat=None):
    """A mono 8 kHz WAV holding payload in one format, as _wav_files draws
    it: (bytes, magic, whether its format is PCM16 or float32).  A RIFX
    file's sizes are big-endian.  An RF64 file's data chunk header gives
    the size as 2**32 - 1, as RF64 writers do, and another chunk follows."""
    order = ">" if magic == b"RIFX" else "<"
    fmt = struct.pack(order + "HHIIHH", tag, 1, 8000, 8000 * width, width,
                      bits)
    if subformat is not None:  # tag 0xFFFE
        fmt += struct.pack("<HHII", 22, bits, 0, subformat) + GUID_TAIL
    body = (b"fmt " + struct.pack(order + "I", len(fmt)) + fmt + b"data"
            + struct.pack(order + "I", BIG if magic == b"RF64" else len(payload))
            + payload + bytes(len(payload) % 2))
    if magic == b"RF64":
        body += _OTHER_CHUNKS[0]
        head = b"RF64" + bytes([255] * 4) + b"WAVEds64" + struct.pack(
            "<IQQ", 28, len(body) + 40, len(payload)) + bytes(12)
    else:
        head = magic + struct.pack(order + "I", len(body) + 4) + b"WAVE"
    return head + body, magic, _pcm16_or_float32(
        tag if subformat is None else subformat, width, bits)


@st.composite
def _wav_files(draw):
    """WAV files near the PCM16 and float32 layouts: fmt fields, chunk
    order and sizes, RIFF and RF64 headers, each sometimes off.  Each is
    drawn as (bytes, magic, whether its drawn format is PCM16 or float32)."""
    if draw(st.integers(0, 9)) < 7:
        tag, width, bits = draw(st.sampled_from(
            [(1, 2, 16), (3, 4, 32), (1, 2, 12), (3, 8, 64), (1, 1, 8),
             (1, 3, 24)]))
        channels = draw(st.sampled_from([1, 1, 2, 3]))
        rate = draw(st.sampled_from([8000, 8000, 16000]))
    else:
        tag = draw(st.sampled_from([1, 3, 0xFFFE, 2]))
        channels = draw(st.sampled_from([0, 1, 2, 3]))
        rate = draw(st.sampled_from([8000, 16000]))
        width = draw(st.sampled_from([0, 1, 2, 3, 4, 6, 8]))
        bits = draw(st.sampled_from([0, 8, 12, 16, 24, 32, 64, 65]))
    block = width * channels
    byte_rate = rate * block + draw(st.sampled_from([0] * 5 + [1]))
    fmt = struct.pack("<HHIIHH", tag, channels, rate, byte_rate, block, bits)
    if tag == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: a subformat GUID
        tag = draw(st.sampled_from([1, 3, 5]))
        fmt += (struct.pack("<HHII", draw(st.sampled_from([22, 10])), bits,
                            0, tag) + GUID_TAIL)
    fmt += draw(st.sampled_from([b"", b"\0\0", b"x"]))
    fmt = _chunk(b"fmt ", fmt,
                 draw(st.sampled_from([None] * 6 + [14, len(fmt) + 8])))
    n = draw(st.integers(0, 40))
    payload = draw(st.one_of(
        st.binary(min_size=n, max_size=n),
        st.lists(st.sampled_from([0.5, -0.25, 1.0, np.nan]), max_size=10)
        .map(lambda v: np.array(v, "<f4").tobytes())))
    data = _chunk(b"data", payload, draw(st.sampled_from(
        [None] * 4 + [len(payload) + 6, 0, max(len(payload) - 1, 0), BIG])))
    body = b""
    for part in draw(st.sampled_from(["fd"] * 6 + ["df", "fdd", "ffd", "d",
                                                   "fdf"])):
        body += fmt + b"".join(draw(st.lists(
            st.sampled_from(_OTHER_CHUNKS[:3]), max_size=2))) \
            if part == "f" else data
    body += b"".join(draw(st.lists(st.sampled_from(_OTHER_CHUNKS),
                                   max_size=2)))
    size = draw(st.sampled_from([len(body) + 4] * 5
                                + [len(body) + 100, 2, max(len(body) - 10, 0)]))
    if draw(st.integers(0, 5)):
        magic = draw(st.sampled_from([b"RIFF"] * 6 + [b"RIFX", b"XXXX"]))
        head = (magic + struct.pack("<I", size)
                + draw(st.sampled_from([b"WAVE"] * 8 + [b"AVI "])))
    else:  # RF64: the sizes sit in a ds64 chunk
        magic = b"RF64"
        head = magic + bytes([255] * 4) + b"WAVEds64" + struct.pack(
            "<IQQ", draw(st.sampled_from([28, 16, 4])), size, draw(
                st.sampled_from([len(payload), len(payload) + 6, 0, 3]))) \
            + bytes(12)
    wav = head + body
    return (wav[:draw(st.sampled_from([len(wav)] * 6
                                      + [len(wav) - 1, len(wav) - 3, 30, 50]))],
            magic, _pcm16_or_float32(tag, width, bits))


_F32 = np.array([0.5, -0.25, 1.0, 0.0], "<f4").tobytes()
_I16 = np.array([1, -1, 32767, -32768], "<i2").tobytes()


def _pcm16_fmt(rate=8000, byte_rate=None) -> bytes:
    """The fmt chunk of mono PCM16 at rate Hz."""
    return _chunk(b"fmt ", struct.pack(
        "<HHIIHH", 1, 1, rate, 2 * rate if byte_rate is None else byte_rate,
        2, 16))


def _riff(*chunks):
    """A RIFF WAV of these chunks, with the magic and the PCM16 format
    flag that _wav_files draws with it."""
    body = b"".join(chunks)
    return (struct.pack("<4sI4s", b"RIFF", len(body) + 4, b"WAVE") + body,
            b"RIFF", True)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_wav_files())
@example(_riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4,
                                           16)),
               _chunk(b"data", struct.pack("<4h", 1, -1, 32767, -32768))))
# each side of the line between the formats read and the formats refused
@example(_wav_example(1, 1, 8, bytes([0, 64, 128, 255])))  # unsigned 8-bit
@example(_wav_example(1, 2, 12, _I16))  # 12 bits in 2 bytes: int16
@example(_wav_example(1, 2, 0, _I16))  # no bit depth, 2 bytes: int16
@example(_wav_example(1, 2, 64, _I16))  # 64 bits in 2 bytes: int16
@example(_wav_example(1, 2, 65, _I16))  # 65-bit integers
@example(_wav_example(1, 3, 24, bytes(range(12))))  # 24-bit packed
@example(_wav_example(1, 4, 32, bytes(range(16))))  # 32-bit integers
@example(_wav_example(3, 8, 64, np.array([0.5, -0.25], "<f8").tobytes()))
@example(_wav_example(3, 4, 64, _F32))  # float tag, 64 bits in 4 bytes
@example(_wav_example(0xFFFE, 4, 32, _F32, subformat=3))  # extensible float
@example(_wav_example(3, 4, 32, _F32, magic=b"RF64"))
# big-endian PCM16, which wavfile.read reads as >i2
@example(_wav_example(1, 2, 16, np.array([1, -1, 32767, -32768], ">i2")
                      .tobytes(), magic=b"RIFX"))
# a PCM byte rate other than the rate times the block size
@example(_riff(_pcm16_fmt(byte_rate=16001), _chunk(b"data", _I16)))
# the last fmt chunk and the last data chunk are read; wavfile.read looks
# for the chunk after an odd-sized data chunk of 16-bit samples one byte
# past the last whole sample, where a file without the pad byte has it
@example(_riff(_pcm16_fmt(16000), _pcm16_fmt(),
               b"data" + struct.pack("<I", 5) + b"abcde",
               _chunk(b"data", _I16)))
def test_wav_reader(scratch, wav):
    # whaledet parses WAV headers itself, so that a window's samples can be
    # read alone; it reads the files that scipy's wavfile.read reads as
    # int16 or float32, with the same samples, and refuses every other file
    # with the error class that reading through wavfile.read raised, except
    # that the header's rate is now checked before the samples.  It refuses
    # a big-endian (RIFX) file as an unsupported format at once; and where
    # wavfile.read raised its own error on a file of another sample format,
    # the class is UnsupportedEncodingError when the header walk meets that
    # format, and UnreadableFileError when the walk fails first
    data, magic, supported = wav
    path = _write(scratch / "x.wav", data)
    try:
        rate, want = scipy_wav_samples(path)
    except ValueError as exc:
        want = {"encoding": UnsupportedEncodingError,
                "empty": EmptyAudioError}.get(str(exc), UnreadableFileError)
    except Exception:
        want = UnreadableFileError
    else:
        if rate != 8000:
            want = SampleRateMismatchError
        elif not np.isfinite(want).all():
            want = NonFiniteAudioError
    if magic == b"RIFX":
        want = UnsupportedEncodingError
    elif want is UnreadableFileError and not supported:
        want = (UnsupportedEncodingError, UnreadableFileError)
    if isinstance(want, np.ndarray):
        clip = load_wav(path, 8000)
        assert clip.samples.tobytes() == want.tobytes()
        assert clip.sample_rate_hz == 8000
        return
    with pytest.raises(want):
        load_wav(path, 8000)
    if want is not NonFiniteAudioError:  # a header fault
        with pytest.raises(want):
            open_wav(path, 8000)
