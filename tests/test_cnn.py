import numpy as np
import pytest

from naive_ref import naive_conv, naive_fc, naive_forward, naive_maxpool
from whaledet.cnn import (
    BadMagicError,
    ConvLayer,
    EmptyNetworkError,
    FcLayer,
    MaxPoolLayer,
    Network,
    ReluLayer,
    ShapeChainError,
    SoftmaxLayer,
    TruncatedFileError,
    VersionMismatchError,
    WeightFileError,
    conv_forward,
    extract_code,
    fc_forward,
    forward,
    load_network,
    maxpool_forward,
    save_network,
    softmax,
    tiny_vgg,
    validate_network,
)


def _rand_conv(rng, out_ch, in_ch, k, stride=1, pad=0):
    return ConvLayer(rng.standard_normal((out_ch, in_ch, k, k)),
                     rng.standard_normal(out_ch), stride=stride, pad=pad)


def test_identity_filter_under_relu():
    layer = ConvLayer(np.ones((1, 1, 1, 1)), np.zeros(1))
    x = np.abs(np.random.default_rng(0).standard_normal((1, 5, 5)))
    assert np.array_equal(conv_forward(x, layer), x)


def test_relu_clamps_negative_bias():
    layer = ConvLayer(np.random.default_rng(1).standard_normal((2, 1, 3, 3)),
                      np.full(2, -1.0))
    out = conv_forward(np.zeros((1, 6, 6)), layer)
    assert (out == 0.0).all()


def test_conv_matches_naive_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 8, 8))
    layer = _rand_conv(rng, 4, 3, 3)
    got = conv_forward(x, layer)
    want = naive_conv(x, layer.weights, layer.bias, 1, 0)
    assert np.abs(got - want).max() < 1e-5


def test_conv_stride_and_padding_match_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 9, 9))
    layer = _rand_conv(rng, 3, 2, 3, stride=2, pad=1)
    got = conv_forward(x, layer)
    want = naive_conv(x, layer.weights, layer.bias, 2, 1)
    assert got.shape == want.shape == (3, 5, 5)
    assert np.abs(got - want).max() < 1e-5


def test_conv_odd_sizes_stride_2_no_padding_match_oracle():
    # odd, non-square input: the last stride-2 window must stop short of
    # the trailing row and column, as in the nested-loop oracle
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 11, 9))
    layer = _rand_conv(rng, 5, 3, 4, stride=2, pad=0)
    got = conv_forward(x, layer)
    want = naive_conv(x, layer.weights, layer.bias, 2, 0)
    assert got.shape == want.shape == (5, 4, 3)
    assert np.abs(got - want).max() < 1e-12


def test_maxpool_block_maxima():
    x = np.arange(1, 17, dtype=float).reshape(1, 4, 4)
    assert np.array_equal(maxpool_forward(x)[0], [[6, 8], [14, 16]])


def test_maxpool_constant_halves_resolution():
    out = maxpool_forward(np.full((3, 6, 6), 2.5))
    assert out.shape == (3, 3, 3)
    assert (out == 2.5).all()


def test_maxpool_exhaustive_scan_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 8, 10))
    got = maxpool_forward(x)
    want = naive_maxpool(x)
    assert np.array_equal(got, want)
    assert got.shape[1] * got.shape[2] * 4 == x.shape[1] * x.shape[2]


def test_maxpool_odd_dims_drop_trailing():
    x = np.random.default_rng(5).standard_normal((1, 5, 7))
    assert maxpool_forward(x).shape == (1, 2, 3)


def test_fc_identity():
    layer = FcLayer(np.eye(6), np.zeros(6))
    x = np.abs(np.random.default_rng(6).standard_normal(6))
    assert np.allclose(fc_forward(x, layer), x)


def test_fc_zero_weights_relu_of_bias():
    bias = np.array([-1.0, 0.5, 2.0, -0.1])
    layer = FcLayer(np.zeros((4, 3)), bias)
    out = fc_forward(np.ones(3), layer)
    assert np.array_equal(out, np.maximum(bias, 0.0))


def test_fc_matches_naive_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 4))
    layer = FcLayer(rng.standard_normal((5, 24)), rng.standard_normal(5))
    got = fc_forward(x, layer)
    want = naive_fc(x, layer.weights, layer.bias)
    scale = np.maximum(np.abs(want), 1e-9)
    assert (np.abs(got - want) / scale).max() < 1e-6


def test_softmax_symmetry_and_shift_invariance():
    assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5])
    for c in (-7.0, 0.0, 123.0):
        assert np.allclose(softmax(np.full(3, c)), 1 / 3)


def test_softmax_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_random_networks_match_naive_forward():
    rng = np.random.default_rng(8)
    for _ in range(20):
        in_ch = int(rng.integers(1, 4))
        size = int(rng.integers(6, 17))
        x = rng.standard_normal((in_ch, size, size))
        c1 = _rand_conv(rng, int(rng.integers(1, 5)), in_ch, 3, pad=1)
        after_pool = (c1.weights.shape[0], size // 2, size // 2)
        flat = int(np.prod(after_pool))
        f1 = FcLayer(rng.standard_normal((8, flat)), rng.standard_normal(8))
        f2 = FcLayer(rng.standard_normal((4, 8)), rng.standard_normal(4))
        net = Network(layers=[c1, MaxPoolLayer(), f1, f2],
                      code_layer_index=3, in_channels=in_ch,
                      in_height=size, in_width=size)
        got = forward(net, x)
        want = naive_forward(
            [("conv", (c1.weights, c1.bias, 1, 1)), ("maxpool", None),
             ("fc", (f1.weights, f1.bias)), ("fc", (f2.weights, f2.bias))],
            x, 3)
        assert np.abs(got - want).max() < 1e-5


def test_relu_activations_nonnegative():
    rng = np.random.default_rng(9)
    net = tiny_vgg(in_size=32)
    img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    code = extract_code(net, img)
    assert (code >= 0).all()
    assert len(code) == net.code_dim == 64


def test_extract_code_identity_network():
    # 1x1 identity conv then identity fc: the code is the scaled input
    conv = ConvLayer(np.ones((1, 1, 1, 1)), np.zeros(1))
    fc = FcLayer(np.eye(16), np.zeros(16))
    net = Network(layers=[conv, fc], code_layer_index=1,
                  in_channels=1, in_height=4, in_width=4)
    img = np.full((4, 4), 128, dtype=np.uint8)
    code = extract_code(net, img)
    assert np.allclose(code, 128 / 255.0)


def test_extract_code_deterministic():
    net = tiny_vgg(in_size=32)
    img = np.random.default_rng(10).integers(0, 256, (32, 32), dtype=np.uint8)
    assert np.array_equal(extract_code(net, img), extract_code(net, img))


def test_extract_code_skips_top_layers():
    vgg = tiny_vgg(in_size=32)
    head = FcLayer(np.random.default_rng(13).standard_normal((2, 64)),
                   np.zeros(2))
    net = Network(layers=[*vgg.layers, head, SoftmaxLayer()],
                  code_layer_index=vgg.code_layer_index, in_channels=1,
                  in_height=32, in_width=32)
    validate_network(net)
    img = np.random.default_rng(11).integers(0, 256, (32, 32), dtype=np.uint8)
    code = extract_code(net, img)
    x = img[None] / 255.0
    assert np.array_equal(code, forward(net, x, upto=net.code_layer_index))
    assert np.array_equal(code, extract_code(vgg, img))
    assert forward(net, x).shape == (2,)  # the head runs only in forward


def test_golden_code_vector(tmp_path):
    # frozen golden produced by the naive-oracle forward pass (see
    # tests/data/README for the generation recipe)
    net = tiny_vgg(seed=0, in_size=32)
    rng = np.random.default_rng(1234)
    img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    from pathlib import Path
    golden_path = Path(__file__).parent / "data" / "tiny_vgg_golden_code.csv"
    golden = np.loadtxt(golden_path, delimiter=",")
    code = extract_code(net, img)
    assert np.abs(code - golden).max() < 1e-5


def test_network_file_round_trip(tmp_path):
    net = tiny_vgg(seed=3, in_size=32)
    p1 = tmp_path / "a.cnnw"
    p2 = tmp_path / "b.cnnw"
    save_network(net, p1)
    loaded = load_network(p1)
    save_network(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    img = np.random.default_rng(12).integers(0, 256, (32, 32), dtype=np.uint8)
    assert np.array_equal(extract_code(net, img), extract_code(loaded, img))


def test_weight_file_errors_are_distinct(tmp_path):
    path = tmp_path / "w.cnnw"

    path.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(BadMagicError):
        load_network(path)

    path.write_bytes(b"CNNW" + (99).to_bytes(4, "little") + b"\0" * 32)
    with pytest.raises(VersionMismatchError):
        load_network(path)

    import struct
    header = (b"CNNW" + struct.pack("<I", 1)
              + struct.pack("<IIII", 1, 8, 8, 0) + struct.pack("<B", 0))
    path.write_bytes(header + struct.pack("<I", 0))
    with pytest.raises(EmptyNetworkError):
        load_network(path)

    path.write_bytes(header + struct.pack("<I", 1) + struct.pack("<B", 4)
                     + struct.pack("<II", 4, 64))  # fc missing its payload
    with pytest.raises(TruncatedFileError):
        load_network(path)

    fc = header + struct.pack("<I", 1) + struct.pack("<B", 4) \
        + struct.pack("<II", 2, 64)
    weights, bias = np.zeros(128, "<f4"), np.zeros(2, "<f4")
    path.write_bytes(fc + weights.tobytes() + bias.tobytes())
    load_network(path)  # the finite file loads
    for bad_weights, bad_bias in ((np.nan, 0.0), (0.0, np.inf),
                                  (0.0, -np.inf)):
        w, b = weights.copy(), bias.copy()
        w[5], b[1] = w[5] + bad_weights, b[1] + bad_bias
        path.write_bytes(fc + w.tobytes() + b.tobytes())
        with pytest.raises(WeightFileError, match="NaN or infinite"):
            load_network(path)

    # a conv with a zero dimension, code layer an fc, has an empty payload
    # that validation refuses; with three more dimensions of 2**32 - 1 numpy
    # cannot even shape it
    conv = (b"CNNW" + struct.pack("<IIIIIBI", 1, 1, 8, 8, 1, 0, 2)
            + struct.pack("<B", 1))
    fc = struct.pack("<BII", 4, 2, 0) + bias.tobytes()
    path.write_bytes(conv + struct.pack("<6I", 0, 1, 3, 3, 1, 0) + fc)
    with pytest.raises(ShapeChainError, match="layer 0"):
        load_network(path)
    big = 2**32 - 1
    path.write_bytes(conv + struct.pack("<6I", 0, big, big, big, 1, 0) + fc)
    with pytest.raises(WeightFileError, match="too large"):
        load_network(path)


def test_shape_chain_error_names_layers(tmp_path):
    fc16 = FcLayer(np.zeros((8, 16)), np.zeros(8))  # takes the 1x4x4 input
    cases = [
        ([fc16, FcLayer(np.zeros((4, 99)), np.zeros(4))], "layer 1"),  # 99 != 8
        # the 1-channel input into a kernel of 3 channels
        ([ConvLayer(np.zeros((1, 3, 3, 3)), np.zeros(1)), fc16], "layer 0"),
        # a 5x5 kernel on the 4x4 input leaves no output pixel
        ([ConvLayer(np.zeros((1, 1, 5, 5)), np.zeros(1)), fc16], "layer 0"),
        # softmax flattens its input, so no spatial layer may follow it
        ([SoftmaxLayer(), MaxPoolLayer(), fc16], "layer 1"),
        ([SoftmaxLayer(), ConvLayer(np.zeros((1, 1, 1, 1)), np.zeros(1)),
          fc16], "layer 1"),
        # zero sizes, which the kernels cannot run
        ([ConvLayer(np.zeros((0, 1, 3, 3)), np.zeros(0)), fc16], "layer 0"),
        ([fc16, FcLayer(np.zeros((2, 0)), np.zeros(2))], "layer 1"),
        ([ConvLayer(np.zeros((1, 1, 1, 1)), np.zeros(1), stride=0), fc16],
         "layer 0"),
    ]
    path = tmp_path / "net.cnnw"
    for layers, named in cases:
        net = Network(layers=layers, code_layer_index=len(layers) - 1,
                      in_channels=1, in_height=4, in_width=4)
        with pytest.raises(ShapeChainError, match=named):
            validate_network(net)
        with pytest.raises(ShapeChainError, match=named):
            save_network(net, path)
        assert not path.exists()


def test_code_layer_must_be_fc():
    net = Network(layers=[ConvLayer(np.zeros((1, 1, 1, 1)), np.zeros(1)),
                          SoftmaxLayer()],
                  code_layer_index=0, in_channels=1, in_height=4, in_width=4)
    with pytest.raises(ShapeChainError):
        validate_network(net)


def test_relu_layer_passthrough():
    net = Network(layers=[ReluLayer(), FcLayer(np.eye(4), np.zeros(4))],
                  code_layer_index=1, in_channels=1, in_height=2, in_width=2)
    validate_network(net)
    out = forward(net, np.array([[[1.0, -2.0], [3.0, -4.0]]]))
    assert np.array_equal(out, [1.0, 0.0, 3.0, 0.0])
