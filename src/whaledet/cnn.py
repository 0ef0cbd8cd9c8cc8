"""From-scratch CNN forward pass used as a feature extractor.

A network is an ordered list of layers (conv, relu, maxpool, fc, softmax);
the activations of a designated fully-connected layer are returned as the
feature code.  Convolution follows the cross-correlation convention (no
kernel flip).  Conv and fc layers apply ReLU intrinsically; flattening
before an fc layer is channel-major then row-major (C-order over C,H,W).

Weight file format ("CNNW", little-endian):

    magic      4 bytes  b"CNNW"
    version    u32      currently 1
    in_ch      u32      input channels
    in_h,in_w  u32,u32  input spatial dims
    code_idx   u32      index of the code fc layer
    mean_flag  u8       1 if a per-channel mean vector follows
    [mean      f32 * in_ch]
    n_layers   u32
    per layer:
      kind     u8       1=conv 2=relu 3=maxpool 4=fc 5=softmax
      conv:    out u32, in u32, kh u32, kw u32, stride u32, pad u32,
               weights f32[out*in*kh*kw] in (out, in, kh, kw) order,
               biases f32[out]
      fc:      out u32, in u32, weights f32[out*in], biases f32[out]
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAGIC = b"CNNW"
FORMAT_VERSION = 1

_KIND_CONV, _KIND_RELU, _KIND_MAXPOOL, _KIND_FC, _KIND_SOFTMAX = 1, 2, 3, 4, 5


class NetworkError(Exception):
    pass


class WeightFileError(NetworkError):
    """Base for weight-file parsing failures."""


class BadMagicError(WeightFileError):
    pass


class VersionMismatchError(WeightFileError):
    pass


class TruncatedFileError(WeightFileError):
    pass


class EmptyNetworkError(WeightFileError):
    pass


class ShapeChainError(NetworkError):
    """Layer shapes do not chain end to end."""


@dataclass(frozen=True)
class ConvLayer:
    weights: np.ndarray  # (out_ch, in_ch, kh, kw)
    bias: np.ndarray  # (out_ch,)
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class ReluLayer:
    """Elementwise max(x, 0)."""


@dataclass(frozen=True)
class MaxPoolLayer:
    """2x2 receptive field, stride 2; output area is 1/4 of the input."""


@dataclass(frozen=True)
class FcLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)


@dataclass(frozen=True)
class SoftmaxLayer:
    """Normalized exponentials of the flattened input."""


@dataclass(frozen=True)
class Network:
    layers: list = field(default_factory=list)
    code_layer_index: int = 0
    in_channels: int = 1
    in_height: int = 256
    in_width: int = 256
    channel_mean: np.ndarray | None = None

    @property
    def code_dim(self) -> int:
        return self.layers[self.code_layer_index].weights.shape[0]


def conv_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """ReLU(sum_n phi_in (*) x_n + b_i) per output channel, cross-correlation.

    Lowered to one matrix product (im2col): each output pixel's receptive
    field across all input channels becomes one column of a matrix that the
    flattened kernels multiply from the left.
    """
    x = np.asarray(x, dtype=np.float64)
    out_ch, _, kh, kw = layer.weights.shape
    s, p = layer.stride, layer.pad
    xp = np.pad(x, ((0, 0), (p, p), (p, p))) if p else x
    # (in_ch, out_h, out_w, kh, kw) view of every receptive field
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::s, ::s]
    out_h, out_w = windows.shape[1], windows.shape[2]
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(-1, out_h * out_w)
    out = (layer.weights.reshape(out_ch, -1) @ cols).reshape(out_ch, out_h, out_w)
    out += layer.bias[:, None, None]
    return np.maximum(out, 0.0, out=out)


def maxpool_forward(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling; trailing odd row/column is dropped."""
    x = np.asarray(x, dtype=np.float64)
    _, h, w = x.shape
    x = x[:, : h - h % 2, : w - w % 2]
    top = np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2])
    bottom = np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2])
    return np.maximum(top, bottom, out=top)


def fc_forward(x: np.ndarray, layer: FcLayer) -> np.ndarray:
    """ReLU(W @ flatten(x) + b); flattening is C-order over (C, H, W)."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    return np.maximum(layer.weights @ flat + layer.bias, 0.0)


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax; output sums to 1."""
    x = np.asarray(x, dtype=np.float64).ravel()
    e = np.exp(x - x.max())
    return e / e.sum()


def forward(net: Network, x: np.ndarray, upto: int | None = None) -> np.ndarray:
    """Run layers 0..upto inclusive (all layers when upto is None) on x of
    the input shape; validate_network has checked that the layers chain."""
    last = len(net.layers) - 1 if upto is None else upto
    for layer in net.layers[: last + 1]:
        if isinstance(layer, ConvLayer):
            x = conv_forward(x, layer)
        elif isinstance(layer, MaxPoolLayer):
            x = maxpool_forward(x)
        elif isinstance(layer, FcLayer):
            x = fc_forward(x, layer)
        elif isinstance(layer, SoftmaxLayer):
            x = softmax(x)
        else:  # ReluLayer
            x = np.maximum(x, 0.0)
    return x


def extract_code(net: Network, pixels: np.ndarray) -> np.ndarray:
    """Feature code of an in_height x in_width uint8 image: the activations
    of the designated fc layer.

    The image is scaled to [0, 1], replicated to the input channel count and
    shifted by the channel mean.  Layers after code_layer_index (top
    classifier and softmax) are skipped.
    """
    x = np.repeat(pixels[None, :, :].astype(np.float64) / 255.0,
                  net.in_channels, axis=0)
    if net.channel_mean is not None:
        x = x - net.channel_mean[:, None, None]
    return forward(net, x, upto=net.code_layer_index)


def validate_network(net: Network) -> None:
    """Walk the shape chain from the declared input; raise on any break.

    This is the only check of a network's shapes: the kernels and forward
    trust it, so load_network and tiny_vgg run it on every network they
    build."""
    if not net.layers:
        raise EmptyNetworkError("empty network")
    if not 0 <= net.code_layer_index < len(net.layers):
        raise ShapeChainError(
            f"code_layer_index {net.code_layer_index} out of range"
        )
    if not isinstance(net.layers[net.code_layer_index], FcLayer):
        raise ShapeChainError(
            f"code_layer_index {net.code_layer_index} is not an fc layer"
        )
    shape: tuple = (net.in_channels, net.in_height, net.in_width)
    for i, layer in enumerate(net.layers):
        if isinstance(layer, ConvLayer):
            if len(shape) != 3:
                raise ShapeChainError(f"layer {i}: conv after flattened input")
            out_ch, in_ch, kh, kw = layer.weights.shape
            if 0 in layer.weights.shape or layer.stride < 1:
                raise ShapeChainError(
                    f"layer {i}: conv with a zero dimension or stride")
            if in_ch != shape[0]:
                raise ShapeChainError(
                    f"layer {i}: conv expects {in_ch} channels, "
                    f"previous layer produces {shape[0]}"
                )
            h = (shape[1] + 2 * layer.pad - kh) // layer.stride + 1
            w = (shape[2] + 2 * layer.pad - kw) // layer.stride + 1
            if h < 1 or w < 1:
                raise ShapeChainError(f"layer {i}: conv output collapses to zero")
            shape = (out_ch, h, w)
        elif isinstance(layer, MaxPoolLayer):
            if len(shape) != 3:
                raise ShapeChainError(f"layer {i}: maxpool after flattened input")
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
            if shape[1] < 1 or shape[2] < 1:
                raise ShapeChainError(f"layer {i}: maxpool output collapses to zero")
        elif isinstance(layer, FcLayer):
            flat = math.prod(shape)
            out_dim, in_dim = layer.weights.shape
            if 0 in layer.weights.shape:
                raise ShapeChainError(f"layer {i}: fc with a zero dimension")
            if in_dim != flat:
                raise ShapeChainError(
                    f"layer {i}: fc expects input of length {in_dim}, "
                    f"previous layer produces {flat}"
                )
            shape = (out_dim,)
        elif isinstance(layer, SoftmaxLayer):
            shape = (math.prod(shape),)
        elif isinstance(layer, ReluLayer):
            pass
        else:
            raise NetworkError(f"layer {i}: unknown layer kind")


def _read(fh, fmt: str):
    size = struct.calcsize(fmt)
    buf = fh.read(size)
    if len(buf) != size:
        raise TruncatedFileError("truncated weight file")
    return struct.unpack("<" + fmt, buf)


def _read_f32(fh, *shape: int) -> np.ndarray:
    """The next float32 payload of the file as a float64 array of shape."""
    count = math.prod(shape)
    if 4 * count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise TruncatedFileError("truncated weight payload")
    # a zero dimension empties the payload, but numpy still refuses a shape
    # whose other dimensions overflow an array's size
    if math.prod(n or 1 for n in shape) > np.iinfo(np.intp).max // 8:
        raise WeightFileError(f"weight array of shape {shape} is too large")
    raw = np.frombuffer(fh.read(4 * count), dtype="<f4")
    values = raw.astype(np.float64).reshape(shape)
    if not np.isfinite(values).all():
        raise WeightFileError("NaN or infinite value in weight payload")
    return values


def load_network(path) -> Network:
    """Load and shape-validate a network from the CNNW binary format."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = _read(fh, "I")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"{path}: format version {version}, expected {FORMAT_VERSION}"
            )
        in_ch, in_h, in_w, code_idx = _read(fh, "IIII")
        (mean_flag,) = _read(fh, "B")
        mean = _read_f32(fh, in_ch) if mean_flag else None
        (n_layers,) = _read(fh, "I")
        if n_layers == 0:
            raise EmptyNetworkError(f"{path}: empty network")
        layers = []
        for _ in range(n_layers):
            (kind,) = _read(fh, "B")
            if kind == _KIND_CONV:
                out_c, in_c, kh, kw, stride, pad = _read(fh, "IIIIII")
                w = _read_f32(fh, out_c, in_c, kh, kw)
                b = _read_f32(fh, out_c)
                layers.append(ConvLayer(w, b, stride=stride, pad=pad))
            elif kind == _KIND_RELU:
                layers.append(ReluLayer())
            elif kind == _KIND_MAXPOOL:
                layers.append(MaxPoolLayer())
            elif kind == _KIND_FC:
                out_d, in_d = _read(fh, "II")
                w = _read_f32(fh, out_d, in_d)
                b = _read_f32(fh, out_d)
                layers.append(FcLayer(w, b))
            elif kind == _KIND_SOFTMAX:
                layers.append(SoftmaxLayer())
            else:
                raise WeightFileError(f"{path}: unknown layer kind tag {kind}")
    net = Network(
        layers=layers,
        code_layer_index=code_idx,
        in_channels=in_ch,
        in_height=in_h,
        in_width=in_w,
        channel_mean=mean,
    )
    validate_network(net)
    return net


def save_network(net: Network, path) -> None:
    """Serialize a network in the CNNW binary format."""
    validate_network(net)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(
            struct.pack(
                "<IIII", net.in_channels, net.in_height, net.in_width,
                net.code_layer_index,
            )
        )
        if net.channel_mean is not None:
            fh.write(struct.pack("<B", 1))
            fh.write(net.channel_mean.astype("<f4").tobytes())
        else:
            fh.write(struct.pack("<B", 0))
        fh.write(struct.pack("<I", len(net.layers)))
        for layer in net.layers:
            if isinstance(layer, ConvLayer):
                out_c, in_c, kh, kw = layer.weights.shape
                fh.write(struct.pack("<B", _KIND_CONV))
                fh.write(
                    struct.pack("<IIIIII", out_c, in_c, kh, kw, layer.stride, layer.pad)
                )
                fh.write(layer.weights.astype("<f4").tobytes())
                fh.write(layer.bias.astype("<f4").tobytes())
            elif isinstance(layer, ReluLayer):
                fh.write(struct.pack("<B", _KIND_RELU))
            elif isinstance(layer, MaxPoolLayer):
                fh.write(struct.pack("<B", _KIND_MAXPOOL))
            elif isinstance(layer, FcLayer):
                out_d, in_d = layer.weights.shape
                fh.write(struct.pack("<B", _KIND_FC))
                fh.write(struct.pack("<II", out_d, in_d))
                fh.write(layer.weights.astype("<f4").tobytes())
                fh.write(layer.bias.astype("<f4").tobytes())
            elif isinstance(layer, SoftmaxLayer):
                fh.write(struct.pack("<B", _KIND_SOFTMAX))
            else:
                raise NetworkError(f"cannot serialize layer {layer!r}")


def tiny_vgg(seed: int = 0, in_size: int = 256) -> Network:
    """Small seed-fixed random network for deterministic desk-scale runs.

    Two conv/pool pairs followed by two fc layers; the second is the 64-d
    code layer and the last.  It has no classifier head: extract_code stops at
    the code layer, and the linear SVM classifies the code.  Weights are
    He-initialized float32 so the network round-trips through the CNNW file
    format bit-exactly.  The fc layers get a small positive bias: with zero
    bias, randomly-initialized ReLU units die in droves and the code loses a
    third of its dimensions.
    """
    # side after each layer: the stride-2 convs round up, the pools down
    s = ((in_size + 1) // 2 // 2 + 1) // 2 // 2
    if s < 1:
        raise ShapeChainError(
            f"tiny-vgg needs images of 11 px or more, got {in_size}")
    rng = np.random.default_rng(seed)

    def he(shape, fan_in):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        return w.astype(np.float32).astype(np.float64)

    conv1 = ConvLayer(he((8, 1, 7, 7), 49), np.zeros(8), stride=2, pad=3)
    conv2 = ConvLayer(he((16, 8, 5, 5), 8 * 25), np.zeros(16), stride=2, pad=2)
    flat = 16 * s * s
    fc_bias = np.float32(0.1)
    fc1 = FcLayer(he((128, flat), flat), np.full(128, fc_bias, dtype=np.float64))
    fc2 = FcLayer(he((64, 128), 128), np.full(64, fc_bias, dtype=np.float64))
    net = Network(
        layers=[conv1, MaxPoolLayer(), conv2, MaxPoolLayer(), fc1, fc2],
        code_layer_index=5,
        in_channels=1,
        in_height=in_size,
        in_width=in_size,
    )
    validate_network(net)
    return net
