"""Independent brute-force reference implementations used as test oracles.

Deliberately written as plain nested loops with no shared code paths with
the package under test.
"""

import math

import numpy as np


def naive_dft_magnitudes(samples, segment_len, hop, fft_size):
    """One-sided |DFT| per Hamming-windowed, zero-padded segment."""
    n_frames = (len(samples) - segment_len) // hop + 1
    n_bins = fft_size // 2 + 1
    window = [0.54 - 0.46 * math.cos(2 * math.pi * n / (segment_len - 1))
              for n in range(segment_len)]
    mags = np.zeros((n_bins, n_frames))
    for t in range(n_frames):
        seg = [samples[t * hop + n] * window[n] for n in range(segment_len)]
        for f in range(n_bins):
            re = 0.0
            im = 0.0
            for n in range(segment_len):  # zero padding adds nothing
                angle = -2.0 * math.pi * f * n / fft_size
                re += seg[n] * math.cos(angle)
                im += seg[n] * math.sin(angle)
            mags[f, t] = math.hypot(re, im)
    return mags


def naive_dft_frame(segment, fft_size):
    """Full complex DFT of one already-windowed segment (vectorized DFT matrix,
    still independent of numpy.fft)."""
    n = np.arange(len(segment))
    k = np.arange(fft_size)
    basis = np.exp(-2j * np.pi * np.outer(k, n) / fft_size)
    return basis @ np.asarray(segment)


def naive_conv(x, weights, bias, stride, pad):
    """Six-nested-loop cross-correlation with ReLU."""
    out_ch, in_ch, kh, kw = weights.shape
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((out_ch, out_h, out_w))
    for o in range(out_ch):
        for i in range(out_h):
            for j in range(out_w):
                acc = bias[o]
                for n in range(in_ch):
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += (weights[o, n, dy, dx]
                                    * xp[n, i * stride + dy, j * stride + dx])
                out[o, i, j] = max(acc, 0.0)
    return out


def naive_maxpool(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for n in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                block = [x[n, 2 * i, 2 * j], x[n, 2 * i, 2 * j + 1],
                         x[n, 2 * i + 1, 2 * j], x[n, 2 * i + 1, 2 * j + 1]]
                out[n, i, j] = max(block)
    return out


def naive_fc(x, weights, bias):
    flat = np.asarray(x).ravel()
    out = np.zeros(weights.shape[0])
    for i in range(weights.shape[0]):
        acc = bias[i]
        for j in range(weights.shape[1]):
            acc += weights[i, j] * flat[j]
        out[i] = max(acc, 0.0)
    return out


def naive_forward(layers, x, upto):
    """Run a list of (kind, payload) layer descriptions through the naive ops."""
    for kind, payload in layers[: upto + 1]:
        if kind == "conv":
            w, b, stride, pad = payload
            x = naive_conv(x, w, b, stride, pad)
        elif kind == "maxpool":
            x = naive_maxpool(x)
        elif kind == "fc":
            w, b = payload
            x = naive_fc(x, w, b)
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            raise ValueError(kind)
    return x


def naive_dual_cd(X, labels, c_param=1.0, tol=1e-4, max_iter=1000, seed=0):
    """Dual coordinate descent for the hinge-loss SVM, stepping the full
    (d + 1)-dimensional weight vector at every coordinate: O(d) per step.

    Returns (weights, bias, dual_coef, n_epochs).
    """
    n, d = X.shape
    y = np.where(labels == 1, 1.0, -1.0)
    Xa = np.hstack([X, np.ones((n, 1))])
    q_diag = np.einsum("ij,ij->i", Xa, Xa)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    rng = np.random.default_rng(seed)
    epochs = 0
    for epoch in range(max_iter):
        epochs = epoch + 1
        max_violation = 0.0
        for i in rng.permutation(n):
            g = y[i] * (w @ Xa[i]) - 1.0
            if alpha[i] == 0.0:
                pg = min(g, 0.0)
            elif alpha[i] == c_param:
                pg = max(g, 0.0)
            else:
                pg = g
            max_violation = max(max_violation, abs(pg))
            if pg != 0.0 and q_diag[i] > 0.0:
                new_alpha = min(max(alpha[i] - g / q_diag[i], 0.0), c_param)
                if new_alpha != alpha[i]:
                    w += (new_alpha - alpha[i]) * y[i] * Xa[i]
                    alpha[i] = new_alpha
        if max_violation < tol:
            break
    return w[:d], float(w[d]), alpha, epochs
