"""Spans and counters recorded around calls into whaledet's public functions.

The tracer wraps module-level functions from outside the package: each
wrapper replaces the function under every name that refers to it in a
loaded ``whaledet`` module, so callers that imported it by name (for
example ``features.stft_spectrogram`` or ``cli.featurize_clips``) are
traced too.  A function that no longer exists is skipped and its layer
reports as absent.

Spans stay in memory (name, start, end, parent, operation id) and are
written out once, at the end of a run.  Counters are derived from call
arguments and results only: SVM epochs come from ``SvmModel.n_epochs``;
CNN flop and byte counts are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# layer name -> the functions ("module.function") whose time it sums
LAYERS = {
    "audio.load_wav": ["audio.load_wav"],
    "audio.frame_windows": ["audio.frame_windows"],
    "synth.build_experiment": ["synth.build_experiment"],
    "spectrogram.stft_spectrogram": ["spectrogram.stft_spectrogram"],
    "spectrogram.to_image": ["spectrogram.to_image"],
    "cnn.load_network": ["cnn.load_network"],
    "cnn.extract_code": ["cnn.extract_code"],
    "cnn.conv_forward": ["cnn.conv_forward"],
    "cnn.maxpool_forward": ["cnn.maxpool_forward"],
    "cnn.fc_forward": ["cnn.fc_forward"],
    "features.featurize_clips": ["features.featurize_clips"],
    "features.save_features": ["features.save_features"],
    "features.load_features": ["features.load_features"],
    "svm.train": ["svm.train"],
    "svm.predict": ["svm.predict_batch", "svm.predict", "svm.decision_value",
                    "svm.decision_values"],
    "evaluate.run_monte_carlo": ["evaluate.run_monte_carlo"],
    "cli.main": ["cli.main"],
}

# layers whose self time (duration minus traced callees) is reported
SELF_TIME_LAYERS = ("features.featurize_clips", "evaluate.run_monte_carlo",
                    "cli.main")

_SVM_MAX_ITER_DEFAULT = 1000


def _nbytes(*arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def _conv_counts(args, result):
    x, layer = args[0], args[1]
    out_ch, in_ch, kh, kw = layer.weights.shape
    out_positions = result.size // out_ch  # batch x out_h x out_w
    flop = 2 * out_ch * in_ch * kh * kw * out_positions
    return flop, _nbytes(x, layer.weights, layer.bias, result)


def _maxpool_counts(args, result):
    x = args[0]
    return 3 * result.size, _nbytes(x, result)  # 3 compares per 2x2 max


def _fc_counts(args, result):
    x, layer = args[0], args[1]
    out_dim, in_dim = layer.weights.shape
    rows = max(1, getattr(x, "size", in_dim) // in_dim)
    return 2 * out_dim * in_dim * rows, _nbytes(x, layer.weights, layer.bias,
                                                result)


_KERNEL_COUNTS = {
    "cnn.conv_forward": _conv_counts,
    "cnn.maxpool_forward": _maxpool_counts,
    "cnn.fc_forward": _fc_counts,
}


class Tracer:
    """Installs timing wrappers on whaledet functions and collects spans."""

    def __init__(self):
        self.spans: list[dict] = []
        # operation id -> counter name -> value
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.op_id: str = "-"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    # --- installation -------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "whaledet" or name.startswith("whaledet."))
                   and m is not None]
        for funcs in LAYERS.values():
            for qual in funcs:
                mod_name, func_name = qual.split(".")
                module = sys.modules.get(f"whaledet.{mod_name}")
                original = getattr(module, func_name, None)
                if not callable(original):
                    continue
                self.present.add(qual)
                wrapper = self._wrap(qual, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, qual, fn):
        counter = _KERNEL_COUNTS.get(qual)
        svm_defaults = None
        if qual == "svm.train":
            params = inspect.signature(fn).parameters
            default = params.get("max_iter")
            svm_defaults = (default.default if default is not None
                            else _SVM_MAX_ITER_DEFAULT)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"name": qual, "op": self.op_id, "parent": parent,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._count(qual, args, kwargs, result, counter, svm_defaults)
            return result

        return wrapper

    def _count(self, qual, args, kwargs, result, counter, svm_max_iter):
        c = self.counts[self.op_id]
        if counter is not None:
            flop, nbytes = counter(args, result)
            c["cnn.flop"] += flop
            c["cnn.bytes"] += nbytes
        elif qual == "cnn.extract_code":
            c["cnn.calls"] += 1
        elif qual == "svm.train":
            max_iter = kwargs.get("max_iter", svm_max_iter)
            n_train = len(args[0] if args else kwargs["data"])
            c["svm.folds"] += 1
            c["svm.epochs"] += result.n_epochs
            c["svm.coord_steps"] += result.n_epochs * n_train
            c["svm.capped"] += int(result.n_epochs >= max_iter)
        elif qual == "synth.build_experiment":
            c["synth.samples"] += len(result)
        elif qual == "spectrogram.stft_spectrogram":
            clips = args[0] if args else kwargs["clip"]
            c["spectrogram.windows"] += (len(clips) if isinstance(clips, list)
                                         else 1)
        elif qual == "features.featurize_clips":
            c["features.rows"] += result.shape[0]

    # --- bookkeeping --------------------------------------------------
    def _child_time(self) -> dict[int, float]:
        """Seconds each span spent in its traced callees, by span index."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return child_time

    def layer_times(self, op_ids) -> dict[str, dict[str, float]]:
        """Total and self seconds per layer over the spans of op_ids."""
        ops = set(op_ids)
        child_time = self._child_time()
        qual_to_layer = {q: layer for layer, qs in LAYERS.items() for q in qs}
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for i, s in enumerate(self.spans):
            if s["op"] not in ops:
                continue
            layer = qual_to_layer[s["name"]]
            duration = s["end"] - s["start"]
            parent = s["parent"]
            if parent is None or \
                    qual_to_layer[self.spans[parent]["name"]] != layer:
                out[layer]["s"] += duration  # nested calls count once
            out[layer]["self_s"] += duration - child_time[i]
        return dict(out)

    def absent_layers(self) -> list[str]:
        return [layer for layer, qs in LAYERS.items()
                if not any(q in self.present for q in qs)]

    def write(self, path) -> None:
        """All spans, each with its self time, and the absent layers."""
        child_time = self._child_time()
        for i, s in enumerate(self.spans):
            s["self"] = s["end"] - s["start"] - child_time[i]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent_layers()},
                      fh)
