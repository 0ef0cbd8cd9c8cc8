"""Whale sound-unit detection: spectrogram images, CNN-code features,
linear SVM, SNR-controlled dataset synthesis and Monte-Carlo evaluation."""

from .audio import (
    AudioClip,
    frame_windows,
    load_wav,
    mean_square_power,
    normalize_unit,
    save_wav,
)
from .cnn import (
    Network,
    extract_code,
    load_network,
    save_network,
    tiny_vgg,
)
from .evaluate import (
    ConfusionMatrix,
    MonteCarloResult,
    SweepResult,
    confusion,
    run_monte_carlo,
    snr_sweep,
)
from .features import featurize_clips
from .spectrogram import (
    GrayImage,
    Spectrogram,
    StftParams,
    stft_spectrogram,
    to_image,
)
from .svm import LabeledSet, SvmModel, decision_values, predict_batch, train
from .synth import (
    ExperimentConfig,
    MixedSample,
    NoiseBank,
    build_experiment,
    mix_at_snr,
    synth_noise,
    synth_whale_unit,
)

__version__ = "0.1.0"

__all__ = [
    "AudioClip", "frame_windows", "load_wav", "mean_square_power",
    "normalize_unit", "save_wav", "Network", "extract_code", "load_network",
    "save_network", "tiny_vgg", "ConfusionMatrix", "MonteCarloResult",
    "SweepResult", "confusion", "run_monte_carlo", "snr_sweep",
    "featurize_clips", "GrayImage", "Spectrogram", "StftParams",
    "stft_spectrogram", "to_image", "LabeledSet", "SvmModel",
    "decision_values", "predict_batch", "train", "ExperimentConfig",
    "MixedSample", "NoiseBank", "build_experiment", "mix_at_snr",
    "synth_noise", "synth_whale_unit",
]
