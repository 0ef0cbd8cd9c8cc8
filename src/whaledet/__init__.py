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
    MonteCarloResult,
    confusion,
    run_monte_carlo,
)
from .features import featurize_clips
from .spectrogram import StftParams, stft_spectrogram, to_image
from .svm import SvmModel, decision_values, predict_batch, train
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
