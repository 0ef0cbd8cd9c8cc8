"""Whale sound-unit detection: spectrogram images, CNN-code features,
linear SVM, SNR-controlled dataset synthesis and Monte-Carlo evaluation."""

from . import audio, cnn, evaluate, features, spectrogram, svm, synth

__version__ = "0.1.0"
