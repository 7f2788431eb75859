"""Audio front end: WAV loading and log-mel filterbank extraction.

Frames are fully contained in the signal (no centering or reflective
padding), which keeps the frame/timestep arithmetic of the acoustic
model exact under chunked streaming. The filterbank uses the HTK mel
scale with unit-peak triangles; every knob lives in FeatureConfig and
travels with saved model weights.
"""
from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
from scipy.signal import get_window

from .errors import AudioFormatError

SAMPLE_RATE = 16000

# Frames per FFT block in logmel. The spectrum of a whole long clip is the
# largest transient of the pipeline (about 55 MiB of complex and power
# arrays for 90 s); blocks keep it to a few MiB, and since each row's FFT
# and filterbank product stand alone the output is the same.
_STFT_BLOCK = 1024


@dataclass(frozen=True)
class AudioClip:
    """Mono 16 kHz float samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float32))
        if self.samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if self.sample_rate != SAMPLE_RATE:
            raise ValueError(f"sample_rate must be {SAMPLE_RATE}, got {self.sample_rate}")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FeatureConfig:
    window_length: float = 0.020
    hop_length: float = 0.010
    fft_size: int = 512
    mel_bins: int = 64
    fmin: float = 0.0
    fmax: float = 8000.0
    log_epsilon: float = 2.0 ** -24

    def __post_init__(self):
        if self.mel_bins < 1:
            raise ValueError("mel_bins must be >= 1")
        if self.fft_size < self.window_samples:
            raise ValueError("fft_size must cover the analysis window")
        if not 0 <= self.fmin < self.fmax <= SAMPLE_RATE / 2:
            raise ValueError("need 0 <= fmin < fmax <= Nyquist")
        if self.hop_samples < 1 or self.window_samples < 1:
            raise ValueError("window and hop must be positive")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_length * SAMPLE_RATE))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_length * SAMPLE_RATE))

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.window_samples:
            return 0
        return 1 + (n_samples - self.window_samples) // self.hop_samples

    def to_dict(self) -> dict:
        return {
            "window_length": self.window_length,
            "hop_length": self.hop_length,
            "fft_size": self.fft_size,
            "mel_bins": self.mel_bins,
            "fmin": self.fmin,
            "fmax": self.fmax,
            "log_epsilon": self.log_epsilon,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureConfig":
        return cls(**d)


def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file that is already PCM-16 mono 16 kHz.

    No silent conversion happens here; anything else is rejected so
    problems surface at the source (corpus conversion owns resampling).
    Samples are scaled by 1/32768.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            declared = wf.getnframes()
            if channels != 1:
                raise AudioFormatError(f"{path}: expected mono, got {channels} channels")
            if width != 2:
                raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
            if rate != SAMPLE_RATE:
                raise AudioFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
            data = wf.readframes(declared)
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: not a readable WAV file: {exc}") from exc
    except EOFError as exc:
        raise AudioFormatError(f"{path}: truncated WAV file") from exc
    except RuntimeError as exc:
        # wave's chunk reader raises a bare RuntimeError when a chunk's
        # declared size runs past the end of the file
        raise AudioFormatError(f"{path}: chunk size runs past the end of the file") from exc
    if len(data) != 2 * declared:
        raise AudioFormatError(
            f"{path}: data chunk holds {len(data) // 2} samples, header declares {declared}"
        )
    samples = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
    return AudioClip(samples)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """(mel_bins, fft_size//2 + 1) matrix of unit-peak triangles.

    Triangles are sampled at the FFT bin frequencies and each row is
    rescaled so its sampled maximum is exactly 1 (a filter whose peak
    falls between bins would otherwise never reach it).
    """
    mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.mel_bins + 2)
    edges = mel_to_hz(mels)  # left/center/right per filter, in Hz
    bin_freqs = np.arange(cfg.fft_size // 2 + 1) * (SAMPLE_RATE / cfg.fft_size)
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs - left) / (center - left)
    falling = (right - bin_freqs) / (right - center)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    peak = fb.max(axis=1, keepdims=True)
    np.divide(fb, peak, out=fb, where=peak > 0)
    return fb.astype(np.float32)


def logmel(clip: AudioClip, cfg: FeatureConfig) -> np.ndarray:
    """Log-mel features, one row per fully contained analysis window.

    Per frame: periodic Hann window, magnitude-squared FFT (zero padded
    to fft_size), triangular mel integration, then ln(power + epsilon).
    A clip shorter than one window yields an empty (0, mel_bins) matrix.
    """
    win = cfg.window_samples
    hop = cfg.hop_samples
    n_frames = cfg.frame_count(len(clip.samples))
    if n_frames == 0:
        return np.zeros((0, cfg.mel_bins), dtype=np.float32)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, win)[::hop][:n_frames]
    window = get_window("hann", win, fftbins=True)
    filterbank = mel_filterbank(cfg).T.astype(np.float64)
    out = np.empty((n_frames, cfg.mel_bins), dtype=np.float32)
    for i in range(0, n_frames, _STFT_BLOCK):
        spectrum = np.fft.rfft(frames[i:i + _STFT_BLOCK] * window, n=cfg.fft_size, axis=1)
        power = spectrum.real ** 2 + spectrum.imag ** 2
        out[i:i + _STFT_BLOCK] = np.log(power @ filterbank + cfg.log_epsilon)
    return out


def normalize_features(frames: np.ndarray) -> np.ndarray:
    """Standardize each feature column to mean 0, population std 1.

    Columns with std below 1e-10 are zeroed instead of divided.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[0] < 2:
        raise ValueError("need at least 2 frames to normalize")
    mean = frames.mean(axis=0, dtype=np.float64)
    std = frames.std(axis=0, dtype=np.float64)
    out = np.where(std < 1e-10, 0.0, (frames - mean) / np.where(std < 1e-10, 1.0, std))
    return out.astype(np.float32)
