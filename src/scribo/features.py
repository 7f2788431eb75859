"""Audio front end: WAV reading and log-mel filterbank extraction.

Frames are fully contained in the signal (no centering or reflective
padding), which keeps the frame/timestep arithmetic of the acoustic
model exact under chunked streaming. The filterbank uses the HTK mel
scale with unit-peak triangles; every knob lives in FeatureConfig and
travels with saved model weights.
"""
from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AudioFormatError, check_fields, opened

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

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float32))
        if self.samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


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
        check_fields(self)
        # bounded before the sample properties round them: a finite length
        # near the float maximum overflows to an infinite sample count
        if not (self.window_length <= 3600 and self.hop_length <= 3600):
            raise ValueError("window and hop must be at most 3600 s")
        if self.fft_size < self.window_samples:
            raise ValueError("fft_size must cover the analysis window")
        if not 0 <= self.fmin < self.fmax <= SAMPLE_RATE / 2:
            raise ValueError("need 0 <= fmin < fmax <= Nyquist")
        if self.hop_samples < 1 or self.window_samples < 1:
            raise ValueError("window and hop must be positive")
        if self.log_epsilon <= 0:
            raise ValueError("log_epsilon must be > 0")

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


class _WavFormat(NamedTuple):
    """What a WAV header declares; ``tag`` is _PCM or _IEEE_FLOAT (an
    extensible file's subformat), ``order`` the struct byte order.
    ``frames`` counts the whole frames the file holds, ``declared`` those
    its data chunk's size declares, more when the file is cut short."""

    rate: int
    channels: int
    tag: int
    bits: int
    frames: int
    declared: int
    order: str


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
#: The part of a KSDATAFORMAT_SUBTYPE GUID after its first field, which
#: holds the format tag; the next two fields follow the file's byte order.
_SUBTYPE_TAIL = bytes.fromhex("800000aa00389b71")

#: (format tag, bits per sample) -> (dtype code of the samples
#: _read_samples returns, offset, full scale): a sample x maps to
#: (x - offset) / full scale in [-1, 1). 24-bit samples come left-justified
#: in 4 bytes, so they read as 32-bit PCM; float samples need no scaling.
_ENCODINGS = {
    (_PCM, 8): ("u1", 128, 128.0), (_PCM, 16): ("i2", 0, 2.0**15),
    (_PCM, 24): ("i4", 0, 2.0**31), (_PCM, 32): ("i4", 0, 2.0**31),
    (_PCM, 64): ("i8", 0, 2.0**63),
    (_IEEE_FLOAT, 32): ("f4", 0, 1.0), (_IEEE_FLOAT, 64): ("f8", 0, 1.0),
}


def _parse_fmt(body: bytes, order: str, path) -> _WavFormat:
    if len(body) < 16:
        raise AudioFormatError(f"{path}: fmt chunk holds {len(body)} bytes, needs 16")
    tag, channels, rate, _, align, bits = struct.unpack(order + "HHIIHH", body[:16])
    if tag == _EXTENSIBLE and body[28:40] == struct.pack(order + "HH", 0, 16) + _SUBTYPE_TAIL:
        (tag,) = struct.unpack(order + "I", body[24:28])
    if (tag, bits) not in _ENCODINGS or channels < 1 or align != channels * bits // 8:
        raise AudioFormatError(
            f"{path}: unsupported WAV encoding (format {tag:#x}, {bits}-bit, "
            f"{channels} channels, {align}-byte frames)"
        )
    if rate < 1:
        raise AudioFormatError(f"{path}: bad sample rate in header")
    return _WavFormat(rate, channels, tag, bits, 0, 0, order)


def _wav_format(fh, path) -> _WavFormat:
    """Walk the RIFF (little-endian) or RIFX (big-endian) chunks of the
    open file ``fh`` up to its data chunk, leaving ``fh`` at the first
    sample. Chunks other than fmt and data are skipped with their pad
    byte; one that runs past the end of the file is an error. A data
    chunk that does (the placeholder size of streamed output, or an
    interrupted recording) holds the whole frames that are there, fewer
    than it declares."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] not in (b"RIFF", b"RIFX") or head[8:] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF or RIFX WAVE file")
    order = "<" if head[:4] == b"RIFF" else ">"
    fmt = None
    while True:
        chunk = fh.read(8)
        if len(chunk) < 8:
            raise AudioFormatError(f"{path}: no {'data' if fmt else 'fmt'} chunk")
        name, (length,) = chunk[:4], struct.unpack(order + "I", chunk[4:])
        if name == b"data":
            if fmt is None:
                raise AudioFormatError(f"{path}: data chunk before the fmt chunk")
            frame = fmt.channels * fmt.bits // 8
            there = min(length, size - fh.tell())
            return fmt._replace(frames=there // frame, declared=length // frame)
        if fh.tell() + length > size:
            raise AudioFormatError(f"{path}: {name!r} chunk runs past the end of the file")
        if name == b"fmt ":
            fmt = _parse_fmt(fh.read(length), order, path)
            fh.seek(length & 1, os.SEEK_CUR)
        else:
            fh.seek(length + (length & 1), os.SEEK_CUR)


@contextlib.contextmanager
def _open_wav(path):
    """The open WAV file ``path`` at its first sample and its _WavFormat.

    This and _read_samples are the one WAV reader of the package. It
    reads integer PCM of 8, 16, 24, 32 and 64 bits and IEEE float of 32
    and 64 bits, plain or WAVE_FORMAT_EXTENSIBLE, little- or big-endian.
    Any other file, or one that cannot be read, raises AudioFormatError
    naming it.
    """
    with opened(path, AudioFormatError) as fh:
        yield fh, _wav_format(fh, path)


def _read_samples(fh, fmt: _WavFormat) -> np.ndarray:
    """The (frames, channels) samples of the WAV file ``fh`` that
    _open_wav opened, in the file's byte order (see _ENCODINGS)."""
    payload = fh.read(fmt.frames * fmt.channels * fmt.bits // 8)
    dtype = fmt.order + _ENCODINGS[fmt.tag, fmt.bits][0]
    if fmt.bits == 24:
        # each 3-byte sample goes to the high bytes of an int32, zero below
        wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
        high = slice(1, 4) if fmt.order == "<" else slice(0, 3)
        wide[:, high] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        data = wide.view(dtype)
    else:
        data = np.frombuffer(payload, dtype=dtype)
    return data.reshape(-1, fmt.channels)


def load_wav(path) -> AudioClip:
    """Read a RIFF (little-endian) WAV file that is already PCM-16 mono
    16 kHz.

    No silent conversion happens here, byte swapping included; anything
    else, or a file that holds fewer samples than it declares, is
    rejected so problems surface at the source (corpus conversion owns
    conversion). Samples are scaled by 1/32768.
    """
    with _open_wav(path) as (fh, fmt):
        if fmt.order != "<":
            raise AudioFormatError(f"{path}: expected a RIFF file, got big-endian RIFX")
        if fmt.channels != 1:
            raise AudioFormatError(f"{path}: expected mono, got {fmt.channels} channels")
        if (fmt.tag, fmt.bits) != (_PCM, 16):
            kind = "PCM" if fmt.tag == _PCM else "float"
            raise AudioFormatError(f"{path}: expected 16-bit PCM, got {fmt.bits}-bit {kind}")
        if fmt.rate != SAMPLE_RATE:
            raise AudioFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {fmt.rate} Hz")
        if fmt.frames < fmt.declared:
            raise AudioFormatError(
                f"{path}: data chunk holds {fmt.frames} samples, header declares {fmt.declared}"
            )
        data = _read_samples(fh, fmt)
    return AudioClip(data[:, 0].astype(np.float32) / 32768.0)


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


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of n samples, float64.

    The same arithmetic as ``scipy.signal.get_window("hann", n)``
    (a symmetric window of n + 1 points over linspace(-pi, pi), last
    point dropped; ones for n <= 1), so features match it bit for bit
    without loading scipy.
    """
    if n <= 1:
        return np.ones(n)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


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
    window = _hann(win)
    filterbank = mel_filterbank(cfg).T.astype(np.float64)
    out = np.empty((n_frames, cfg.mel_bins), dtype=np.float32)
    for i in range(0, n_frames, _STFT_BLOCK):
        spectrum = np.fft.rfft(frames[i:i + _STFT_BLOCK] * window, n=cfg.fft_size, axis=1)
        power = spectrum.real ** 2 + spectrum.imag ** 2
        out[i:i + _STFT_BLOCK] = np.log(power @ filterbank + cfg.log_epsilon)
    return out


def normalize_features(frames: np.ndarray) -> np.ndarray:
    """Standardize each feature column to mean 0, population std 1.

    Columns with std below 1e-10 are zeroed instead of divided. Fewer
    than two rows have no spread to standardize by and come back
    unchanged (as float32).
    """
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if frames.shape[0] < 2:
        return frames.astype(np.float32)
    mean = frames.mean(axis=0, dtype=np.float64)
    std = frames.std(axis=0, dtype=np.float64)
    out = np.where(std < 1e-10, 0.0, (frames - mean) / np.where(std < 1e-10, 1.0, std))
    return out.astype(np.float32)
