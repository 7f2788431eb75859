"""Frozen reference for ``scribo.corpus.convert_audio``.

This is the original conversion (float64 copy of every sample, a
per-row ``mean`` downmix, the resampling filter designed anew on every
call, a fresh array per step), kept verbatim so the reworked converter
can be required to write the very same WAV bytes and return the same
duration. Do not optimize it: its only job is to be obviously right.
"""
from __future__ import annotations

import math
import struct
import wave
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

from scribo.errors import AudioFormatError

TARGET_RATE = 16000


def _to_float(samples: np.ndarray) -> np.ndarray:
    if samples.dtype == np.int16:
        return samples.astype(np.float64) / 32768.0
    if samples.dtype == np.int32:
        return samples.astype(np.float64) / 2147483648.0
    if samples.dtype == np.uint8:
        return (samples.astype(np.float64) - 128.0) / 128.0
    return samples.astype(np.float64)


def _write_pcm16(path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(TARGET_RATE)
        wf.writeframes(samples.astype("<i2").tobytes())


def convert_audio(src_path, dst_path) -> float:
    """Convert any readable WAV to PCM-16 mono 16 kHz; return duration.

    Stereo is downmixed by averaging, other sample rates go through a
    polyphase windowed-sinc resampler, and already conformant input is
    passed through with byte-identical samples.
    """
    src_path, dst_path = Path(src_path), Path(dst_path)
    try:
        rate, data = wavfile.read(src_path)
    except (ValueError, EOFError, OSError, struct.error) as exc:
        raise AudioFormatError(f"{src_path}: cannot decode: {exc}") from exc

    if data.ndim == 2:
        mono = _to_float(data).mean(axis=1)
    elif data.dtype == np.int16 and rate == TARGET_RATE:
        # conformant input: copy samples through untouched
        _write_pcm16(dst_path, data)
        return len(data) / TARGET_RATE
    else:
        mono = _to_float(data)

    if len(mono) == 0:
        _write_pcm16(dst_path, np.zeros(0, dtype=np.int16))
        return 0.0
    if rate != TARGET_RATE:
        g = math.gcd(TARGET_RATE, int(rate))
        mono = resample_poly(mono, TARGET_RATE // g, rate // g)
    pcm = np.clip(np.rint(mono * 32768.0), -32768, 32767).astype(np.int16)
    _write_pcm16(dst_path, pcm)
    return len(pcm) / TARGET_RATE
