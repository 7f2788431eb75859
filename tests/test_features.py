"""WAV loading and log-mel feature extraction."""
import dataclasses
import math
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scribo import features
from scribo.errors import AudioFormatError
from scribo.features import (AudioClip, FeatureConfig, load_wav, logmel,
                             mel_filterbank, normalize_features)

from conftest import tone, write_wav


# ----------------------------------------------------------------- load_wav

def test_load_one_second(tmp_path):
    path = write_wav(tmp_path / "a.wav", np.zeros(16000))
    clip = load_wav(path)
    assert clip.duration == 1.0
    assert clip.samples.shape == (16000,)


def test_load_scaling_full_scale(tmp_path):
    pcm = np.array([32767, -32768, 0], dtype="<i2")
    with wave.open(str(tmp_path / "s.wav"), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(pcm.tobytes())
    clip = load_wav(tmp_path / "s.wav")
    assert clip.samples[0] == pytest.approx(32767 / 32768)
    assert clip.samples[1] == pytest.approx(-1.0)
    assert clip.samples[2] == 0.0


def test_load_rejects_stereo(tmp_path):
    path = write_wav(tmp_path / "st.wav", np.zeros(1600), channels=2)
    with pytest.raises(AudioFormatError, match="channel"):
        load_wav(path)


def test_load_rejects_wrong_rate(tmp_path):
    path = write_wav(tmp_path / "r8.wav", np.zeros(800), rate=8000)
    with pytest.raises(AudioFormatError):
        load_wav(path)


def test_load_rejects_8bit(tmp_path):
    with wave.open(str(tmp_path / "b8.wav"), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(1)
        f.setframerate(16000)
        f.writeframes(bytes(100))
    with pytest.raises(AudioFormatError):
        load_wav(tmp_path / "b8.wav")


def test_load_rejects_truncated(tmp_path):
    path = write_wav(tmp_path / "t.wav", np.zeros(1600))
    raw = path.read_bytes()
    path.write_bytes(raw[:-32])
    with pytest.raises(AudioFormatError):
        load_wav(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "g.wav"
    path.write_bytes(b"definitely not RIFF data")
    with pytest.raises(AudioFormatError):
        load_wav(path)


def test_audioclip_validation():
    with pytest.raises(ValueError):
        AudioClip(np.zeros((10, 2), dtype=np.float32))


# ------------------------------------------------------------ FeatureConfig

def test_config_defaults():
    cfg = FeatureConfig()
    assert cfg.window_samples == 320
    assert cfg.hop_samples == 160
    assert cfg.fft_size == 512
    assert cfg.mel_bins == 64
    assert cfg.log_epsilon == 2.0 ** -24


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(fft_size=128)            # below window samples
    with pytest.raises(ValueError):
        FeatureConfig(fmax=9000.0)             # above Nyquist
    with pytest.raises(ValueError):
        FeatureConfig(mel_bins=0)
    for epsilon in (-1.0, 0.0):  # log(power + epsilon) is -inf or NaN on silent bins
        with pytest.raises(ValueError, match="log_epsilon must be > 0"):
            FeatureConfig(log_epsilon=epsilon)


@pytest.mark.parametrize("name", ["window_length", "hop_length", "fmin", "fmax",
                                  "log_epsilon"])
def test_config_refuses_bool_for_a_number(name):
    # True is a numbers.Real: hop_length=True was a 16000-sample hop
    with pytest.raises(ValueError, match=name):
        FeatureConfig(**{name: True})


@pytest.mark.parametrize("lengths", [{"window_length": 0.0}, {"hop_length": 0.00003}],
                         ids=repr)
def test_config_refuses_a_window_or_hop_of_no_samples(lengths):
    with pytest.raises(ValueError, match="window and hop must be positive"):
        FeatureConfig(**lengths)


@pytest.mark.parametrize("lengths", [{"window_length": 1e308}, {"hop_length": 1e308}],
                         ids=repr)
def test_config_refuses_a_window_or_hop_whose_sample_count_overflows(lengths):
    # 1e308 s is finite, but 1e308 * 16000 samples is not
    with pytest.raises(ValueError, match="window and hop must be at most 3600 s"):
        FeatureConfig(**lengths)


def test_config_dict_round_trip():
    cfg = FeatureConfig(mel_bins=20, fmax=7000.0)
    assert FeatureConfig(**dataclasses.asdict(cfg)) == cfg


def test_frame_count_formula():
    cfg = FeatureConfig()
    assert cfg.frame_count(16000) == 99
    assert cfg.frame_count(320) == 1
    assert cfg.frame_count(319) == 0


# ------------------------------------------------------------------- logmel

def test_silence_hits_epsilon_floor():
    clip = AudioClip(np.zeros(16000, dtype=np.float32))
    cfg = FeatureConfig()
    feats = logmel(clip, cfg)
    assert feats.shape == (99, 64)
    floor = math.log(cfg.log_epsilon)
    assert np.allclose(feats, floor, atol=1e-6)


def test_one_second_is_99_frames():
    clip = AudioClip(tone(1.0))
    assert logmel(clip, FeatureConfig()).shape == (99, 64)


def test_short_clip_yields_empty():
    clip = AudioClip(np.zeros(300, dtype=np.float32))
    feats = logmel(clip, FeatureConfig())
    assert feats.shape == (0, 64)


def test_tone_peaks_at_nearest_mel_center():
    cfg = FeatureConfig()
    clip = AudioClip(tone(1.0, freq=1000.0, amp=0.5))
    feats = logmel(clip, cfg)

    # independent HTK center-frequency table
    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    points = np.linspace(mel(cfg.fmin), mel(cfg.fmax), cfg.mel_bins + 2)
    centers = np.array([inv(m) for m in points[1:-1]])
    want = int(np.argmin(np.abs(centers - 1000.0)))
    got = np.argmax(feats, axis=1)
    assert np.all(got == want)


def test_filterbank_rows_unit_peak():
    cfg = FeatureConfig()
    fb = mel_filterbank(cfg)
    assert fb.shape == (64, 257)
    assert np.allclose(fb.max(axis=1), 1.0)
    assert fb.min() >= 0.0


def test_amplitude_monotonicity():
    rng = np.random.default_rng(3)
    samples = (0.2 * rng.normal(size=8000)).astype(np.float32)
    cfg = FeatureConfig()
    quiet = logmel(AudioClip(samples), cfg)
    loud = logmel(AudioClip(np.clip(samples * 2, -1, 1)), cfg)
    # log of a pointwise-larger power spectrum never decreases
    assert np.all(loud >= quiet - 1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=40000))
def test_frame_count_matches_output(n):
    cfg = FeatureConfig()
    clip = AudioClip(np.zeros(n, dtype=np.float32))
    feats = logmel(clip, cfg)
    if n >= cfg.window_samples:
        want = 1 + (n - cfg.window_samples) // cfg.hop_samples
    else:
        want = 0
    assert feats.shape == (want, cfg.mel_bins)
    assert cfg.frame_count(n) == want


@pytest.mark.parametrize("n", [1, 2, 3, 320, 400, 512])
def test_hann_window_is_bitwise_scipy_get_window(n):
    from scipy.signal import get_window

    window = features._hann(n)
    assert window.dtype == np.float64
    assert np.array_equal(window, get_window("hann", n, fftbins=True))


def whole_clip_logmel(clip, cfg):
    """logmel as one FFT over every frame at once: the reference."""
    from scipy.signal import get_window

    n_frames = cfg.frame_count(len(clip.samples))
    frames = np.lib.stride_tricks.sliding_window_view(
        clip.samples, cfg.window_samples)[::cfg.hop_samples][:n_frames]
    spectrum = np.fft.rfft(frames * get_window("hann", cfg.window_samples, fftbins=True),
                           n=cfg.fft_size, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    mel_power = power @ mel_filterbank(cfg).T.astype(np.float64)
    return np.log(mel_power + cfg.log_epsilon).astype(np.float32)


@pytest.mark.parametrize("n_frames", [1, 1023, 1024, 1025, 2049, 3000])
def test_blocked_logmel_is_bitwise_the_whole_clip_transform(n_frames):
    cfg = FeatureConfig()
    rng = np.random.default_rng(n_frames)
    n = cfg.window_samples + cfg.hop_samples * (n_frames - 1)
    clip = AudioClip(rng.uniform(-0.5, 0.5, n).astype(np.float32))
    feats = logmel(clip, cfg)
    assert feats.shape == (n_frames, cfg.mel_bins)
    assert np.array_equal(feats, whole_clip_logmel(clip, cfg))


# -------------------------------------------------------------- normalize

def test_normalize_two_point_column():
    m = np.array([[1.0, 5.0], [3.0, 5.0]], dtype=np.float32)
    out = normalize_features(m)
    assert np.allclose(out[:, 0], [-1.0, 1.0])
    assert np.allclose(out[:, 1], 0.0)      # constant column zeroed


def test_normalize_moments():
    rng = np.random.default_rng(0)
    m = rng.normal(3.0, 2.0, (50, 8)).astype(np.float32)
    out = normalize_features(m)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-5)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-5)


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    m = rng.normal(0, 4.0, (30, 6)).astype(np.float32)
    once = normalize_features(m)
    twice = normalize_features(once)
    assert np.allclose(once, twice, atol=1e-6)


def test_normalize_passes_fewer_than_two_rows_through():
    # one row has no spread to standardize by; it comes back as float32
    row = np.arange(4, dtype=np.float64)[None, :]
    out = normalize_features(row)
    assert out.dtype == np.float32
    assert np.array_equal(out, row)
    empty = normalize_features(np.zeros((0, 4), dtype=np.float32))
    assert empty.shape == (0, 4) and empty.dtype == np.float32
    with pytest.raises(ValueError):
        normalize_features(np.zeros(4, dtype=np.float32))
