"""Shared fixtures: toy language models, a small network, WAV writers."""
import math
import struct
import wave
from pathlib import Path

import numpy as np
import pytest

from scribo import net
from scribo.features import FeatureConfig
from scribo.textnorm import ALPHABETS

# Proper toy model: 6 entries (4 unigrams + 2 bigrams). Unigram mass is
# 0.4/0.3/0.2/0.1 and the backoff weights are chosen so every stored
# history normalizes exactly, which the tests rely on.
TOY_ARPA = """\\data\\
ngram 1=4
ngram 2=2

\\1-grams:
{pa}\ta\t{boa}
{pb}\tb\t{bob}
{pc}\tc
{punk}\t<unk>

\\2-grams:
{pab}\ta b
{pbc}\tb c

\\end\\
""".format(
    pa=math.log10(0.4),
    pb=math.log10(0.3),
    pc=math.log10(0.2),
    punk=math.log10(0.1),
    boa=math.log10(0.4 / 0.7),   # P(b|a)=0.6 leaves 0.4 over b-free mass 0.7
    bob=math.log10(0.5 / 0.8),   # P(c|b)=0.5 leaves 0.5 over c-free mass 0.8
    pab=math.log10(0.6),
    pbc=math.log10(0.5),
)


@pytest.fixture
def toy_arpa(tmp_path):
    path = tmp_path / "toy.arpa"
    path.write_text(TOY_ARPA, encoding="utf-8")
    return path


@pytest.fixture
def toy_model(toy_arpa):
    from scribo.lm import parse_arpa

    return parse_arpa(toy_arpa)


def write_wav(path, samples, rate=16000, channels=1):
    """Write float samples in [-1, 1] as PCM-16."""
    samples = np.asarray(samples)
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    if channels > 1 and pcm.ndim == 1:
        pcm = np.tile(pcm[:, None], (1, channels))
    with wave.open(str(path), "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())
    return Path(path)


def raw_wav(payload=b"", *, tag=1, channels=1, rate=16000, bits=16,
            align=None, fmt=True, data=True):
    """RIFF/WAVE bytes with every fmt field set by hand, for malformed files.

    ``tag`` 1 is integer PCM, 3 is IEEE float. ``align`` (bytes per frame)
    defaults to channels*bits/8 and the byte rate to rate*align, so one
    field can be made bad while the rest stay consistent. ``fmt=False``
    or ``data=False`` leaves that chunk out.
    """
    if align is None:
        align = channels * bits // 8
    body = b"WAVE"
    if fmt:
        body += b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate,
                                      rate * align, align, bits)
    if data:
        body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def tone(seconds, freq=440.0, rate=16000, amp=0.3):
    # keep sample counts a multiple of 16 so durations are exact at
    # millisecond resolution (manifest round trips depend on it)
    n = int(round(seconds * rate / 16)) * 16
    t = np.arange(n) / rate
    return (amp * np.sin(2 * math.pi * freq * t)).astype(np.float32)


@pytest.fixture
def wav_factory(tmp_path):
    def make(name, seconds=1.0, freq=440.0, rate=16000, channels=1):
        return write_wav(tmp_path / name, tone(seconds, freq, rate), rate, channels)

    return make


def small_config(vocab_size=5):
    """A config small enough for exhaustive forward tests.

    Same shape grammar as the full preset: strided separable prologue,
    one residual group, dilated + pointwise epilogue.
    """
    return net.NetConfig(
        vocab_size=vocab_size,
        input_features=8,
        prologue=net.ConvSpec(kernel=5, channels=16, stride=2),
        blocks=(net.BlockGroup(repeats=2, sub_blocks=2, kernel=5, channels=24),),
        epilogue=(
            net.ConvSpec(kernel=7, channels=24, dilation=2),
            net.ConvSpec(kernel=1, channels=32, separable=False),
        ),
    )


@pytest.fixture
def small_cfg():
    return small_config()


@pytest.fixture(scope="session")
def tiny_model_dir(tmp_path_factory):
    """A saved model directory with the English alphabet (28 symbols)."""
    root = tmp_path_factory.mktemp("model")
    cfg = small_config(vocab_size=28)
    feat_cfg = FeatureConfig(mel_bins=8)
    weights = net.random_weights(cfg, seed=7)
    net.save_weights(root, cfg, weights, feat_cfg, ALPHABETS["en"], name="tiny")
    return root
