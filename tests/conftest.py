"""Shared fixtures: toy language models, a small network, WAV writers,
and helpers for fuzzing the file readers."""
import contextlib
import io
import math
import struct
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from scribo import cli, net
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

# An inconsistent model: "a" has a positive log-probability (line 6), and
# "c" occurs only in the bigram "c a", with no unigram of its own.
ODD_ARPA = """\\data\\
ngram 1=3
ngram 2=2

\\1-grams:
0.5\ta
-1.0\tb
-1.0\t<unk>

\\2-grams:
-0.3\ta b
-0.2\tc a

\\end\\
"""


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
            align=None, fmt=True, data=True, big_endian=False, extensible=False,
            chunks=b""):
    """RIFF/WAVE bytes with every fmt field set by hand, for malformed files.

    ``tag`` 1 is integer PCM, 3 is IEEE float. ``align`` (bytes per frame)
    defaults to channels*bits/8 and the byte rate to rate*align, so one
    field can be made bad while the rest stay consistent. ``fmt=False``
    or ``data=False`` leaves that chunk out. ``big_endian`` writes a RIFX
    file: the header fields big-endian; ``payload`` must match.
    ``extensible`` writes a WAVE_FORMAT_EXTENSIBLE fmt chunk with ``tag``
    as its subformat; ``chunks`` (whole chunks) goes before the data.
    """
    order = ">" if big_endian else "<"
    if align is None:
        align = channels * bits // 8
    body = b"WAVE"
    if fmt:
        fields = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, channels,
                             rate, rate * align, align, bits)
        if extensible:
            # cbSize, valid bits, channel mask, then the subformat GUID
            # {tag-0000-0010-8000-00AA00389B71}, first three fields in file order
            fields += struct.pack(order + "HHIIHH", 22, bits, 0, tag, 0, 16)
            fields += bytes.fromhex("800000aa00389b71")
        body += b"fmt " + struct.pack(order + "I", len(fields)) + fields
    body += chunks
    if data:
        body += b"data" + struct.pack(order + "I", len(payload)) + payload
    return (b"RIFX" if big_endian else b"RIFF") + struct.pack(order + "I", len(body)) + body


def tone(seconds, freq=440.0, rate=16000, amp=0.3):
    # keep sample counts a multiple of 16 so durations are exact at
    # millisecond resolution (manifest round trips depend on it)
    n = int(round(seconds * rate / 16)) * 16
    t = np.arange(n) / rate
    return (amp * np.sin(2 * math.pi * freq * t)).astype(np.float32)


# (dtype the WAV reader returns, bits, left shift of the 16-bit samples, RIFX)
WIDE_PCM = {
    "RIFX 16-bit": (">i2", 16, 0, True),
    "RIFX 32-bit": (">i4", 32, 16, True),
    "64-bit": ("<i8", 64, 48, False),
    "RIFX 64-bit": (">i8", 64, 48, True),
}


def _twin_pcm(rate, channels):
    """(frames, channels) int16 tones, a different one per channel."""
    tones = [tone(0.25, 440.0, rate), tone(0.25, 660.0, rate, amp=0.2)][:channels]
    return np.clip(np.rint(np.stack(tones, axis=1) * 32768), -32768, 32767).astype(np.int16)


def write_twins(d, name, rate, channels):
    """The native 16-bit WAV and its ``WIDE_PCM[name]`` twin with the
    same samples; returns (native path, wide path, int16 samples)."""
    dtype, bits, shift, big_endian = WIDE_PCM[name]
    pcm = _twin_pcm(rate, channels)
    native = d / "native.wav"
    native.write_bytes(raw_wav(pcm.astype("<i2").tobytes(), channels=channels, rate=rate))
    wide = d / "wide.wav"
    payload = (pcm.astype(np.int64) << shift).astype(dtype).tobytes()
    wide.write_bytes(raw_wav(payload, channels=channels, rate=rate, bits=bits,
                             big_endian=big_endian))
    return native, wide, pcm


def mixed_rate_folder(src):
    """A folder-txt corpus of six tones at mixed rates and channel counts."""
    src.mkdir()
    for rate, channels in ((8000, 1), (22050, 2), (44100, 2), (48000, 1),
                           (16000, 1), (11025, 3)):
        name = f"r{rate}c{channels}"
        write_wav(src / f"{name}.wav", tone(0.3, rate=rate), rate=rate,
                  channels=channels)
        (src / f"{name}.txt").write_text(name)
    return src


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


# ---------------------------------------------------------------- fuzzing

# bytes that matter to the text formats (ARPA, JSON, TSV), drawn more
# often than the other 256 so mutations reach past the first parse error
_SYNTAX_BYTES = b'0123456789-+.eE\t\n\r =\\"[]{},:<>'


@st.composite
def _mutated(draw, bases):
    blob = bytearray(draw(st.sampled_from(bases)))
    byte = st.one_of(st.integers(0, 255), st.sampled_from(list(_SYNTAX_BYTES)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        op = draw(st.sampled_from(("set", "insert", "delete")))
        if op == "insert" or pos == len(blob):
            blob.insert(pos, draw(byte))
        elif op == "set":
            blob[pos] = draw(byte)
        else:
            del blob[pos]
    keep = draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return bytes(blob[:keep])


def fuzzed(*bases):
    """Byte strings for a reader: valid ``bases`` with 1-4 byte edits
    (set, insert or delete) and maybe truncated, or arbitrary bytes."""
    return st.one_of(_mutated(bases), st.binary(max_size=300))


def run_quietly(*argv):
    """``cli.run`` with stdout and stderr captured: (exit code, stderr).

    An exception the CLI does not turn into an exit code propagates, so
    a caller that gets a code back knows no traceback was printed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, err.getvalue()
