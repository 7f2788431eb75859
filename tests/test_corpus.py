"""Dataset reading, audio conversion, cleaning metrics, splitting, writing."""
import io
import math
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

import corpus_reference
from scribo import corpus
from scribo.corpus import (CleaningReport, CorpusStats, DatasetItem,
                           clean_corpus, compute_stats, convert_audio,
                           convert_dataset, corpus_averages, probe_duration,
                           read_dataset, read_manifest, split_dataset,
                           write_dataset)
from scribo.errors import AudioFormatError, DatasetError, ScriboError
from scribo.features import load_wav

from conftest import (WIDE_PCM, fuzzed, raw_wav, run_quietly, tone, write_twins,
                      write_wav)


def item(duration, text="hello there", filepath="x.wav", speaker=None):
    return DatasetItem(filepath=filepath, text=text, duration=duration,
                       speaker=speaker)


# ------------------------------------------------------------- DatasetItem

def test_item_validation():
    with pytest.raises(ValueError):
        DatasetItem(filepath="", text="a", duration=1.0)
    with pytest.raises(ValueError):
        DatasetItem(filepath="a.wav", text="a", duration=-0.1)
    for duration in (math.inf, float("1e999")):
        with pytest.raises(ValueError):
            DatasetItem(filepath="a.wav", text="a", duration=duration)


def test_chars_per_second():
    assert item(2.0, text="abcd").chars_per_second == 2.0
    assert item(0.0, text="abcd").chars_per_second == float("inf")


# --------------------------------------------------------------- converting

def test_convert_48k_stereo(tmp_path):
    rng = np.random.default_rng(0)
    data = (rng.normal(0, 0.05, (96000, 2)) * 32767).astype(np.int16)
    src = tmp_path / "in.wav"
    wavfile.write(src, 48000, data)
    dst = tmp_path / "out.wav"
    duration = convert_audio(src, dst)
    assert duration == pytest.approx(2.0, abs=1 / 16000)
    with wave.open(str(dst), "rb") as wf:
        assert wf.getnchannels() == 1
        assert wf.getframerate() == 16000
        assert wf.getsampwidth() == 2
        assert wf.getnframes() == 32000


def test_convert_conformant_passthrough(tmp_path):
    src = write_wav(tmp_path / "in.wav", tone(0.5))
    dst = tmp_path / "out.wav"
    duration = convert_audio(src, dst)
    assert duration == pytest.approx(0.5)
    with wave.open(str(src), "rb") as a, wave.open(str(dst), "rb") as b:
        assert a.readframes(a.getnframes()) == b.readframes(b.getnframes())


def test_convert_zero_length(tmp_path):
    src = tmp_path / "z.wav"
    with wave.open(str(src), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(b"")
    dst = tmp_path / "out.wav"
    assert convert_audio(src, dst) == 0.0
    with wave.open(str(dst), "rb") as wf:
        assert wf.getnframes() == 0


def test_convert_undecodable(tmp_path):
    src = tmp_path / "bad.wav"
    src.write_bytes(b"RIFFgarbage")
    with pytest.raises(AudioFormatError):
        convert_audio(src, tmp_path / "out.wav")


def test_probe_duration(tmp_path):
    path = write_wav(tmp_path / "p.wav", np.zeros(24000))
    assert probe_duration(path) == pytest.approx(1.5)


def _random_pcm(rng, dtype, frames, channels):
    if dtype == "float32":
        # past full scale too, so clipping is exercised
        x = rng.uniform(-1.25, 1.25, (frames, channels)).astype(np.float32)
    else:
        info = np.iinfo(dtype)
        x = rng.integers(info.min, info.max, (frames, channels),
                         endpoint=True).astype(dtype)
    return x[:, 0] if channels == 1 else x


@settings(max_examples=80, deadline=None)
@given(channels=st.integers(1, 3),
       dtype=st.sampled_from(["int16", "int32", "uint8", "float32"]),
       rate=st.sampled_from([8000, 11025, 22050, 44100, 48000, 16000]),
       frames=st.integers(0, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_convert_matches_reference_bytes(tmp_path_factory, channels, dtype,
                                         rate, frames, seed):
    d = tmp_path_factory.mktemp("convert")
    src = d / "in.wav"
    wavfile.write(src, rate, _random_pcm(np.random.default_rng(seed), dtype,
                                         frames, channels))
    got = convert_audio(src, d / "got.wav")
    want = corpus_reference.convert_audio(src, d / "want.wav")
    assert got == want
    assert (d / "got.wav").read_bytes() == (d / "want.wav").read_bytes()


@pytest.mark.parametrize("rate", [8000, 11025, 22050, 44100, 48000, 16000])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype", ["int16", "float32"])
def test_convert_empty_file_matches_reference_bytes(tmp_path, dtype, channels, rate):
    # no frames at all: the sample path runs on empty arrays end to end
    src = tmp_path / "in.wav"
    shape = (0, channels) if channels > 1 else (0,)
    wavfile.write(src, rate, np.zeros(shape, dtype=dtype))
    assert wavfile.read(src)[1].shape == shape
    got = convert_audio(src, tmp_path / "got.wav")
    want = corpus_reference.convert_audio(src, tmp_path / "want.wav")
    assert got == want == 0.0
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


def test_lowpass_is_resample_poly_default_and_read_only():
    # 44.1 kHz -> 16 kHz reduces to up 160, down 441. The numpy design
    # differs from firwin's in the last bits of the Kaiser window's Bessel
    # function, measured at 3.8e-16 of the peak tap.
    # The tables built from it are cached per rate pair and shared
    # read-only.
    h = corpus._lowpass(160, 441)
    assert h.shape == (8821,)
    want = firwin(8821, 1 / 441, window=("kaiser", 5.0))
    assert np.max(np.abs(h - want)) <= 1e-15 * np.max(np.abs(want))
    plan = corpus._polyphase(160, 441)
    for _, _, table in plan.bands:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    assert corpus._polyphase(160, 441) is plan


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8821, 8822, 320001])
def test_half_kaiser_window_is_numpys_bit_for_bit(m):
    # 8821 taps for 44.1 kHz, 320001 for 16001 Hz
    assert np.array_equal(corpus._kaiser(m, 5.0), np.kaiser(m, 5.0))


def test_lowpass_cache_stays_bounded(tmp_path):
    corpus._polyphase.cache_clear()
    rates = (8000, 11025, 12000, 22050, 24000, 32000, 44100, 48000)
    for rate in rates:
        src = write_wav(tmp_path / f"{rate}.wav", tone(0.05, rate=rate), rate=rate)
        convert_audio(src, tmp_path / "out.wav")
    info = corpus._polyphase.cache_info()
    assert info.misses == len(rates)
    assert info.currsize == info.maxsize == 4


@settings(max_examples=120, deadline=None)
@given(rate=st.sampled_from([8000, 11025, 22050, 44100, 48000, 44101]),
       frames=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_resample_matches_resample_poly(rate, frames, seed):
    # before quantisation to 16 bits; 44101 Hz is coprime with 16000
    x = np.random.default_rng(seed).uniform(-1.25, 1.25, frames)
    g = math.gcd(rate, 16000)
    got = corpus._resample(x, 16000 // g, rate // g)
    want = resample_poly(x, 16000 // g, rate // g)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("rate", [8000, 11025, 44100, 48000, 384000, 44101])
def test_polyphase_tables_stay_within_twice_the_filter(rate):
    # each of the `up` phases has at most ceil(n / up) taps and each band
    # spans at most that many more rows: 2 * (n + up) entries, with up
    # below 5% of n. 44101 Hz is coprime with 16000: 882021 taps, 16000
    # phases of 56.
    g = math.gcd(rate, 16000)
    up, down = 16000 // g, rate // g
    plan = corpus._polyphase(up, down)
    n = len(corpus._lowpass(up, down))
    assert sum(table.size for _, _, table in plan.bands) <= 2 * (n + up)


# ------------------------------------------------- big-endian and 64-bit PCM

@pytest.mark.parametrize("rate", [16000, 44100])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("name", sorted(WIDE_PCM))
def test_convert_rifx_and_64_bit_like_native_twin(tmp_path, name, channels, rate):
    native, wide, _ = write_twins(tmp_path, name, rate, channels)
    assert wavfile.read(wide)[1].dtype == np.dtype(WIDE_PCM[name][0])
    got = convert_audio(wide, tmp_path / "got.wav")
    assert got == convert_audio(native, tmp_path / "want.wav")
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


@pytest.mark.parametrize("name", sorted(WIDE_PCM))
def test_wav_readers_refuse_or_read_rifx_and_64_bit(tmp_path, name):
    _, wide, pcm = write_twins(tmp_path, name, 16000, 1)
    try:
        clip = load_wav(wide)
    except AudioFormatError:
        pass
    else:
        assert np.array_equal(clip.samples, pcm[:, 0] / np.float32(32768.0))
    try:
        duration = probe_duration(wide)
    except AudioFormatError:
        pass
    else:
        assert duration == len(pcm) / 16000


def _pcm24(pcm, big_endian=False):
    """int16 samples as 24-bit PCM bytes, each in the top 16 bits."""
    wide = (pcm.astype(np.int32) << 8).astype(">i4" if big_endian else "<i4")
    triples = wide.view(np.uint8).reshape(-1, 4)
    return (triples[:, 1:] if big_endian else triples[:, :3]).tobytes()


# the samples of an int16 (frames, channels) array in other encodings, as
# the keyword arguments of raw_wav
_ENCODINGS = {
    "24-bit": lambda pcm: dict(payload=_pcm24(pcm), bits=24),
    "RIFX 24-bit": lambda pcm: dict(payload=_pcm24(pcm, True), bits=24, big_endian=True),
    "extensible 16-bit": lambda pcm: dict(payload=pcm.astype("<i2").tobytes(),
                                          extensible=True),
    "extensible float": lambda pcm: dict(payload=(pcm / np.float32(32768)).tobytes(),
                                         tag=3, bits=32, extensible=True),
    "RIFX float64": lambda pcm: dict(payload=(pcm / 32768.0).astype(">f8").tobytes(),
                                     tag=3, bits=64, big_endian=True),
    "odd chunk before data": lambda pcm: dict(payload=pcm.astype("<i2").tobytes(),
                                              chunks=b"LIST\x03\x00\x00\x00abc\x00"),
}


@pytest.mark.parametrize("rate", [16000, 44100])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("name", sorted(_ENCODINGS))
def test_convert_other_encodings_like_native_twin(tmp_path, name, channels, rate):
    native, _, pcm = write_twins(tmp_path, "RIFX 16-bit", rate, channels)
    src = tmp_path / "other.wav"
    src.write_bytes(raw_wav(channels=channels, rate=rate, **_ENCODINGS[name](pcm)))
    assert probe_duration(src) == len(pcm) / rate
    got = convert_audio(src, tmp_path / "got.wav")
    assert got == convert_audio(native, tmp_path / "want.wav")
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


# ------------------------------------------------------------ malformed WAVs

_FLOAT_NAN = np.array([0.0, np.nan], dtype=np.float32).tobytes()
_FLOAT_INF = np.array([0.5, -np.inf], dtype=np.float32).tobytes()

MALFORMED_WAVS = {
    "zero channels": raw_wav(bytes(4), channels=0, align=2),
    "zero bits": raw_wav(bytes(4), bits=0),
    "rate 0": raw_wav(bytes(4), rate=0),
    "rate above the maximum": raw_wav(bytes(4), rate=corpus.MAX_SOURCE_RATE + 1),
    "NaN float": raw_wav(_FLOAT_NAN, tag=3, bits=32),
    "infinite float": raw_wav(_FLOAT_INF, tag=3, bits=32),
    "no data chunk": raw_wav(data=False),
    "no fmt chunk": raw_wav(bytes(4), fmt=False),
    "9-byte containers": raw_wav(bytes(18), bits=64, align=9),
    "14-byte fmt chunk": raw_wav(bytes(4), fmt=False,
                                 chunks=b"fmt " + (14).to_bytes(4, "little") + bytes(14)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
def test_convert_malformed_wav_is_format_error(tmp_path, name):
    src = tmp_path / "bad.wav"
    src.write_bytes(MALFORMED_WAVS[name])
    with pytest.raises(AudioFormatError, match="bad.wav"):
        convert_audio(src, tmp_path / "out.wav")


@pytest.mark.parametrize("read", [load_wav, probe_duration], ids=["load_wav", "probe_duration"])
@pytest.mark.parametrize("case", ["missing", "truncated header"])
def test_wav_readers_name_the_file(tmp_path, read, case):
    src = tmp_path / "clip.wav"
    if case == "truncated header":
        src.write_bytes(raw_wav(bytes(8))[:30])  # ends inside the fmt chunk
    with pytest.raises(AudioFormatError, match="clip.wav"):
        read(src)


def test_chunk_past_eof_is_format_error(tmp_path):
    # a LIST chunk that declares more bytes than the file holds
    good = raw_wav(bytes(8))
    src = tmp_path / "cut.wav"
    src.write_bytes(good[:36] + b"LIST" + (1000).to_bytes(4, "little") + good[36:])
    with pytest.raises(AudioFormatError):
        load_wav(src)
    with pytest.raises(AudioFormatError):
        probe_duration(src)


def _wav_bytes(rate, samples):
    buf = io.BytesIO()
    wavfile.write(buf, rate, samples)
    return buf.getvalue()


@pytest.mark.parametrize("rate,channels", [(44100, 2), (16000, 1)])
def test_data_chunk_past_eof_reads_the_frames_there(tmp_path, rate, channels):
    # streamed WAV output declares a placeholder data size, an interrupted
    # recording a size it never wrote: the samples there are the audio
    pcm = (np.arange(1000 * channels) * 997 % 20000 - 10000).astype(np.int16)
    pcm = pcm.reshape(-1, channels) if channels > 1 else pcm
    blob = bytearray(_wav_bytes(rate, pcm))
    assert blob[36:40] == b"data"
    blob[40:44] = (0xFFFFFFFF).to_bytes(4, "little")
    src = tmp_path / "streamed.wav"
    src.write_bytes(blob)
    got = convert_audio(src, tmp_path / "got.wav")
    want = corpus_reference.convert_audio(src, tmp_path / "want.wav")
    assert got == want
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()
    assert probe_duration(src) == 1000 / rate
    if rate == 16000:
        # transcription input comes from conversion, whole: it must not be cut
        with pytest.raises(AudioFormatError, match="header declares"):
            load_wav(src)
    # a frame cut short at the end is left out
    src.write_bytes(blob[:-1])
    assert probe_duration(src) == 999 / rate


_FUZZ_BASES = (
    _wav_bytes(44100, (np.arange(64).reshape(32, 2) * 997 % 20000).astype(np.int16)),
    _wav_bytes(16000, (np.arange(32) * 997 % 20000).astype(np.int16)),
)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(_FUZZ_BASES),
       edits=st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)),
                      min_size=1, max_size=4),
       keep=st.one_of(st.none(), st.integers(0, 200)))
def test_wav_readers_fuzz(tmp_path_factory, base, edits, keep):
    """Header bytes mutated, then maybe truncated: every WAV reader gives a
    result or a ScriboError, never another exception."""
    blob = bytearray(base)
    for pos, value in edits:
        blob[pos] = value
    d = tmp_path_factory.mktemp("fuzz")
    src = d / "fuzz.wav"
    src.write_bytes(bytes(blob[:keep]))
    for read in (lambda: convert_audio(src, d / "out.wav"),
                 lambda: load_wav(src),
                 lambda: probe_duration(src)):
        try:
            read()
        except ScriboError:
            pass


# ------------------------------------------------------------------ readers

_MANIFEST_BASES = (
    b"duration\tfilepath\ttext\tspeaker\n1.500\ta.wav\thallo welt\tspk1\n"
    b"2.000\tb.wav\tguten tag\t\n",
    b"duration\tfilepath\ttext\n0.750\tclips/c.wav\tnull acht f\xc3\xbcnfzehn\n",
)


@settings(max_examples=300, deadline=None)
@given(blob=fuzzed(*_MANIFEST_BASES))
def test_read_manifest_fuzz(tmp_path_factory, blob):
    """Any bytes read or raise DatasetError; `corpus stats` exits 0 on
    what reads and 2 on what does not."""
    src = tmp_path_factory.mktemp("manifest") / "dataset.tsv"
    src.write_bytes(blob)
    try:
        read_manifest(src)
        want = 0
    except ScriboError:
        want = 2
    assert run_quietly("corpus", "stats", "--manifest", str(src))[0] == want


def _convert_code(format_tag, src, out):
    return run_quietly("corpus", "convert", "--format", format_tag,
                       "--in", str(src), "--out", str(out))[0]


# short fields and several duration cells, so that edits often land in one
_COMMONVOICE_BASES = (
    b"client_id\tpath\tsentence\tduration\nspk1\ta.wav\thallo\t0.016\n"
    b"spk2\tb.wav\tgr\xc3\xbc\xc3\x9f\t\n\ta.wav\tja\t2e-3\n",
    b'path\tsentence\tduration\nb.wav\tsay "hi"\t1.0\na.wav\tok\t16e-3\n',
)


@settings(max_examples=300, deadline=None)
@given(blob=fuzzed(*_COMMONVOICE_BASES))
def test_read_commonvoice_fuzz(tmp_path_factory, blob):
    """Any TSV bytes read or raise DatasetError; `corpus convert` exits 0
    or 2, and 2 on what does not read."""
    d = tmp_path_factory.mktemp("commonvoice")
    (d / "clips").mkdir()
    (d / "a.wav").write_bytes(_FUZZ_BASES[0])
    (d / "clips" / "b.wav").write_bytes(_FUZZ_BASES[1])
    tsv = d / "validated.tsv"
    tsv.write_bytes(blob)
    try:
        read_dataset("commonvoice-tsv", tsv)
        want = (0, 2)   # audio a row names may still fail to convert
    except DatasetError:
        want = (2,)
    assert _convert_code("commonvoice-tsv", tsv, d / "out") in want


@settings(max_examples=300, deadline=None)
@given(text=fuzzed(b"hallo welt\n", b"gr\xc3\xbc\xc3\x9f gott"),
       wav=st.sampled_from(_FUZZ_BASES + (_FUZZ_BASES[1][:30],)))
def test_read_folder_txt_fuzz(tmp_path_factory, text, wav):
    """Any transcript bytes read or raise DatasetError; `corpus convert`
    exits 0 or 2, and 2 on what does not read."""
    d = tmp_path_factory.mktemp("folder")
    raw = d / "raw"
    raw.mkdir()
    (raw / "a.wav").write_bytes(wav)
    (raw / "a.txt").write_bytes(text)
    try:
        read_dataset("folder-txt", raw)
        want = (0, 2)   # a cut WAV reads (duration 0) but does not convert
    except DatasetError:
        want = (2,)
    assert _convert_code("folder-txt", raw, d / "out") in want


def test_read_commonvoice_mapping(tmp_path):
    tsv = tmp_path / "validated.tsv"
    tsv.write_text(
        "client_id\tpath\tsentence\tduration\n"
        "spk7\tcv001.mp3\thallo welt\t3.5\n"
    )
    items = read_dataset("commonvoice-tsv", tsv)
    assert items == [
        DatasetItem(filepath="cv001.mp3", text="hallo welt", duration=3.5,
                    speaker="spk7")
    ]


def test_read_commonvoice_keeps_quotes_verbatim(tmp_path):
    # a quote opens no quoted field: each line is one row
    tsv = tmp_path / "validated.tsv"
    tsv.write_text(
        "path\tsentence\tduration\n"
        'a.wav\t"Hello there\t1.0\n'
        'b.wav\tsay "hi"\t2.0\n'
        'c.wav\tbye"\t3.0\n'
    )
    items = read_dataset("commonvoice-tsv", tsv)
    assert [(i.filepath, i.text, i.duration) for i in items] == [
        ("a.wav", '"Hello there', 1.0),
        ("b.wav", 'say "hi"', 2.0),
        ("c.wav", 'bye"', 3.0),
    ]


def test_read_commonvoice_probes_clips_dir(tmp_path):
    clips = tmp_path / "clips"
    clips.mkdir()
    write_wav(clips / "a.wav", np.zeros(8000))
    tsv = tmp_path / "validated.tsv"
    tsv.write_text("path\tsentence\na.wav\thi\n")
    items = read_dataset("commonvoice-tsv", tsv)
    assert items[0].duration == pytest.approx(0.5)
    assert items[0].speaker is None


def test_read_commonvoice_skips_incomplete_rows(tmp_path, caplog):
    tsv = tmp_path / "v.tsv"
    tsv.write_text(
        "path\tsentence\tduration\n"
        "a.wav\t\t1.0\n"
        "\thello\t1.0\n"
        "b.wav\tok\t1.0\n"
    )
    with caplog.at_level("WARNING"):
        items = read_dataset("commonvoice-tsv", tsv)
    assert [i.filepath for i in items] == ["b.wav"]
    assert any("skipped 2" in r.message for r in caplog.records)


def test_read_header_only(tmp_path):
    tsv = tmp_path / "v.tsv"
    tsv.write_text("path\tsentence\n")
    assert read_dataset("commonvoice-tsv", tsv) == []


def test_read_folder_txt(tmp_path):
    write_wav(tmp_path / "a.wav", np.zeros(16000))
    (tmp_path / "a.txt").write_text("hello")
    items = read_dataset("folder-txt", tmp_path)
    assert len(items) == 1
    assert items[0].text == "hello"
    assert items[0].filepath == "a.wav"
    assert items[0].duration == pytest.approx(1.0)


def test_read_folder_txt_skips_a_wav_without_transcript(tmp_path, caplog):
    write_wav(tmp_path / "a.wav", np.zeros(16000))
    (tmp_path / "a.txt").write_text("hello")
    write_wav(tmp_path / "b.wav", np.zeros(16000))
    with caplog.at_level("WARNING"):
        items = read_dataset("folder-txt", tmp_path)
    assert [i.filepath for i in items] == ["a.wav"]
    assert f"{tmp_path}: 1 wav files have no .txt transcript" in caplog.messages


@pytest.mark.parametrize("kind", ["file", "missing"])
def test_read_folder_txt_refuses_what_is_not_a_directory(tmp_path, kind):
    path = tmp_path / "meta.tsv"
    if kind == "file":
        path.write_text("path\tsentence\n")
    with pytest.raises(DatasetError) as info:
        read_dataset("folder-txt", path)
    assert str(info.value) == f"{path}: not a directory"
    out = tmp_path / "out"
    code, err = run_quietly("corpus", "convert", "--format", "folder-txt",
                            "--in", str(path), "--out", str(out))
    assert code == 2 and f"{path}: not a directory" in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["commonvoice-tsv", "manifest-csv"])
def test_read_dataset_names_a_missing_file(tmp_path, fmt):
    path = tmp_path / "absent.tsv"
    with pytest.raises(DatasetError) as info:
        read_dataset(fmt, path)
    assert str(info.value) == f"{path}: cannot read: No such file or directory"


def test_read_unknown_format(tmp_path):
    with pytest.raises(DatasetError, match="format"):
        read_dataset("mystery", tmp_path)


def test_read_missing_metadata(tmp_path):
    with pytest.raises(DatasetError):
        read_dataset("commonvoice-tsv", tmp_path / "absent.tsv")


def test_read_manifest_rejects_bytes_that_are_not_utf8(tmp_path):
    f = tmp_path / "m.tsv"
    f.write_bytes(b"duration\tfilepath\ttext\n1.0\ta.wav\t\xff\n")
    with pytest.raises(DatasetError, match="cannot read"):
        read_manifest(f)


def test_read_manifest_skips_non_finite_durations(tmp_path):
    f = tmp_path / "m.tsv"
    f.write_text("duration\tfilepath\ttext\ninf\ta.wav\thi\n1e999\tb.wav\thi\n"
                 "1.0\tc.wav\thi\n")
    assert [i.filepath for i in read_manifest(f)] == ["c.wav"]


@pytest.mark.parametrize("body, where", [
    (b"path\tsentence\na.wav\t" + b"x" * 140000 + b"\n", "line 2"),
    (b"path\tsentence\tduration\na.wav\thi\t1.0\nb.wav\t\xff\t1.0\n", "line 3"),
    (b"path\tsentence\tduration\na.wav\thi\tabc\n", "line 2"),
    (b"path\tsentence\tduration\na.wav\thi\t1.0\nb.wav\tho\tinf\n", "line 3"),
    (b"path\tsentence\tduration\na.wav\thi\t1e999\n", "line 2"),
], ids=["field-over-csv-limit", "not-utf8", "duration-not-a-number",
        "duration-inf", "duration-overflows"])
def test_read_commonvoice_names_file_and_line(capsys, tmp_path, body, where):
    tsv = tmp_path / "validated.tsv"
    tsv.write_bytes(body)
    with pytest.raises(DatasetError, match=f"validated.tsv: {where}"):
        read_dataset("commonvoice-tsv", tsv)
    code, err = run_quietly("corpus", "convert", "--format", "commonvoice-tsv",
                            "--in", str(tsv), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"validated.tsv: {where}" in err


def test_read_folder_txt_names_a_transcript_that_is_not_utf8(tmp_path):
    write_wav(tmp_path / "a.wav", np.zeros(160))
    (tmp_path / "a.txt").write_bytes(b"gr\xfc\xdf gott\n")
    with pytest.raises(DatasetError, match="a.txt"):
        read_dataset("folder-txt", tmp_path)
    code, err = run_quietly("corpus", "convert", "--format", "folder-txt",
                            "--in", str(tmp_path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "a.txt" in err


@pytest.mark.parametrize("filepath", ["../a.wav", "clips/../../a.wav", "{root}/a.wav"])
def test_corpus_convert_writes_nothing_outside_out(tmp_path, filepath):
    data = tmp_path / "data"
    data.mkdir()
    write_wav(tmp_path / "a.wav", np.zeros(160))
    before = (tmp_path / "a.wav").read_bytes()
    tsv = data / "validated.tsv"
    tsv.write_text(f"path\tsentence\n{filepath.format(root=tmp_path)}\thi\n")
    code, err = run_quietly("corpus", "convert", "--format", "commonvoice-tsv",
                            "--in", str(tsv), "--out", str(data / "out"))
    assert code == 2
    assert "leads out of --out" in err
    assert (tmp_path / "a.wav").read_bytes() == before
    assert not (data / "out").exists()


def test_convert_dataset_refuses_a_path_out_of_out_before_writing(tmp_path):
    write_wav(tmp_path / "a.wav", np.zeros(160))
    tsv = tmp_path / "data" / "validated.tsv"
    tsv.parent.mkdir()
    tsv.write_text("path\tsentence\n../a.wav\thi\n")
    with pytest.raises(DatasetError, match="leads out of --out"):
        convert_dataset("commonvoice-tsv", tsv, tmp_path / "data" / "out")
    assert not (tmp_path / "data" / "out").exists()


def test_read_manifest_rejects_alien_header(tmp_path):
    f = tmp_path / "m.tsv"
    f.write_text("foo\tbar\n1\t2\n")
    with pytest.raises(DatasetError):
        read_manifest(f)


# ----------------------------------------------------------------- cleaning

def naive_clean(items):
    """Independent restatement of the six exclusion rules."""
    def cps(it):
        return len(it.text) / it.duration if it.duration > 0 else float("inf")

    speakable = [it for it in items if it.duration > 0]
    a_cps = sum(cps(i) for i in speakable) / len(speakable) if speakable else 0.0
    a_dur = sum(i.duration for i in items) / len(items) if items else 0.0

    kept, excluded = [], []
    for it in items:
        if it.duration < 0.5:
            excluded.append((it, 1))
        elif it.duration > 30.0:
            excluded.append((it, 2))
        elif len(it.text) > 512:
            excluded.append((it, 3))
        elif cps(it) > 2.0 * a_cps:
            excluded.append((it, 4))
        elif cps(it) < 1.0 / 3.0:
            excluded.append((it, 5))
        elif cps(it) < a_cps / 3.0 and it.duration > a_dur / 5.0:
            excluded.append((it, 6))
        else:
            kept.append(it)
    return kept, excluded


def test_clean_short_audio():
    report = clean_corpus([item(0.3), item(1.0)])
    assert [(e.filepath, m) for e, m in report.excluded] == [("x.wav", 1)]


def test_clean_long_audio():
    report = clean_corpus([item(31.0, text="a" * 40), item(5.0, text="a" * 40)])
    assert [m for _, m in report.excluded] == [2]


def test_clean_overlong_text():
    items = [item(10.0, text="a" * 513), item(10.0, text="a" * 110)]
    report = clean_corpus(items)
    assert [m for _, m in report.excluded] == [3]


def test_clean_fast_speech_against_hand_average():
    # cps: 10, 10, 25 -> A_cps = 15; third item sits at 2.5 x 10 = 25 > 30? no:
    # 25 > 2*15 is false; use 35 -> A_cps (10+10+35)/3 ≈ 18.33, 35 > 36.67 false.
    # Make the outlier big enough to clear twice its own inflated mean.
    items = [
        item(2.0, text="a" * 20),            # cps 10
        item(2.0, text="b" * 20),            # cps 10
        item(2.0, text="c" * 100),           # cps 50; A_cps = 70/3
    ]
    a_cps = (10 + 10 + 50) / 3
    assert 50 > 2 * a_cps
    report = clean_corpus(items)
    assert [m for _, m in report.excluded] == [4]
    assert len(report.kept) == 2


def test_clean_silent_audio():
    items = [item(9.0, text="ab"), item(2.0, text="ab" * 3)]   # cps 0.22 / 3.0
    report = clean_corpus(items)
    assert [m for _, m in report.excluded] == [5]


def test_clean_slow_outlier_metric6():
    # outlier: cps 1.0 vs average ~3.4 (< a third), duration over a fifth
    # of the mean; fast enough to dodge metric 5
    items = [
        item(10.0, text="a" * 10),
        item(10.0, text="b" * 45),
        item(10.0, text="c" * 47),
    ]
    kept, excluded = naive_clean(items)
    assert [(e.filepath, m) for e, m in excluded] == [("x.wav", 6)]
    report = clean_corpus(items)
    assert [(e.filepath, m) for e, m in report.excluded] == [("x.wav", 6)]


def test_clean_zero_duration_is_metric1():
    report = clean_corpus([item(0.0), item(1.0)])
    assert [m for _, m in report.excluded] == [1]


def test_clean_empty_input():
    report = clean_corpus([])
    assert report.kept == [] and report.excluded == []


def random_corpus(seed, n=1000):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        bucket = rng.integers(0, 8)
        if bucket == 0:
            duration = 0.0
        elif bucket == 1:
            duration = float(rng.uniform(0.0, 0.6))
        elif bucket == 2:
            duration = float(rng.choice([0.5, 30.0]))   # boundary values
        elif bucket == 3:
            duration = float(rng.uniform(28.0, 35.0))
        else:
            duration = float(rng.uniform(0.5, 15.0))
        n_chars = int(rng.choice([0, 1, 5, 30, 80, 200, 513, 600],
                                 p=[.05, .05, .2, .3, .2, .1, .05, .05]))
        items.append(item(duration, text="x" * n_chars, filepath=f"{i}.wav"))
    return items


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clean_matches_naive_reimplementation(seed):
    items = random_corpus(seed)
    want_kept, want_excluded = naive_clean(items)
    report = clean_corpus(items)
    assert report.kept == want_kept
    assert report.excluded == want_excluded
    assert len(report.kept) + len(report.excluded) == len(items)


def test_clean_partition_property():
    items = random_corpus(3, n=1500)
    report = clean_corpus(items)
    assert len(report.kept) + len(report.excluded) == len(items)
    excluded_items = [e for e, _ in report.excluded]
    assert set(i.filepath for i in report.kept).isdisjoint(
        i.filepath for i in excluded_items
    )


def test_metric_counts():
    items = random_corpus(4)
    report = clean_corpus(items)
    counts = report.metric_counts()
    assert sum(counts.values()) == len(report.excluded)
    assert set(counts) <= {1, 2, 3, 4, 5, 6}


# -------------------------------------------------------------------- stats

def test_stats_totals():
    items = [item(1.0), item(2.0), item(3.0)]
    stats = compute_stats(items)
    assert stats.item_count == 3
    assert stats.total_duration == pytest.approx(6.0)
    assert stats.mean_duration == pytest.approx(2.0)


def test_stats_take_the_cleaning_averages():
    # a zero-length item counts in the mean duration, as clean_corpus counts it
    items = [item(2.0), item(0.0), item(4.0)]
    stats = compute_stats(items)
    assert (stats.mean_chars_per_second, stats.mean_duration) == corpus_averages(items)
    assert stats.mean_duration == 2.0


def test_stats_total_matches_independent_fold():
    items = random_corpus(5, n=300)
    total = 0.0
    for it in items:
        total += it.duration
    assert compute_stats(items).total_duration == pytest.approx(total)


def test_stats_top_speakers():
    items = [
        item(1.0, speaker="a"), item(1.0, speaker="a"), item(1.0, speaker="b"),
    ]
    assert compute_stats(items).top_speakers == [("a", 2), ("b", 1)]


def test_stats_speaker_tie_breaks_by_name():
    items = [item(1.0, speaker="z"), item(1.0, speaker="a")]
    assert compute_stats(items).top_speakers == [("a", 1), ("z", 1)]


def test_stats_empty():
    stats = compute_stats([])
    assert stats.item_count == 0
    assert stats.total_duration == 0.0
    assert stats.top_speakers == []


# -------------------------------------------------------------------- split

def ten_items():
    return [item(1.0, filepath=f"{i}.wav") for i in range(10)]


def test_split_largest_remainder_sizes():
    parts = split_dataset(ten_items(), [0.8, 0.1, 0.1], seed=1)
    assert sorted(parts) == ["dev", "test", "train"]
    assert len(parts["train"]) == 8
    assert len(parts["dev"]) == 1
    assert len(parts["test"]) == 1


def test_split_partitions_cover_input():
    items = ten_items()
    parts = split_dataset(items, [0.5, 0.5], seed=3)
    merged = parts["train"] + parts["test"]
    assert sorted(i.filepath for i in merged) == sorted(i.filepath for i in items)


def test_split_deterministic():
    a = split_dataset(ten_items(), [0.8, 0.2], seed=9)
    b = split_dataset(ten_items(), [0.8, 0.2], seed=9)
    assert a == b


def test_split_seed_changes_assignment():
    a = split_dataset(ten_items(), [0.5, 0.5], seed=0)
    b = split_dataset(ten_items(), [0.5, 0.5], seed=1)
    assert a != b   # 10 items, chance collision is negligible


def test_split_fraction_sum_enforced():
    with pytest.raises(ValueError):
        split_dataset(ten_items(), [0.5, 0.2], seed=0)


def test_split_by_speaker_keeps_groups_whole():
    items = [
        item(1.0, filepath=f"a{i}.wav", speaker="alice") for i in range(5)
    ] + [
        item(1.0, filepath=f"b{i}.wav", speaker="bob") for i in range(5)
    ]
    parts = split_dataset(items, [0.5, 0.5], seed=2, by_key="speaker")
    speakers_per_part = [
        {i.speaker for i in part} for part in parts.values()
    ]
    assert sorted(len(s) for s in speakers_per_part) == [1, 1]
    assert {s for group in speakers_per_part for s in group} == {"alice", "bob"}


def test_split_by_key_missing_values(tmp_path):
    items = [item(1.0, filepath="a.wav", speaker="x"), item(1.0, filepath="b.wav")]
    with pytest.raises(DatasetError, match="b.wav"):
        split_dataset(items, [0.5, 0.5], by_key="speaker")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_split_by_key_single_partition_property(seed):
    rng = np.random.default_rng(seed)
    items = [
        item(1.0, filepath=f"{i}.wav", speaker=f"s{rng.integers(0, 6)}")
        for i in range(30)
    ]
    parts = split_dataset(items, [0.6, 0.2, 0.2], seed=seed, by_key="speaker")
    for speaker in {i.speaker for i in items}:
        holders = [n for n, part in parts.items()
                   if any(i.speaker == speaker for i in part)]
        assert len(holders) == 1
    merged = [i for part in parts.values() for i in part]
    assert sorted(i.filepath for i in merged) == sorted(i.filepath for i in items)


def test_split_custom_names():
    parts = split_dataset(ten_items(), [0.5, 0.3, 0.2], seed=0,
                          names=["a", "b", "c"])
    assert sorted(parts) == ["a", "b", "c"]


@pytest.mark.parametrize("fractions,names", [
    ([1.0], ["all"]),
    ([0.25] * 4, ["part1", "part2", "part3", "part4"]),
])
def test_split_default_names(fractions, names):
    parts = split_dataset(ten_items(), fractions, seed=0)
    assert list(parts) == names
    assert sum(len(p) for p in parts.values()) == 10


def test_split_refuses_a_name_count_unlike_the_fractions():
    with pytest.raises(ValueError, match="need one name per fraction"):
        split_dataset(ten_items(), [0.5, 0.5], names=["a", "b", "c"])


# ------------------------------------------------------------------ writing

def test_write_single_item(tmp_path):
    write_wav(tmp_path / "a.wav", np.zeros(16000))
    items = [item(1.0, text="hello", filepath="a.wav")]
    manifest = write_dataset(items, "manifest-csv", tmp_path)
    lines = manifest.read_text().splitlines()
    assert lines[0] == "duration\tfilepath\ttext"
    assert lines[1] == "1.000\ta.wav\thello"


def test_write_speaker_column(tmp_path):
    write_wav(tmp_path / "a.wav", np.zeros(1600))
    items = [item(0.1, filepath="a.wav", speaker="spk")]
    manifest = write_dataset(items, "manifest-csv", tmp_path)
    lines = manifest.read_text().splitlines()
    assert lines[0] == "duration\tfilepath\ttext\tspeaker"
    assert lines[1].endswith("\tspk")


def test_write_sanitizes_tabs_and_newlines(tmp_path):
    write_wav(tmp_path / "a.wav", np.zeros(1600))
    items = [item(0.1, text="tab\there\nand", filepath="a.wav")]
    manifest = write_dataset(items, "manifest-csv", tmp_path)
    row = manifest.read_text().splitlines()[1]
    assert row.split("\t")[2] == "tab here and"


def test_write_empty_manifest(tmp_path):
    manifest = write_dataset([], "manifest-csv", tmp_path)
    assert manifest.read_text().splitlines() == ["duration\tfilepath\ttext"]


def test_write_missing_audio(tmp_path):
    items = [item(1.0, filepath="ghost.wav")]
    with pytest.raises(DatasetError):
        write_dataset(items, "manifest-csv", tmp_path)


def test_round_trip_preserves_fields(tmp_path):
    rng = np.random.default_rng(7)
    items = []
    for i in range(50):
        seconds = round(float(rng.uniform(0.2, 8.0)), 3)
        n = int(seconds * 16000)
        write_wav(tmp_path / f"c{i:02d}.wav", np.zeros(n))
        speaker = f"spk{rng.integers(0, 5)}" if rng.random() < 0.7 else None
        items.append(DatasetItem(
            filepath=f"c{i:02d}.wav",
            text=f"utterance {i}",
            duration=n / 16000,
            speaker=speaker,
        ))
    has_speaker = any(i.speaker for i in items)
    manifest = write_dataset(items, "manifest-csv", tmp_path)
    again = read_manifest(manifest)
    assert len(again) == len(items)
    for a, b in zip(items, again):
        assert a.filepath == b.filepath
        assert a.text == b.text
        assert abs(a.duration - b.duration) <= 1e-6
        if has_speaker:
            assert (a.speaker or None) == (b.speaker or None)


def test_corpus_averages_definition():
    items = [item(0.0, text="xx"), item(2.0, text="ab"), item(4.0, text="abcd")]
    a_cps, a_dur = corpus_averages(items)
    assert a_cps == pytest.approx(1.0)      # over items with duration > 0
    assert a_dur == pytest.approx(2.0)      # over the full input


def test_split_gives_the_largest_remainders_the_leftover_items():
    # 4.5, 4.5 and 1 items: the one left over goes to the first tied part
    parts = split_dataset(ten_items(), [0.45, 0.45, 0.1], seed=0)
    assert [len(p) for p in parts.values()] == [5, 4, 1]


@pytest.mark.parametrize("fractions", [
    [1.5, -0.5, 0.0], [math.nan, 0.0, 0.0], [math.inf, -math.inf, 1.0], [-0.0, 1.0, -1e-300],
])
@pytest.mark.parametrize("by_key", [None, "speaker"])
def test_split_refuses_fractions_that_are_not_finite_and_non_negative(fractions, by_key):
    items = [item(1.0, filepath=f"{i}.wav", speaker=f"s{i}") for i in range(10)]
    with pytest.raises(ValueError, match="fractions must be finite and >= 0"):
        split_dataset(items, fractions, by_key=by_key)


_CV_ROWS = [b"path\tsentence\tduration\tclient_id", b"a.wav\thallo welt\t1.5\tspk1",
            b"b.wav\tdu\t2.0\t"]
_MANIFEST_ROWS = [b"duration\tfilepath\ttext\tspeaker", b"1.5\ta.wav\thallo welt\tspk1",
                  b"2.0\tb.wav\tdu\t"]
_WANT = [DatasetItem("a.wav", "hallo welt", 1.5, "spk1"), DatasetItem("b.wav", "du", 2.0)]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_tsv_readers_take_any_newline(tmp_path, newline):
    cv = tmp_path / "validated.tsv"
    cv.write_bytes(newline.join(_CV_ROWS + [b""]))
    assert read_dataset("commonvoice-tsv", cv) == _WANT
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(newline.join(_MANIFEST_ROWS[:2] + [b""] + _MANIFEST_ROWS[2:]))
    assert read_manifest(manifest) == _WANT


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("rows", [_CV_ROWS, _MANIFEST_ROWS], ids=["commonvoice", "manifest"])
def test_tsv_readers_name_the_line_that_is_not_utf8(tmp_path, newline, rows):
    path = tmp_path / "rows.tsv"
    path.write_bytes(newline.join(rows[:2] + [rows[2].replace(b"du", b"d\xfc")]))
    read = (lambda p: read_dataset("commonvoice-tsv", p)) if rows is _CV_ROWS else read_manifest
    with pytest.raises(DatasetError, match=r"rows\.tsv: line 3: cannot read: not UTF-8: "):
        read(path)


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("fmt", ["commonvoice-tsv", "manifest-csv"])
def test_tsv_readers_name_a_file_they_cannot_read(tmp_path, kind, fmt):
    # the readers themselves, as read_dataset calls them
    path = tmp_path / "rows.tsv"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(DatasetError, match=r"rows\.tsv: cannot read: "):
        corpus._READERS[fmt](path)
