"""Dataset reading, audio conversion, cleaning metrics, splitting, writing."""
import io
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import firwin

import corpus_reference
from scribo import corpus
from scribo.corpus import (CleaningReport, CorpusStats, DatasetItem,
                           clean_corpus, compute_stats, convert_audio,
                           corpus_averages, probe_duration,
                           read_dataset, read_manifest, split_dataset,
                           write_dataset)
from scribo.errors import AudioFormatError, DatasetError, ScriboError
from scribo.features import load_wav

from conftest import raw_wav, tone, write_wav


def item(duration, text="hello there", filepath="x.wav", speaker=None):
    return DatasetItem(filepath=filepath, text=text, duration=duration,
                       speaker=speaker)


# ------------------------------------------------------------- DatasetItem

def test_item_validation():
    with pytest.raises(ValueError):
        DatasetItem(filepath="", text="a", duration=1.0)
    with pytest.raises(ValueError):
        DatasetItem(filepath="a.wav", text="a", duration=-0.1)


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


def test_lowpass_is_resample_poly_default_and_read_only():
    # 44.1 kHz -> 16 kHz reduces to up 160, down 441
    h = corpus._lowpass(160, 441)
    assert h.shape == (8821,)
    assert np.array_equal(h, firwin(8821, 1 / 441, window=("kaiser", 5.0)))
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0] = 0.0
    assert corpus._lowpass(160, 441) is h


def test_lowpass_cache_stays_bounded(tmp_path):
    corpus._lowpass.cache_clear()
    rates = (8000, 11025, 12000, 22050, 24000, 32000, 44100, 48000)
    for rate in rates:
        src = write_wav(tmp_path / f"{rate}.wav", tone(0.05, rate=rate), rate=rate)
        convert_audio(src, tmp_path / "out.wav")
    info = corpus._lowpass.cache_info()
    assert info.misses == len(rates)
    assert info.currsize == info.maxsize == 4


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
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
def test_convert_malformed_wav_is_format_error(tmp_path, name):
    src = tmp_path / "bad.wav"
    src.write_bytes(MALFORMED_WAVS[name])
    with pytest.raises(AudioFormatError, match="bad.wav"):
        convert_audio(src, tmp_path / "out.wav")


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


_FUZZ_BASES = (
    _wav_bytes(44100, (np.arange(64).reshape(32, 2) * 997 % 20000).astype(np.int16)),
    _wav_bytes(16000, (np.arange(32) * 997 % 20000).astype(np.int16)),
)


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
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


def test_read_unknown_format(tmp_path):
    with pytest.raises(DatasetError, match="format"):
        read_dataset("mystery", tmp_path)


def test_read_missing_metadata(tmp_path):
    with pytest.raises(DatasetError):
        read_dataset("commonvoice-tsv", tmp_path / "absent.tsv")


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
