"""Dataset ingestion, conversion, cleaning, statistics and splitting.

Datasets are flat lists of items (audio path, transcript, duration,
optional speaker). Readers for a few common layouts produce them,
cleaning filters them with six exclusion metrics, and the writer emits
the tab-separated manifest format used everywhere else in the package:

    duration<TAB>filepath<TAB>text[<TAB>speaker]

with duration in seconds (3 decimals) and filepath relative to the
manifest's directory. Remote downloading is deliberately absent; point
the readers at local files.
"""
from __future__ import annotations

import functools
import logging
import math
import random
import struct
import wave
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

from .errors import AudioFormatError, DatasetError

log = logging.getLogger(__name__)

TARGET_RATE = 16000

#: Highest source sample rate convert_audio accepts (every standard PCM
#: rate is below it). It bounds the resampling filter, which has
#: 20*max(16000, rate)/g + 1 taps for g = gcd(rate, 16000): at most 7.7M
#: taps (59 MiB).
MAX_SOURCE_RATE = 384000

#: How non-conformant sample rates are brought to 16 kHz; recorded in
#: conversion sidecars so downstream users know the interpolation used.
RESAMPLE_METHOD = "polyphase windowed-sinc"


@dataclass(frozen=True)
class DatasetItem:
    filepath: str
    text: str
    duration: float
    speaker: str | None = None

    def __post_init__(self):
        if not self.filepath:
            raise ValueError("filepath must be non-empty")
        if not self.duration >= 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    @property
    def chars_per_second(self) -> float:
        """len(text)/duration; undefined (inf) for zero duration."""
        return len(self.text) / self.duration if self.duration > 0 else math.inf


@dataclass(frozen=True)
class CorpusStats:
    item_count: int
    total_duration: float
    mean_chars_per_second: float
    mean_duration: float
    top_speakers: list[tuple[str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class CleaningReport:
    kept: list[DatasetItem]
    excluded: list[tuple[DatasetItem, int]]

    def metric_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {m: 0 for m in range(1, 7)}
        for _, metric in self.excluded:
            counts[metric] += 1
        return counts


# ---------------------------------------------------------------------------
# Audio


#: Integer PCM dtypes as (offset, full scale): a sample x maps to
#: (x - offset) / full scale in [-1, 1).
_PCM_SCALE = {
    np.dtype(np.int16): (0, 32768.0),
    np.dtype(np.int32): (0, 2147483648.0),
    np.dtype(np.uint8): (128, 128.0),
}


def _to_float(samples: np.ndarray) -> np.ndarray:
    out = samples.astype(np.float64)
    scale = _PCM_SCALE.get(samples.dtype)
    if scale is not None:
        offset, full = scale
        if offset:
            out -= offset
        out /= full
    return out


def probe_duration(path) -> float:
    """Duration in seconds from the WAV header, without decoding."""
    try:
        with wave.open(str(path), "rb") as wf:
            rate = wf.getframerate()
            if rate <= 0:
                raise AudioFormatError(f"{path}: bad sample rate in header")
            return wf.getnframes() / rate
    except (wave.Error, EOFError, OSError, struct.error, RuntimeError) as exc:
        # wave raises a bare RuntimeError when a chunk's size runs past EOF
        raise AudioFormatError(f"{path}: cannot probe duration: {exc}") from exc


def _write_pcm16(path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(TARGET_RATE)
        wf.writeframes(samples.astype("<i2", copy=False).tobytes())


def _downmix(data: np.ndarray) -> np.ndarray:
    """Average the channel columns of ``data`` into float64 in [-1, 1].

    Integer PCM is summed column by column as float64 and scaled once.
    Every partial sum is an integer below 2**47 (at most 65535 channels
    of 32-bit samples), so it is exact, the one rounding left is the
    final division, and the result equals ``_to_float(data).mean(axis=1)``
    bit for bit. Float input keeps that mean: for 9 or more channels its
    pairwise order differs from a column loop.
    """
    scale = _PCM_SCALE.get(data.dtype)
    if scale is None:
        return _to_float(data).mean(axis=1)
    offset, full = scale
    channels = data.shape[1]
    mono = data[:, 0].astype(np.float64)
    for c in range(1, channels):
        mono += data[:, c]
    if offset:
        mono -= offset * channels
    mono /= full * channels
    return mono


@functools.lru_cache(maxsize=4)
def _lowpass(up: int, down: int) -> np.ndarray:
    """The anti-aliasing filter ``resample_poly(x, up, down)`` designs by
    default, designed once per rate pair and shared read-only.

    ``resample_poly`` copies an array window before scaling it, so
    passing this one gives its default output bit for bit. It has
    8821 taps (69 KiB) for 44.1 and 22.05 kHz; a rate coprime to 16000
    needs 20*max(16000, rate) + 1 taps, which is why the cache is small.
    """
    max_rate = max(up, down)
    h = firwin(2 * 10 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


def convert_audio(src_path, dst_path) -> float:
    """Convert any readable WAV to PCM-16 mono 16 kHz; return duration.

    Stereo is downmixed by averaging, other sample rates go through a
    polyphase windowed-sinc resampler, and already conformant input is
    passed through with byte-identical samples. A file that cannot be
    decoded, has a sample rate outside (0, MAX_SOURCE_RATE] or holds
    non-finite float samples raises AudioFormatError.
    """
    src_path, dst_path = Path(src_path), Path(dst_path)
    try:
        rate, data = wavfile.read(src_path)
    except (ValueError, EOFError, OSError, struct.error) as exc:
        raise AudioFormatError(f"{src_path}: cannot decode: {exc}") from exc
    except (ZeroDivisionError, TypeError, UnboundLocalError) as exc:
        # scipy's reader trusts the header: it divides by the channel
        # count and block alignment, names a dtype after the container
        # size, and reads unset locals when the fmt or data chunk is missing
        raise AudioFormatError(f"{src_path}: malformed WAV header: {exc}") from exc
    if not 0 < rate <= MAX_SOURCE_RATE:
        raise AudioFormatError(
            f"{src_path}: sample rate {rate} Hz outside 1-{MAX_SOURCE_RATE} Hz"
        )
    if np.issubdtype(data.dtype, np.floating) and not np.isfinite(data).all():
        raise AudioFormatError(f"{src_path}: float samples include NaN or infinity")

    if data.ndim == 2:
        mono = _downmix(data)
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
        up, down = TARGET_RATE // g, rate // g
        mono = resample_poly(mono, up, down, window=_lowpass(up, down))
    # mono is this function's own array: scale, round and clip in place
    mono *= 32768.0
    np.rint(mono, out=mono)
    np.clip(mono, -32768, 32767, out=mono)
    pcm = mono.astype("<i2")
    _write_pcm16(dst_path, pcm)
    return len(pcm) / TARGET_RATE


# ---------------------------------------------------------------------------
# Readers

_FILE_COLS = ("path", "filepath", "filename", "file")
_TEXT_COLS = ("sentence", "text", "transcript")
_SPEAKER_COLS = ("client_id", "speaker")

READ_FORMATS = ("commonvoice-tsv", "folder-txt", "manifest-csv")


def _audio_path(base: Path, filepath: str) -> Path:
    """``base/filepath``, or ``base/clips/filepath`` (the Common Voice
    layout) when only that exists."""
    path = base / filepath
    clips = base / "clips" / filepath
    return clips if not path.exists() and clips.exists() else path


def _probe_or_zero(path: Path) -> float:
    try:
        return probe_duration(path)
    except AudioFormatError:
        return 0.0


def _read_commonvoice(tsv_path: Path) -> list[DatasetItem]:
    import csv

    with open(tsv_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
        header = reader.fieldnames or []
        file_col = next((c for c in _FILE_COLS if c in header), None)
        text_col = next((c for c in _TEXT_COLS if c in header), None)
        if file_col is None or text_col is None:
            raise DatasetError(f"{tsv_path}: header lacks a path or sentence column")
        speaker_col = next((c for c in _SPEAKER_COLS if c in header), None)
        has_duration = "duration" in header

        items, skipped = [], 0
        for row in reader:
            filepath = (row.get(file_col) or "").strip()
            text = (row.get(text_col) or "").strip()
            if not filepath or not text:
                skipped += 1
                continue
            if has_duration and (row.get("duration") or "").strip():
                duration = float(row["duration"])
            else:
                duration = _probe_or_zero(_audio_path(tsv_path.parent, filepath))
            speaker = (row.get(speaker_col) or "").strip() or None if speaker_col else None
            items.append(DatasetItem(filepath, text, duration, speaker))
    if skipped:
        log.warning("%s: skipped %d rows with missing path/sentence", tsv_path, skipped)
    return items


def _read_folder_txt(folder: Path) -> list[DatasetItem]:
    items, skipped = [], 0
    for audio in sorted(folder.glob("*.wav")):
        transcript = audio.with_suffix(".txt")
        if not transcript.exists():
            skipped += 1
            continue
        text = transcript.read_text(encoding="utf-8").strip()
        items.append(DatasetItem(audio.name, text, _probe_or_zero(audio)))
    if skipped:
        log.warning("%s: %d wav files have no .txt transcript", folder, skipped)
    return items


def read_manifest(path) -> list[DatasetItem]:
    """Read the package's tab-separated manifest format."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read manifest: {exc}") from exc
    if not lines:
        raise DatasetError(f"{path}: empty manifest (missing header)")
    header = lines[0].split("\t")
    if header[:3] != ["duration", "filepath", "text"] or header[3:] not in ([], ["speaker"]):
        raise DatasetError(f"{path}: unexpected manifest header {lines[0]!r}")
    has_speaker = len(header) == 4

    items, skipped = [], 0
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            skipped += 1
            continue
        try:
            duration = float(fields[0])
            items.append(
                DatasetItem(fields[1], fields[2], duration,
                            fields[3] if has_speaker and fields[3] else None)
            )
        except ValueError:
            skipped += 1
    if skipped:
        log.warning("%s: skipped %d malformed manifest rows", path, skipped)
    return items


def read_dataset(format_tag: str, path) -> list[DatasetItem]:
    """Load a dataset in one of the supported layouts.

    ``commonvoice-tsv`` reads a TSV metadata file (path/sentence columns
    and friends), ``folder-txt`` pairs each ``x.wav`` with ``x.txt``,
    ``manifest-csv`` reads this package's own manifest. Durations
    missing from metadata are probed from the WAV headers.
    """
    path = Path(path)
    if format_tag not in READ_FORMATS:
        raise DatasetError(f"unknown dataset format {format_tag!r}; know {READ_FORMATS}")
    if not path.exists():
        raise DatasetError(f"{path}: no such file or directory")
    if format_tag == "commonvoice-tsv":
        return _read_commonvoice(path)
    if format_tag == "folder-txt":
        return _read_folder_txt(path)
    return read_manifest(path)


# ---------------------------------------------------------------------------
# Cleaning, statistics, splitting

MAX_TEXT_CHARS = 512
MIN_DURATION = 0.5
MAX_DURATION = 30.0


def corpus_averages(items) -> tuple[float, float]:
    """(mean chars/second over items with duration > 0, mean duration
    over all items); both 0.0 for an empty corpus."""
    cps = [it.chars_per_second for it in items if it.duration > 0]
    a_cps = sum(cps) / len(cps) if cps else 0.0
    a_dur = sum(it.duration for it in items) / len(items) if items else 0.0
    return a_cps, a_dur


def _first_firing_metric(item: DatasetItem, a_cps: float, a_dur: float) -> int | None:
    if item.duration < MIN_DURATION:
        return 1
    if item.duration > MAX_DURATION:
        return 2
    if len(item.text) > MAX_TEXT_CHARS:
        return 3
    cps = item.chars_per_second
    if cps > 2.0 * a_cps:
        return 4
    if cps < 1.0 / 3.0:
        return 5
    if cps < a_cps / 3.0 and item.duration > a_dur / 5.0:
        return 6
    return None


def clean_corpus(items) -> CleaningReport:
    """Apply the six exclusion metrics in one pass.

    With cps = len(text)/duration, A_cps / A_dur the corpus averages
    from corpus_averages (computed once, before any filtering):

      1. duration < 0.5 s
      2. duration > 30 s
      3. more than 512 characters of text
      4. cps more than twice A_cps
      5. cps below one character per three seconds
      6. cps below A_cps/3 while duration exceeds A_dur/5

    Items report the lowest-numbered metric that fired. Zero-duration
    items fall under metric 1, so cps is never evaluated for them.
    """
    a_cps, a_dur = corpus_averages(items)
    kept, excluded = [], []
    for item in items:
        metric = _first_firing_metric(item, a_cps, a_dur)
        if metric is None:
            kept.append(item)
        else:
            excluded.append((item, metric))
    return CleaningReport(kept, excluded)


def compute_stats(items) -> CorpusStats:
    """Corpus totals plus speaker counts, most recorded first."""
    items = list(items)
    total = sum(it.duration for it in items)
    timed = [it for it in items if it.duration > 0]
    mean_cps = sum(it.chars_per_second for it in timed) / len(timed) if timed else 0.0
    mean_dur = sum(it.duration for it in timed) / len(timed) if timed else 0.0
    counts = Counter(it.speaker for it in items if it.speaker is not None)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return CorpusStats(len(items), total, mean_cps, mean_dur, top)


def _partition_names(n: int, names=None) -> list[str]:
    if names is not None:
        if len(names) != n:
            raise ValueError("need one name per fraction")
        return list(names)
    if n == 1:
        return ["all"]
    if n == 2:
        return ["train", "test"]
    if n == 3:
        return ["train", "dev", "test"]
    return [f"part{i + 1}" for i in range(n)]


def _largest_remainder_counts(fractions, total: int) -> list[int]:
    exact = [f * total for f in fractions]
    base = [int(x) for x in exact]
    short = total - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def split_dataset(items, fractions, seed: int = 0, by_key: str | None = None,
                  names=None) -> dict[str, list[DatasetItem]]:
    """Partition items randomly or by a grouping key.

    Fractions must sum to 1; sizes follow the largest-remainder rule.
    With ``by_key`` (an item attribute, e.g. "speaker") every group
    lands in exactly one partition, chosen greedily to fill the largest
    remaining deficit. Fixed seed means identical output.
    """
    items = list(items)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    part_names = _partition_names(len(fractions), names)
    rng = random.Random(seed)

    if by_key is None:
        order = list(items)
        rng.shuffle(order)
        counts = _largest_remainder_counts(fractions, len(order))
        parts, start = [], 0
        for c in counts:
            parts.append(order[start:start + c])
            start += c
        return dict(zip(part_names, parts))

    missing = [it.filepath for it in items if getattr(it, by_key, None) is None]
    if missing:
        raise DatasetError(
            f"{len(missing)} items lack the split key {by_key!r}: {missing[:5]}"
        )
    groups: dict[str, list[DatasetItem]] = defaultdict(list)
    for it in items:
        groups[getattr(it, by_key)].append(it)
    keys = sorted(groups)
    rng.shuffle(keys)

    targets = [f * len(items) for f in fractions]
    assigned = [0] * len(fractions)
    parts = [[] for _ in fractions]
    for key in keys:
        deficits = [t - a for t, a in zip(targets, assigned)]
        best = max(range(len(fractions)), key=lambda i: (deficits[i], -i))
        parts[best].extend(groups[key])
        assigned[best] += len(groups[key])
    return dict(zip(part_names, parts))


# ---------------------------------------------------------------------------
# Writer

_TSV_UNSAFE = str.maketrans({"\t": " ", "\n": " ", "\r": " "})


def write_dataset(items, format_tag: str, out_dir, name: str = "dataset") -> Path:
    """Write items as ``out_dir/<name>.tsv``.

    ``format_tag`` must be "manifest-csv" (the only writer). Item paths
    are relative to out_dir, and missing audio is an error. Tabs and
    newlines inside text fields become single spaces.
    """
    if format_tag != "manifest-csv":
        raise DatasetError(f"unknown output format {format_tag!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    items = list(items)
    for item in items:
        audio = out_dir / item.filepath
        if not audio.exists():
            raise DatasetError(f"{audio}: referenced audio does not exist")

    has_speaker = any(it.speaker is not None for it in items)
    header = ["duration", "filepath", "text"] + (["speaker"] if has_speaker else [])
    manifest = out_dir / f"{name}.tsv"
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for it in items:
            row = [f"{it.duration:.3f}", it.filepath.translate(_TSV_UNSAFE),
                   it.text.translate(_TSV_UNSAFE)]
            if has_speaker:
                row.append((it.speaker or "").translate(_TSV_UNSAFE))
            fh.write("\t".join(row) + "\n")
    return manifest
