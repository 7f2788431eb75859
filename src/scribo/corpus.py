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
import io
import json
import logging
import math
import random
import wave
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AudioFormatError, DatasetError, read_text
from .features import _ENCODINGS, SAMPLE_RATE, _open_wav, _read_samples

log = logging.getLogger(__name__)

#: Highest source sample rate convert_audio accepts (every standard PCM
#: rate is below it). It bounds the resampling filter, which has
#: 20*max(16000, rate)/g + 1 taps for g = gcd(rate, 16000): at most 7.7M
#: taps (59 MiB), and its polyphase tables, at most about twice that.
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
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")

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


def probe_duration(path) -> float:
    """Duration in seconds from the WAV header, without decoding."""
    with _open_wav(path) as (_, fmt):
        return fmt.frames / fmt.rate


def _downmix(data: np.ndarray, fmt) -> np.ndarray:
    """Average the channel columns of ``data``, the samples of a WAV file
    in ``fmt``, into float64 in [-1, 1] (see features._ENCODINGS).

    Integer PCM of up to 32 bits is summed column by column as float64
    and scaled once. Every partial sum is an integer below 2**47 (at most
    65535 channels of 32-bit samples), so it is exact, the one rounding
    left is the final division, and the result equals the mean of the
    per-sample scaled channels bit for bit. 64-bit samples do not fit
    float64's 53-bit significand, so they take that scaled mean: each
    sample rounds once, by less than 2**-53 of full scale, far below the
    16-bit output step. Float input keeps the mean too: for 9 or more
    channels its pairwise order differs from a column loop. Mono is one
    column.
    """
    _, offset, full = _ENCODINGS[fmt.tag, fmt.bits]
    if data.dtype.kind == "f" or data.dtype.itemsize > 4:
        out = data.astype(np.float64)
        if full != 1.0:  # 64-bit PCM, offset 0
            out /= full
        return out.mean(axis=1)
    channels = data.shape[1]
    mono = data[:, 0].astype(np.float64)
    for c in range(1, channels):
        mono += data[:, c]
    if offset:
        mono -= offset * channels
    mono /= full * channels
    return mono


def _kaiser(m: int, beta: float) -> np.ndarray:
    """``np.kaiser(m, beta)`` for m >= 2, evaluating only its first
    (m + 1) // 2 points: the window is symmetric, and n - (m - 1) / 2 is
    exact for integer n, so the mirrored half equals the whole bit for
    bit at half the cost of np.i0, whose series runs in Python."""
    n = np.arange((m + 1) // 2, dtype=np.float64)
    alpha = (m - 1) / 2.0
    half = np.i0(beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / np.i0(float(beta))
    return np.concatenate([half, half[m // 2 - 1::-1]])


def _lowpass(up: int, down: int) -> np.ndarray:
    """The anti-aliasing filter of resampling by ``up / down``.

    It is the filter ``scipy.signal.resample_poly(x, up, down)`` designs
    by default, ``firwin(20 * m + 1, 1 / m, window=("kaiser", 5.0))`` for
    m = max(up, down): a Kaiser-windowed sinc scaled to unit DC gain, here
    in numpy. It has 8821 taps (69 KiB) for 44.1 and 22.05 kHz; a rate
    coprime to 16000 needs 20*max(16000, rate) + 1 taps.
    """
    max_rate = max(up, down)
    n = 2 * 10 * max_rate + 1
    cutoff = 1.0 / max_rate
    h = cutoff * np.sinc(cutoff * (np.arange(n) - 0.5 * (n - 1)))
    h *= _kaiser(n, 5.0)
    h /= np.sum(h)
    return h


@dataclass(frozen=True)
class _Polyphase:
    """Resampling by ``up / down`` as matrix products.

    Output i is sum_k up*h[half + i*down - k*up] * x[k] for the filter h
    of _lowpass, centred on its ``half`` tap: the output of
    ``resample_poly``. Outputs are laid out in rows of ``up``, one per
    phase, so row q reads the input of row 0 shifted by q * ``down``
    samples. Each band of neighbouring columns is one ``table`` (at most
    ``frame`` rows x band columns), read against the frame at input
    offset ``first`` + q * ``down``.

    A band of w columns spans about (w - 1) * down / up input samples
    beyond one phase's taps, so w is chosen to keep that span within the
    taps per phase: the tables then take about twice the filter's bytes.
    Built once per rate pair (the last four are cached) and shared
    read-only by the conversion threads.
    """

    frame: int
    bands: tuple[tuple[int, int, np.ndarray], ...]  # (first column, first, table)


@functools.lru_cache(maxsize=4)
def _polyphase(up: int, down: int) -> _Polyphase:
    h = _lowpass(up, down)
    n, half = len(h), (len(h) - 1) // 2
    taps = -(-n // up)  # per phase, at most
    width = max(1, taps * up // down)  # columns per band
    hu = h * up  # resample_poly's gain, applied as it does
    bands = []
    for col in range(0, up, width):
        t = half + np.arange(col, min(col + width, up)) * down
        first = t[0] // up - (taps - 1)
        k = first + np.arange(t[-1] // up - first + 1)[:, None]
        tap = t - k * up
        table = np.where((tap >= 0) & (tap < n), hu[np.clip(tap, 0, n - 1)], 0.0)
        table.flags.writeable = False
        bands.append((col, first, table))
    frame = max(len(table) for _, _, table in bands)
    return _Polyphase(frame, tuple(bands))


def _resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """``x`` (float64) resampled by ``up / down``: the samples, alignment
    and length ceil(len(x) * up / down) of ``resample_poly(x, up, down)``
    with its default filter, to within rounding (about 1e-15)."""
    plan = _polyphase(up, down)
    n_out = -(-len(x) * up // down)
    rows = -(-n_out // up)
    if rows == 0:
        return np.zeros(0)
    lo = plan.bands[0][1]  # the first band's frames start earliest
    hi = plan.bands[-1][1] + plan.frame + (rows - 1) * down
    padded = np.zeros(max(hi, len(x)) - lo)
    padded[-lo:len(x) - lo] = x
    frames = np.lib.stride_tricks.sliding_window_view(padded, plan.frame)
    out = np.empty((rows, up))
    for col, first, table in plan.bands:
        band = frames[first - lo::down][:rows, :len(table)]
        np.matmul(band, table, out=out[:, col:col + table.shape[1]])
    return out.reshape(-1)[:n_out]


def convert_audio(src_path, dst_path) -> float:
    """Convert any readable WAV to PCM-16 mono 16 kHz; return duration.

    Channels are downmixed by averaging and other sample rates go through
    a polyphase windowed-sinc resampler; already conformant input comes
    out with byte-identical samples, since int16 / 32768 * 32768 is exact
    in float64. A file the WAV reader refuses, with a sample rate above
    MAX_SOURCE_RATE or with non-finite float samples raises
    AudioFormatError.
    """
    src_path, dst_path = Path(src_path), Path(dst_path)
    with _open_wav(src_path) as (fh, fmt):
        if fmt.rate > MAX_SOURCE_RATE:
            raise AudioFormatError(
                f"{src_path}: sample rate {fmt.rate} Hz outside 1-{MAX_SOURCE_RATE} Hz"
            )
        data = _read_samples(fh, fmt)
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise AudioFormatError(f"{src_path}: float samples include NaN or infinity")

    mono = _downmix(data, fmt)
    # free the raw samples before resampling: kept to the end, they raise
    # each conversion's peak heap by their size, and the allocator then
    # trims and re-grows the heap on every long file
    del data

    if fmt.rate != SAMPLE_RATE:
        g = math.gcd(SAMPLE_RATE, fmt.rate)
        mono = _resample(mono, SAMPLE_RATE // g, fmt.rate // g)
    # mono is this function's own array: scale, round and clip in place
    mono *= 32768.0
    np.rint(mono, out=mono)
    np.clip(mono, -32768, 32767, out=mono)
    with wave.open(str(dst_path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(mono.astype("<i2").tobytes())
    return len(mono) / SAMPLE_RATE


# ---------------------------------------------------------------------------
# Readers

_FILE_COLS = ("path", "filepath", "filename", "file")
_TEXT_COLS = ("sentence", "text", "transcript")
_SPEAKER_COLS = ("client_id", "speaker")


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

    text = read_text(tsv_path, DatasetError)
    # Common Voice writes sentences verbatim: a quote is text, not quoting
    reader = csv.DictReader(io.StringIO(text, newline=""), delimiter="\t",
                            quoting=csv.QUOTE_NONE)
    items, skipped = [], 0
    try:
        header = reader.fieldnames or []
        file_col = next((c for c in _FILE_COLS if c in header), None)
        text_col = next((c for c in _TEXT_COLS if c in header), None)
        if file_col is None or text_col is None:
            raise DatasetError(f"{tsv_path}: header lacks a path or sentence column")
        speaker_col = next((c for c in _SPEAKER_COLS if c in header), None)
        has_duration = "duration" in header

        for row in reader:
            filepath = (row.get(file_col) or "").strip()
            sentence = (row.get(text_col) or "").strip()
            if not filepath or not sentence:
                skipped += 1
                continue
            if has_duration and (row.get("duration") or "").strip():
                duration = float(row["duration"])
            else:
                duration = _probe_or_zero(_audio_path(tsv_path.parent, filepath))
            speaker = (row.get(speaker_col) or "").strip() or None if speaker_col else None
            items.append(DatasetItem(filepath, sentence, duration, speaker))
    except (csv.Error, ValueError) as exc:
        # the csv reader's own count: DictReader's lags when a line fails to parse
        raise DatasetError(f"{tsv_path}: line {reader.reader.line_num}: {exc}") from exc
    if skipped:
        log.warning("%s: skipped %d rows with missing path/sentence", tsv_path, skipped)
    return items


def _read_folder_txt(folder: Path) -> list[DatasetItem]:
    if not folder.is_dir():
        raise DatasetError(f"{folder}: not a directory")
    items, skipped = [], 0
    for audio in sorted(folder.glob("*.wav")):
        transcript = audio.with_suffix(".txt")
        if not transcript.exists():
            skipped += 1
            continue
        text = read_text(transcript, DatasetError).strip()
        items.append(DatasetItem(audio.name, text, _probe_or_zero(audio)))
    if skipped:
        log.warning("%s: %d wav files have no .txt transcript", folder, skipped)
    return items


def read_manifest(path) -> list[DatasetItem]:
    """Read the package's tab-separated manifest format."""
    path = Path(path)
    lines = read_text(path, DatasetError).splitlines()
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


#: Dataset layouts by format tag: ``commonvoice-tsv`` reads a TSV
#: metadata file (path/sentence columns and friends), ``folder-txt``
#: pairs each ``x.wav`` with ``x.txt``, ``manifest-csv`` reads this
#: package's own manifest. Durations missing from metadata are probed
#: from the WAV headers.
_READERS = {
    "commonvoice-tsv": _read_commonvoice,
    "folder-txt": _read_folder_txt,
    "manifest-csv": read_manifest,
}
READ_FORMATS = tuple(_READERS)


def read_dataset(format_tag: str, path) -> list[DatasetItem]:
    """Load a dataset in one of the READ_FORMATS layouts."""
    path = Path(path)
    if format_tag not in _READERS:
        raise DatasetError(f"unknown dataset format {format_tag!r}; know {READ_FORMATS}")
    return _READERS[format_tag](path)


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
    """Corpus totals, the corpus_averages that cleaning uses, and speaker
    counts, most recorded first."""
    items = list(items)
    total = sum(it.duration for it in items)
    counts = Counter(it.speaker for it in items if it.speaker is not None)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return CorpusStats(len(items), total, *corpus_averages(items), top)


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

    Fractions must be finite, >= 0 and sum to 1; sizes follow the largest-remainder rule.
    With ``by_key`` (an item attribute, e.g. "speaker") every group
    lands in exactly one partition, chosen greedily to fill the largest
    remaining deficit. Fixed seed means identical output.
    """
    items = list(items)
    if not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise ValueError(f"fractions must be finite and >= 0, got {list(fractions)}")
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


def convert_dataset(format_tag: str, src, out, workers: int = 1) -> tuple[Path, dict]:
    """Convert a READ_FORMATS dataset into ``out`` on ``workers`` threads:
    each item's audio as PCM-16 mono 16 kHz at its path with a ``.wav``
    suffix, the manifest and ``conversion.json``. Returns the manifest path
    and that sidecar. An absolute or ``..`` item path raises DatasetError
    before anything is written, so nothing lands outside ``out``."""
    src, out = Path(src), Path(out)
    base = src if src.is_dir() else src.parent
    items = read_dataset(format_tag, src)
    for item in items:
        rel = Path(item.filepath)
        if rel.is_absolute() or ".." in rel.parts:
            raise DatasetError(f"{src}: audio path {item.filepath!r} leads out of --out")
    out.mkdir(parents=True, exist_ok=True)

    def convert(item: DatasetItem) -> DatasetItem:
        rel = str(Path(item.filepath).with_suffix(".wav"))
        dst = out / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        duration = convert_audio(_audio_path(base, item.filepath), dst)
        return DatasetItem(rel, item.text, duration, item.speaker)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        converted = list(pool.map(convert, items))
    manifest = write_dataset(converted, "manifest-csv", out)
    sidecar = {"resampler": RESAMPLE_METHOD,
               "target": f"PCM-16 mono {SAMPLE_RATE} Hz", "items": len(converted)}
    (out / "conversion.json").write_text(json.dumps(sidecar, indent=1), encoding="utf-8")
    return manifest, sidecar
