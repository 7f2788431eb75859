"""The measured process of the scribo benchmark.

``run.py`` starts this process after the inputs exist, with BLAS and
OpenMP threads pinned to 1, so that its set-up time and peak memory
belong to the program alone.  It runs one workload as a closed loop
with one client: the next operation starts when the previous one has
finished, as long as less than ``--seconds`` has passed, so the last
operation may end after it.  The first clip (or corpus pass) of each
workload is a warm-up and is excluded; set-up is timed separately as
``setup_s``.

Untraced (``--trace 0``) it drives the package through its public
entry points and reports the end-to-end metrics.  Traced (``--trace
1``) it runs every operation twice, once untraced and once with spans
recorded around the package's public functions, alternating which goes
first; it reports the per-layer metrics, the tracing overhead, checks
that both runs gave identical outputs and lists where the program's
self-reported stage times disagree with the spans.

The last line of standard output is one JSON object with everything
measured.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from scribo import cli, corpus, lm, net, textnorm  # noqa: E402
from scribo.corpus import DatasetItem  # noqa: E402
from scribo.ctcdecoder import DecodeParams  # noqa: E402

from layers import findings, per_layer  # noqa: E402
from tracing import LmProxy, NullTracer, Tracer  # noqa: E402

# Decoding settings of beam_lm: the CLI defaults for --arpa.
BEAM_WIDTH, ALPHA, BETA = 256, 0.8, 1.0
# Just above the 80.6 s receptive field of quartznet15x5.
STREAM_CHUNK_S = 85.0
# Set-up is repeated within a run and its median reported.
MODEL_SETUP_REPS = 7
RULES_SETUP_REPS = 200
CORPUS_LANG = "de"
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


# ---------------------------------------------------------------------------
# Helpers


def edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples
    beyond it, by nearest rank; the maximum when there are fewer than 11."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n


def naive_clean(items):
    """The six exclusion metrics recomputed directly from their definition."""
    timed = [it for it in items if it.duration > 0]
    a_cps = sum(len(it.text) / it.duration for it in timed) / len(timed) if timed else 0.0
    a_dur = sum(it.duration for it in items) / len(items) if items else 0.0
    kept, excluded = [], []
    for it in items:
        d, n = it.duration, len(it.text)
        if d < 0.5:
            metric = 1
        elif d > 30.0:
            metric = 2
        elif n > 512:
            metric = 3
        elif n / d > 2.0 * a_cps:
            metric = 4
        elif n / d < 1.0 / 3.0:
            metric = 5
        elif n / d < a_cps / 3.0 and d > a_dur / 5.0:
            metric = 6
        else:
            metric = None
        if metric is None:
            kept.append(it)
        else:
            excluded.append((it, metric))
    return kept, excluded


def environment(setup_reps: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "loop": "closed loop, one client, one process",
        "warmup": "the first clip (corpus_prep: the first pass) of each workload is run "
                  "untimed and excluded; set-up is reported in setup_s instead",
        "setup_reps": setup_reps,
    }


class Op:
    """One timed operation: a clip through transcribe, or one corpus pass."""

    def __init__(self, key, output, texts, audio_s, item_rtfs=None, extra=None):
        self.key = key
        self.output = output          # compared across repeats and traced/untraced
        self.texts = texts            # key -> transcript, for ref_cer
        self.audio_s = audio_s
        self.item_rtfs = item_rtfs    # per-item RTFs; None means wall / audio_s
        self.extra = extra or {}
        self.wall: float | None = None
        self.errors: list[str] = []
        self.traced = False
        self.clip_id = ""


# ---------------------------------------------------------------------------
# Workloads


class ModelWorkload:
    """Clips through cli.transcribe with a saved quartznet15x5(28)."""

    name = ""
    chunk: float | None = None

    def __init__(self, spec: dict):
        self.spec = spec
        self.base = Path(spec["dir"]) / "clips"
        self.clips = spec["clips"]
        self.model = None
        self.seen: dict[str, object] = {}
        self.setup_parts: dict[str, list[float]] = {}

    def setup(self, T) -> float:
        times = []
        for _ in range(MODEL_SETUP_REPS):
            self.model = None  # free the previous copy before loading the next
            t0 = time.perf_counter()
            self.model = T.call("net.load_weights", net.load_weights, self.spec["model_dir"])
            times.append(time.perf_counter() - t0)
        self.setup_parts["load_weights"] = times
        return statistics.median(times)

    def params(self, T):
        return None

    def transcribe(self, clip: dict, T, chunk):
        """cli.transcribe, also capturing what passes through the decoder:
        the logits and, from beam search, the top hypothesis with its
        scores (transcribe itself returns only the text)."""
        captured = {}
        originals = {name: getattr(cli, name) for name in ("greedy_decode", "beam_decode")}

        def capturing(name):
            def decode(logits, *args, **kwargs):
                result = originals[name](logits, *args, **kwargs)
                captured["logits"] = logits
                captured["top"] = result[0] if name == "beam_decode" else None
                return result
            return decode

        for name in originals:
            setattr(cli, name, capturing(name))
        try:
            text, report = T.call("cli.transcribe", cli.transcribe, self.model,
                                  self.base / clip["path"], chunk, self.params(T))
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)
        output = text if captured["top"] is None else (text, captured["top"])
        return Op(clip["path"], output, {clip["path"]: text}, clip["duration"],
                  extra={"report": report, "logits": captured["logits"]})

    def warmup(self, T) -> None:
        op = self.transcribe(self.clips[0], T, self.chunk)
        self.seen[op.key] = op.output

    def jobs(self):
        while True:
            yield from self.clips

    def op(self, clip: dict, T) -> Op:
        return self.transcribe(clip, T, self.chunk)

    def check(self, op: Op) -> list[str]:
        errors = []
        if not set(op.texts[op.key]) <= set(self.model.alphabet.symbols):
            errors.append(f"{op.key}: transcript has characters outside the alphabet")
        first = self.seen.setdefault(op.key, op.output)
        if op.output != first:
            errors.append(f"{op.key}: output differs from an earlier run of the same clip")
        return errors


class OfflineGreedy(ModelWorkload):
    name = "offline_greedy"


class BeamLm(ModelWorkload):
    name = "beam_lm"

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.lm_model = None
        self.proxy = None

    def setup(self, T) -> float:
        load_s = super().setup(T)
        times = []
        for _ in range(MODEL_SETUP_REPS):
            self.lm_model = None
            t0 = time.perf_counter()
            self.lm_model = T.call("lm.parse_arpa", lm.parse_arpa,
                                   Path(self.spec["dir"]) / self.spec["arpa"]["path"])
            times.append(time.perf_counter() - t0)
        self.setup_parts["parse_arpa"] = times
        return load_s + statistics.median(times)

    def params(self, T):
        model = self.lm_model
        if T.enabled:
            if self.proxy is None:
                self.proxy = LmProxy(self.lm_model, T)
            model = self.proxy
        return DecodeParams(beam_width=BEAM_WIDTH, alpha=ALPHA, beta=BETA, lm=model)

    def transcribe(self, clip: dict, T, chunk):
        try:
            return super().transcribe(clip, T, chunk)
        finally:
            if self.proxy is not None:
                self.proxy.end_clip()


class StreamingLong(ModelWorkload):
    name = "streaming_long"
    chunk = STREAM_CHUNK_S
    # criterion 04 of the package's acceptance tests
    LOGIT_TOLERANCE = 1e-4

    def warmup(self, T) -> None:
        # The offline pass over the clip is the warm-up and the reference
        # every streamed pass must match.
        op = self.transcribe(self.clips[0], T, None)
        self.seen[op.key] = op.output
        self.offline_logits = op.extra["logits"]

    def check(self, op: Op) -> list[str]:
        errors = super().check(op)
        logits = op.extra["logits"]
        if logits.shape != self.offline_logits.shape:
            errors.append(f"{op.key}: streamed logits have shape {logits.shape}, "
                          f"offline {self.offline_logits.shape}")
        else:
            diff = float(np.max(np.abs(logits - self.offline_logits)))
            if diff > self.LOGIT_TOLERANCE:
                errors.append(f"{op.key}: streamed logits differ from offline by {diff:.3g}")
        return errors


class CorpusPrep:
    """read_dataset, convert_audio, normalize_text, write_dataset,
    read_manifest, clean_corpus, split_dataset by speaker; one pass per op."""

    name = "corpus_prep"

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.raw = Path(spec["dir"]) / "raw"
        self.work = work
        self.seed = spec["seed"]
        self.rules = None
        self.alphabet = textnorm.ALPHABETS[CORPUS_LANG]
        self.seen: dict[str, object] = {}
        self.setup_parts: dict[str, list[float]] = {}

    def setup(self, T) -> float:
        times = []
        for _ in range(RULES_SETUP_REPS):
            t0 = time.perf_counter()
            self.rules = T.call("textnorm.shipped_rules", textnorm.shipped_rules, CORPUS_LANG)
            times.append(time.perf_counter() - t0)
        self.setup_parts["shipped_rules"] = times
        return statistics.median(times)

    def warmup(self, T) -> None:
        op = self.op("pass", T)
        self.seen["pass"] = op.output

    def jobs(self):
        while True:
            yield "pass"

    def op(self, key: str, T) -> Op:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        t_pass = time.perf_counter()
        items = T.call("corpus.read_dataset", corpus.read_dataset, "folder-txt", self.raw)
        converted, rtfs, texts = [], [], {}
        for it in items:
            t0 = time.perf_counter()
            duration = T.call("corpus.convert_audio", corpus.convert_audio,
                              self.raw / it.filepath, self.work / it.filepath)
            text = T.call("textnorm.normalize_text", textnorm.normalize_text,
                          it.text, self.rules, self.alphabet)
            rtfs.append((time.perf_counter() - t0) / it.duration)
            converted.append(DatasetItem(it.filepath, text, duration, it.filepath.split("_")[0]))
            texts[it.filepath] = text
        manifest = T.call("corpus.write_dataset", corpus.write_dataset, converted,
                          "manifest-csv", self.work)
        back = T.call("corpus.read_manifest", corpus.read_manifest, manifest)
        report = T.call("corpus.clean_corpus", corpus.clean_corpus, back)
        parts = T.call("corpus.split_dataset", corpus.split_dataset, report.kept,
                       list(SPLIT_FRACTIONS), seed=self.seed, by_key="speaker")
        wall = time.perf_counter() - t_pass
        written = sum((self.work / it.filepath).stat().st_size for it in converted)
        output = hashlib.sha256(json.dumps({
            "manifest": manifest.read_text(encoding="utf-8"),
            "excluded": [(it.filepath, m) for it, m in report.excluded],
            "parts": {k: [it.filepath for it in v] for k, v in parts.items()},
        }, sort_keys=True).encode()).hexdigest()
        op = Op(key, output, texts, sum(it.duration for it in items), rtfs,
                extra={"items": items, "converted": converted, "back": back,
                       "cleaning": report, "parts": parts, "bytes_written": written})
        op.wall = wall  # the pass itself; clearing and hashing are not timed
        return op

    def check(self, op: Op) -> list[str]:
        errors = []
        x = op.extra
        keep = set(self.alphabet.symbols)
        for src, item in zip(x["items"], x["converted"]):
            if abs(item.duration - src.duration) > 2.0 / 16000:
                errors.append(f"{item.filepath}: converted duration {item.duration} "
                              f"!= source {src.duration}")
            if not set(item.text) <= keep or any(ch.isdigit() for ch in item.text):
                errors.append(f"{item.filepath}: normalized text leaves the alphabet")
            elif textnorm.normalize_text(item.text, self.rules, self.alphabet) != item.text:
                errors.append(f"{item.filepath}: normalization is not idempotent")
        expect = [(it.filepath, it.text, float(f"{it.duration:.3f}"), it.speaker)
                  for it in x["converted"]]
        got = [(it.filepath, it.text, it.duration, it.speaker) for it in x["back"]]
        if got != expect:
            errors.append("manifest does not round-trip through read_manifest")
        kept, excluded = naive_clean(x["back"])
        if kept != x["cleaning"].kept or excluded != x["cleaning"].excluded:
            errors.append("clean_corpus disagrees with the naive six-metric recomputation")
        parts = x["parts"]
        placed = sorted(it.filepath for part in parts.values() for it in part)
        if placed != sorted(it.filepath for it in x["cleaning"].kept):
            errors.append("split_dataset parts do not cover the kept items exactly once")
        owners = {}
        for name, part in parts.items():
            for it in part:
                if owners.setdefault(it.speaker, name) != name:
                    errors.append(f"speaker {it.speaker} lands in two partitions")
                    break
        first = self.seen.setdefault(op.key, op.output)
        if op.output != first:
            errors.append("corpus pass output differs from an earlier pass")
        return errors


def make_workload(spec: dict, cache: Path):
    name = spec["workload"]
    if name == "corpus_prep":
        return CorpusPrep(spec, cache / f"work-{name}")
    return {"offline_greedy": OfflineGreedy, "beam_lm": BeamLm,
            "streaming_long": StreamingLong}[name](spec)


# ---------------------------------------------------------------------------
# Tracing targets


def _rows(args, kwargs, result):
    return {"rows_in": int(args[2].shape[0]), "rows_out": int(result.shape[0])}


def _frames(args, kwargs, result):
    return {"frames": int(np.asarray(args[0]).shape[0])}


def trace_targets():
    """Where the pipeline looks the package's public functions up."""
    return [
        (cli, "load_wav", "features.load_wav", None),
        (cli, "logmel", "features.logmel", None),
        (cli, "normalize_features", "features.normalize_features", None),
        (cli, "forward", "net.forward", _rows),
        (cli, "forward_streaming", "net.forward_streaming", None),
        (cli, "greedy_decode", "ctcdecoder.greedy_decode", _frames),
        (cli, "beam_decode", "ctcdecoder.beam_decode", _frames),
        (net, "forward", "net.forward", _rows),
        (net, "logmel", "features.logmel", None),
        (net, "normalize_features", "features.normalize_features", None),
        (net, "read_tensor_blob", "net.read_tensor_blob", None),
        (net, "validate_weights", "net.validate_weights", None),
    ]


# ---------------------------------------------------------------------------
# The loop


class Run:
    def __init__(self, args, spec: dict, refs: dict | None):
        self.args = args
        self.spec = spec
        self.cache = Path(args.cache)
        self.wl = make_workload(spec, self.cache)
        self.tracer = Tracer() if args.trace else None
        self.null = NullTracer()
        self.refs = refs
        self.ops: list[Op] = []
        self.pairs: list[tuple[Op, Op]] = []

    def _one(self, job, traced: bool, clip_id: str) -> Op:
        T = self.tracer if traced else self.null
        if traced:
            self.tracer.clip = clip_id
        with T.patched(trace_targets()):
            t0 = time.perf_counter()
            try:
                op = self.wl.op(job, T)
                if op.wall is None:
                    op.wall = time.perf_counter() - t0
            except Exception:  # any failure of the program counts against it
                op = Op(job["path"] if isinstance(job, dict) else job, None, {}, 0.0)
                op.wall = time.perf_counter() - t0
                op.errors.append(traceback.format_exc(limit=3))
        op.traced = traced
        op.clip_id = clip_id
        if not op.errors:
            op.errors.extend(self.wl.check(op))
            op.errors.extend(self._ref_errors(op))
        self.ops.append(op)
        return op

    def _ref_table(self) -> dict:
        """Stored transcripts of this workload, if they were stored for this seed."""
        if not self.refs or self.refs.get("seed") != self.spec["seed"]:
            return {}
        return self.refs.get(self.wl.name, {})

    def _ref_errors(self, op: Op) -> list[str]:
        table = self._ref_table()
        return [f"{key}: transcript differs from the stored reference"
                for key, text in op.texts.items() if key in table and table[key] != text]

    def run(self) -> None:
        T = self.tracer or self.null
        if self.tracer:
            self.tracer.clip = "setup"
        with T.patched(trace_targets()):
            self.setup_s = self.wl.setup(T)
            self.setup_reps = len(next(iter(self.wl.setup_parts.values())))
            if self.tracer:
                self.tracer.clip = "warmup"
            self.wl.warmup(T)
        if self.tracer:
            self.tracer.clip = None
        start = time.perf_counter()
        for i, job in zip(count(), self.wl.jobs()):
            if i and time.perf_counter() - start >= self.args.seconds:
                break
            if self.tracer is None:
                self._one(job, False, f"op{i}")
            else:
                order = (False, True) if i % 2 == 0 else (True, False)
                done = {traced: self._one(job, traced, f"op{i}") for traced in order}
                plain, traced = done[False], done[True]
                if plain.output != traced.output:
                    traced.errors.append(f"{plain.key}: traced and untraced runs disagree")
                self.pairs.append((plain, traced))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- results ------------------------------------------------------

    def end_to_end(self, ops) -> dict:
        audio = sum(op.audio_s for op in ops)
        wall = sum(op.wall for op in ops)
        rtfs = [r for op in ops for r in (op.item_rtfs or [op.wall / op.audio_s])]
        tail_value, tail_pct = tail(rtfs)
        metrics = {
            "audio_s_per_s": {"value": audio / wall, "unit": "audio_s/s", "n": len(ops)},
            "rtf_p50": {"value": statistics.median(rtfs), "unit": "ratio", "n": len(rtfs)},
            "rtf_tail": {"value": tail_value, "unit": "ratio", "n": len(rtfs),
                         "percentile": tail_pct},
            "setup_s": {"value": self.setup_s, "unit": "s", "n": self.setup_reps},
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MiB", "n": 1},
        }
        failed = sum(1 for op in self.ops if op.errors)
        metrics["ops_failed_frac"] = {"value": failed / len(self.ops), "unit": "ratio",
                                      "n": len(self.ops)}
        metrics["ref_cer"] = self.ref_cer(ops)
        return metrics

    def ref_cer(self, ops) -> dict:
        table = self._ref_table()
        if not table:
            return {"value": None, "unit": "ratio", "n": 0,
                    "note": "measured only at the seed the references were stored for"}
        dist = chars = n = 0
        for op in ops:
            for key, text in op.texts.items():
                if key in table:
                    dist += edit_distance(table[key], text)
                    chars += len(table[key])
                    n += 1
        return {"value": dist / max(chars, 1), "unit": "ratio", "n": n}

    def result(self) -> dict:
        plain = [op for op in self.ops if not op.traced]
        failures = [f"{op.clip_id}: {e}" for op in self.ops for e in op.errors]
        out = {
            "workload": self.wl.name,
            "seed": self.spec["seed"],
            "trace": int(self.tracer is not None),
            "correct": not failures,
            "attempted": len(self.ops),
            "failed": sum(1 for op in self.ops if op.errors),
            "failures": failures[:20],
            "end_to_end": self.end_to_end(plain),
            "setup_parts_s": {k: statistics.median(v) for k, v in self.wl.setup_parts.items()},
            "inputs": {k: self.spec[k] for k in ("seed", "input_digest", "model_checksum")},
            "environment": environment(self.setup_reps),
            "transcripts": self.transcripts(),
            "ops": [{"id": op.clip_id, "key": op.key, "traced": op.traced,
                     "wall_s": op.wall, "audio_s": op.audio_s} for op in self.ops],
        }
        if self.tracer is not None:
            out["per_layer"] = per_layer(self)
            traced_wall = sum(t.wall for _, t in self.pairs)
            plain_wall = sum(p.wall for p, _ in self.pairs)
            out["trace_overhead"] = {
                "value": traced_wall / plain_wall - 1.0, "unit": "ratio", "n": len(self.pairs),
                "note": "traced wall over untraced wall of the same operations, minus 1",
            }
            out["findings"] = findings(self)
            spans = self.cache / "traces" / f"{self.wl.name}-seed{self.spec['seed']}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            self.tracer.write(spans)
            out["spans_file"] = str(spans)
        return out

    def transcripts(self) -> dict:
        texts = {}
        for op in self.ops:
            for key, text in op.texts.items():
                texts.setdefault(key, text)
        return dict(sorted(texts.items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="measured process of the scribo benchmark")
    p.add_argument("--inputs", required=True, help="directory written by inputs.py")
    p.add_argument("--cache", required=True, help="scratch directory inside the checkout")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--refs", default=str(HERE / "refs.json"),
                   help="stored reference transcripts; empty string disables the check")
    args = p.parse_args(argv)
    spec = json.loads((Path(args.inputs) / "inputs.json").read_text(encoding="utf-8"))
    spec["dir"] = args.inputs
    spec["model_dir"] = str(Path(args.cache) / spec["model"])
    refs = None
    if args.refs and Path(args.refs).exists():
        refs = json.loads(Path(args.refs).read_text(encoding="utf-8"))
    run = Run(args, spec, refs)
    try:
        run.run()
    finally:
        if isinstance(run.wl, CorpusPrep):
            shutil.rmtree(run.wl.work, ignore_errors=True)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
