"""Per-layer metrics and findings computed from a traced run's spans.

Layers are the package modules: features, net, ctcdecoder, lm, cli,
corpus and textnorm.  Every metric is reported on every workload so
that one traced run has one shape; a layer the workload never calls
reads 0 with ``n`` = 0.  Only the traced copy of each timed operation
counts; set-up metrics use the spans recorded during set-up.
"""
from __future__ import annotations

import math
import statistics

from scribo import net
from scribo.features import SAMPLE_RATE

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "features.load_wav.ms_per_audio_s": ("ms/audio_s", "lower"),
    "features.logmel.ms_per_audio_s": ("ms/audio_s", "lower"),
    "features.normalize_features.ms_per_audio_s": ("ms/audio_s", "lower"),
    "net.read_tensor_blob.s": ("s", "lower"),
    "net.validate_weights.s": ("s", "lower"),
    "net.forward.ms_per_audio_s": ("ms/audio_s", "lower"),
    "net.forward.share_of_wall": ("ratio", "lower"),
    "net.forward.gmacs_per_s": ("GMAC/s", "higher"),
    "net.forward_streaming.ms_per_audio_s": ("ms/audio_s", "lower"),
    "net.forward_streaming.over_offline": ("ratio", "lower"),
    "net.forward_streaming.forward_calls": ("count", "lower"),
    "net.forward_streaming.rows_in_over_clip": ("ratio", "lower"),
    "ctcdecoder.beam_decode.ms_per_frame": ("ms/frame", "lower"),
    "ctcdecoder.beam_decode.share_of_wall": ("ratio", "lower"),
    "ctcdecoder.greedy_decode.ms_per_audio_s": ("ms/audio_s", "lower"),
    "lm.parse_arpa.s": ("s", "lower"),
    "lm.score_word.calls_per_frame": ("calls/frame", "lower"),
    "lm.score_word.distinct_frac": ("ratio", "higher"),
    "lm.score_word.us_per_call": ("us", "lower"),
    "lm.score_word.share_of_decode": ("ratio", "lower"),
    "cli.transcribe.ms_per_audio_s": ("ms/audio_s", "lower"),
    "cli.transcribe.unaccounted_ms": ("ms", "lower"),
    "cli.transcribe.reported_features_s": ("s", "lower"),
    "corpus.convert_audio.ms_per_audio_s": ("ms/audio_s", "lower"),
    "corpus.convert_audio.bytes_written": ("bytes", "lower"),
    "corpus.read_dataset.ms_per_item": ("ms/item", "lower"),
    "corpus.write_dataset.ms": ("ms", "lower"),
    "corpus.read_manifest.ms": ("ms", "lower"),
    "corpus.clean_corpus.ms": ("ms", "lower"),
    "corpus.split_dataset.ms": ("ms", "lower"),
    "textnorm.normalize_text.us_per_line": ("us/line", "lower"),
    "textnorm.shipped_rules.ms": ("ms", "lower"),
}

# The stages RtfReport names, and the spans that do that work.
_STAGE_SPANS = {
    "features": ("features.logmel", "features.normalize_features"),
    "forward": ("net.forward",),
    "decode": ("ctcdecoder.greedy_decode", "ctcdecoder.beam_decode"),
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def macs_per_frame(cfg) -> int:
    """Multiply-accumulates per output frame, from the tensor_specs shapes:
    K*C for each depthwise kernel and C_in*C_out for each pointwise one."""
    return sum(math.prod(shape) for name, shape in net.tensor_specs(cfg).items()
               if name.endswith((".dw", ".pw")))


class _Spans:
    def __init__(self, tracer, clips):
        self.tracer = tracer
        self.clips = clips

    def of(self, name, clips=None):
        return self.tracer.select(name, self.clips if clips is None else clips)

    def total(self, name):
        spans = self.of(name)
        return sum(s.duration for s in spans), len(spans)

    def setup_median(self, name):
        spans = self.of(name, {"setup"})
        return (statistics.median(s.duration for s in spans) if spans else 0.0), len(spans)


def per_layer(run) -> dict:
    tracer = run.tracer
    traced = [t for _, t in run.pairs]
    sp = _Spans(tracer, {op.clip_id for op in traced})
    audio = sum(op.audio_s for op in traced)
    wall = sum(op.wall for op in traced)
    out: dict[str, dict] = {}

    def put(name, value, n, **extra):
        unit, _ = PER_LAYER[name]
        out[name] = {"value": value, "unit": unit, "n": n, **extra}

    for stage in ("load_wav", "logmel", "normalize_features"):
        t, n = sp.total(f"features.{stage}")
        put(f"features.{stage}.ms_per_audio_s", 1000 * _div(t, audio), n)

    for stage in ("read_tensor_blob", "validate_weights"):
        put(f"net.{stage}.s", *sp.setup_median(f"net.{stage}"))

    fwd = sp.of("net.forward")
    t_fwd = sum(s.duration for s in fwd)
    put("net.forward.ms_per_audio_s", 1000 * _div(t_fwd, audio), len(fwd))
    put("net.forward.share_of_wall", _div(t_fwd, wall), len(fwd))
    model = getattr(run.wl, "model", None)
    macs = sum(s.info["rows_out"] for s in fwd) * macs_per_frame(model.net) if model else 0
    put("net.forward.gmacs_per_s", _div(macs, t_fwd) / 1e9, len(fwd),
        note="computed: MACs from tensor_specs shapes times output frames, over measured time")

    stream = sp.of("net.forward_streaming")
    t_stream = sum(s.duration for s in stream)
    stream_ids = {s.sid for s in stream}
    inner = [s for s in fwd if s.parent in stream_ids]
    put("net.forward_streaming.ms_per_audio_s", 1000 * _div(t_stream, audio), len(stream))
    offline = [s for s in tracer.select("net.forward", {"warmup"}) if s.parent not in stream_ids]
    over = _div(_div(t_stream, len(stream)), offline[0].duration) if stream and offline else 0.0
    put("net.forward_streaming.over_offline", over, len(stream),
        note="streaming forward (features included) over the offline forward of the same clip")
    put("net.forward_streaming.forward_calls", _div(len(inner), len(stream)), len(stream))
    clip_rows = sum(model.features.frame_count(round(op.audio_s * SAMPLE_RATE))
                    for op in traced) if stream else 0
    put("net.forward_streaming.rows_in_over_clip",
        _div(sum(s.info["rows_in"] for s in inner), clip_rows), len(stream))

    beam = sp.of("ctcdecoder.beam_decode")
    t_beam = sum(s.duration for s in beam)
    frames = sum(s.info["frames"] for s in beam)
    put("ctcdecoder.beam_decode.ms_per_frame", 1000 * _div(t_beam, frames), len(beam))
    put("ctcdecoder.beam_decode.share_of_wall", _div(t_beam, wall), len(beam))
    t, n = sp.total("ctcdecoder.greedy_decode")
    put("ctcdecoder.greedy_decode.ms_per_audio_s", 1000 * _div(t, audio), n)

    put("lm.parse_arpa.s", *sp.setup_median("lm.parse_arpa"))
    proxy = getattr(run.wl, "proxy", None)
    stats = [proxy.stats[op.clip_id] for op in traced
             if proxy is not None and op.clip_id in proxy.stats]
    calls = sum(s["calls"] for s in stats)
    lm_time = sum(s["seconds"] for s in stats)
    put("lm.score_word.calls_per_frame", _div(calls, frames), calls)
    put("lm.score_word.distinct_frac", _div(sum(s["distinct"] for s in stats), calls), calls,
        note="distinct (history, word) keys per clip over calls: the calls a memo could not save")
    put("lm.score_word.us_per_call", 1e6 * _div(lm_time, calls), calls)
    put("lm.score_word.share_of_decode", _div(lm_time, t_beam), calls)

    t, n = sp.total("cli.transcribe")
    put("cli.transcribe.ms_per_audio_s", 1000 * _div(t, audio), n)
    reports = {op.clip_id: op.extra["report"] for op in traced if "report" in op.extra}
    gaps = [s.duration - sum(reports[s.clip].stage_breakdown.values())
            for s in sp.of("cli.transcribe") if s.clip in reports]
    put("cli.transcribe.unaccounted_ms", 1000 * _div(sum(gaps), len(gaps)), len(gaps),
        note="outer span minus the sum of the stages the program reports itself")
    feats = [r.stage_breakdown.get("features", 0.0) for r in reports.values()]
    put("cli.transcribe.reported_features_s", _div(sum(feats), len(feats)), len(feats))

    t, n = sp.total("corpus.convert_audio")
    put("corpus.convert_audio.ms_per_audio_s", 1000 * _div(t, audio if n else 0), n)
    passes = [op for op in traced if "bytes_written" in op.extra]
    put("corpus.convert_audio.bytes_written",
        _div(sum(op.extra["bytes_written"] for op in passes), len(passes)), len(passes),
        note="bytes of converted audio written per corpus pass")
    t, n = sp.total("corpus.read_dataset")
    items = sum(len(op.extra["items"]) for op in passes)
    put("corpus.read_dataset.ms_per_item", 1000 * _div(t, items), n)
    for stage in ("write_dataset", "read_manifest", "clean_corpus", "split_dataset"):
        t, n = sp.total(f"corpus.{stage}")
        put(f"corpus.{stage}.ms", 1000 * _div(t, n), n)
    t, n = sp.total("textnorm.normalize_text")
    put("textnorm.normalize_text.us_per_line", 1e6 * _div(t, n), n)
    value, n = sp.setup_median("textnorm.shipped_rules")
    put("textnorm.shipped_rules.ms", 1000 * value, n)
    return out


def _descendants(tracer, root_sid):
    children: dict[int, list] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    stack, out = [root_sid], []
    while stack:
        for s in children.get(stack.pop(), []):
            out.append(s)
            stack.append(s.sid)
    return out


def findings(run) -> list[dict]:
    """Where the program's own RtfReport disagrees with the spans.

    Recorded for a later change; the benchmark does not alter cli.py.
    """
    tracer = run.tracer
    traced = {t.clip_id: t for _, t in run.pairs if "report" in t.extra}
    if not traced:
        return []
    reported = {stage: 0.0 for stage in _STAGE_SPANS}
    measured = {stage: 0.0 for stage in _STAGE_SPANS}
    outside = load_wav = 0.0
    ops = 0
    for outer in tracer.select("cli.transcribe", set(traced)):
        report = traced[outer.clip].extra["report"]
        below = _descendants(tracer, outer.sid)
        for stage, names in _STAGE_SPANS.items():
            reported[stage] += report.stage_breakdown.get(stage, 0.0)
            measured[stage] += sum(s.duration for s in below if s.name in names)
        outside += outer.duration - report.wall_time
        load_wav += sum(s.duration for s in below if s.name == "features.load_wav")
        ops += 1
    out = []
    for stage in _STAGE_SPANS:
        rep, got = reported[stage] / ops, measured[stage] / ops
        if abs(rep - got) > max(1e-3, 0.1 * max(rep, got)):
            out.append({
                "id": f"stage-{stage}-disagrees",
                "layer": "cli",
                "detail": f"RtfReport stage '{stage}' reads {rep:.4f} s per clip; the spans of "
                          f"{', '.join(_STAGE_SPANS[stage])} under cli.transcribe add to "
                          f"{got:.4f} s",
                "reported_s": rep, "spans_s": got, "ops": ops,
            })
    if outside / ops > 1e-3:
        out.append({
            "id": "wall-time-excludes-load-wav",
            "layer": "cli",
            "detail": f"RtfReport.wall_time leaves out {1000 * outside / ops:.2f} ms per clip "
                      f"that the cli.transcribe span covers; features.load_wav spans account "
                      f"for {1000 * load_wav / ops:.2f} ms of it",
            "outside_ms": 1000 * outside / ops, "load_wav_ms": 1000 * load_wav / ops, "ops": ops,
        })
    gc_s = sum(tracer.gc_stats.get(op.clip_id, (0.0, 0))[0] for op in traced.values())
    full = sum(tracer.gc_stats.get(op.clip_id, (0.0, 0))[1] for op in traced.values())
    wall = sum(op.wall for op in traced.values())
    if gc_s > 0.1 * wall:
        out.append({
            "id": "gc-share-of-wall",
            "layer": "runtime",
            "detail": f"the cyclic garbage collector takes {gc_s / wall:.0%} of the traced "
                      f"operations' wall time, with {full / ops:.1f} full collections per clip; "
                      f"allocation-heavy Python code pays this and is sensitive to cache "
                      f"contention from other processes",
            "gc_share": gc_s / wall, "full_collections_per_op": full / ops, "ops": ops,
        })
    out.append({
        "id": "bench-workers-stack-on-blas",
        "layer": "cli",
        "detail": "cmd_bench runs --workers threads in a ThreadPoolExecutor and does not pin "
                  "BLAS threads, so each worker's matmuls may use OPENBLAS_NUM_THREADS threads "
                  "(all cores when unset) and per-clip RTF is inflated under concurrency; this "
                  "benchmark pins BLAS to 1 thread and uses one client instead",
        "source": "code reading; not measured by this run",
    })
    return out
