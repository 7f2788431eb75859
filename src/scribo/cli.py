"""Command-line front end.

One binary with subcommands for corpus work (convert/clean/stats/split),
text normalization, ARPA model scoring and pruning, offline decoding of
saved logit matrices, end-to-end transcription with a real-time-factor
report, alphabet adaptation of a saved model, WER evaluation, and a
repeatable RTF benchmark.

Exit codes: 0 success, 1 usage problems, 2 data errors (bad files,
failed preconditions). `--json` switches every result to one JSON
object per line for scripting; human output goes to stdout otherwise.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import corpus as corpus_mod
from . import lm as lm_mod
from .ctcdecoder import DecodeParams, beam_decode, greedy_decode, word_edits
from .errors import ScriboError, WeightError, decode_text, read_text
from .features import load_wav, logmel, normalize_features
from .net import (MAX_INIT_SCALE, THREAD_ENV, LoadedModel, adapt_alphabet, forward,
                  forward_streaming, load_weights, param_count, read_tensor_blob, row_parts,
                  save_weights)
from .textnorm import ALPHABETS, AlphabetSpec, load_rules, normalize_text, shipped_rules

log = logging.getLogger(__name__)

MODEL_DIR_ENV = "SCRIBO_MODEL_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


@dataclass(frozen=True)
class RtfReport:
    """Wall-clock cost of one transcription relative to audio length."""

    clip_duration: float
    wall_time: float
    stage_breakdown: dict[str, float]

    @property
    def rtf(self) -> float:
        return self.wall_time / self.clip_duration

    def to_dict(self) -> dict:
        return {
            "clip_duration": self.clip_duration,
            "wall_time": self.wall_time,
            "rtf": self.rtf,
            "stages": self.stage_breakdown,
        }


def _emit(args, obj: dict, human: str) -> None:
    if args.json:
        print(json.dumps(obj))
    else:
        print(human)


# ---------------------------------------------------------------------------
# Shared argument helpers


def _load_alphabet(spec: str) -> AlphabetSpec:
    if spec in ALPHABETS:
        return ALPHABETS[spec]
    path = Path(spec)
    if path.exists():
        return AlphabetSpec.from_json(path)
    raise ScriboError(f"unknown alphabet {spec!r}: not a preset ({', '.join(sorted(ALPHABETS))}) "
                      f"or a JSON file")


def _model_dir(args) -> Path:
    model = args.model or os.environ.get(MODEL_DIR_ENV)
    if not model:
        raise ScriboError(f"no model directory: pass --model or set {MODEL_DIR_ENV}")
    return Path(model)


def _fractions(text: str) -> list[float]:
    parts = [_finite("each fraction", 0.0)(p) for p in text.split(",") if p]
    if not parts:
        raise argparse.ArgumentTypeError("fractions must be non-empty")
    return parts


def _count(what: str):
    """An argparse type for an integer >= 1; anything else is a usage
    error naming ``what``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = 0
        if n < 1:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= 1, got {text!r}")
        return n
    return parse


def _finite(what: str, low: float = -math.inf, high: float = math.inf):
    """An argparse type for a finite float from ``low`` to ``high``;
    anything else is a usage error naming ``what``."""
    bound = " and".join(f" {op} {b:g}" for op, b in ((">=", low), ("<=", high))
                        if math.isfinite(b))

    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and low <= x <= high):
            raise argparse.ArgumentTypeError(f"{what} must be a finite number{bound}, "
                                             f"got {text!r}")
        return x
    return parse


def _decode_params(args) -> DecodeParams | None:
    """None means greedy decoding."""
    if args.decoder == "greedy" and args.arpa:
        raise _UsageError("--arpa needs the beam decoder; drop --decoder greedy or --arpa")
    if not (args.decoder == "beam" or args.arpa):
        return None
    model = lm_mod.parse_arpa(args.arpa) if args.arpa else None
    return DecodeParams(beam_width=args.beam_width, alpha=args.alpha,
                        beta=args.beta, lm=model)


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--decoder", choices=("auto", "greedy", "beam"), default="auto",
                   help="auto = greedy unless --arpa is given")
    p.add_argument("--beam-width", type=_count("beam width"), default=256)
    p.add_argument("--arpa", help="ARPA model for shallow fusion (implies beam)")
    p.add_argument("--alpha", type=_finite("LM weight", 0.0), default=0.8, help="LM weight")
    p.add_argument("--beta", type=_finite("word insertion bonus"), default=1.0,
                   help="word insertion bonus")


# ---------------------------------------------------------------------------
# Transcription pipeline


def transcribe(model: LoadedModel, wav_path, chunk: float | None = None,
               params: DecodeParams | None = None) -> tuple[str, RtfReport]:
    """Full pipeline for one file; params=None selects greedy decoding.

    The reported wall time covers reading the WAV as well as the three
    stages, so the RTF is what a caller waits for per file.
    """
    start = time.perf_counter()
    clip = load_wav(wav_path)
    if clip.duration == 0:
        raise ScriboError(f"{wav_path}: zero-length audio, transcript empty and RTF undefined")

    stages: dict[str, float] = {}
    if chunk is None:
        t0 = time.perf_counter()
        feats = normalize_features(logmel(clip, model.features))
        stages["features"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        logits = forward(model.net, model.weights, feats)
        stages["forward"] = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        logits = forward_streaming(model.net, model.weights, clip, chunk, model.features)
        stages["features"] = 0.0
        stages["forward"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if params is None:
        text = greedy_decode(logits, model.alphabet)
    else:
        text = beam_decode(logits, model.alphabet, params)[0].text
    stages["decode"] = time.perf_counter() - t0

    return text, RtfReport(clip.duration, time.perf_counter() - start, stages)


def _report_line(report: RtfReport) -> str:
    stages = ", ".join(f"{k} {v:.3f}s" for k, v in report.stage_breakdown.items())
    return (f"rtf {report.rtf:.3f} (audio {report.clip_duration:.2f}s, "
            f"wall {report.wall_time:.3f}s; {stages})")


def cmd_transcribe(args) -> int:
    params = _decode_params(args)
    model = load_weights(_model_dir(args))
    text, report = transcribe(model, args.wav, args.chunk, params)
    obj = {"transcript": text, **report.to_dict()}
    _emit(args, obj, f"{text}\n{_report_line(report)}")
    return 0


def _p90(values) -> float:
    """90th percentile by nearest rank, so never below the median."""
    xs = sorted(values)
    return xs[(9 * len(xs) - 1) // 10]


def _peak_rss_mib() -> float:
    """This process's peak resident set size so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts KiB on Linux and bytes on macOS
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def cmd_bench(args) -> int:
    params = _decode_params(args)
    model = load_weights(_model_dir(args))
    manifest = Path(args.manifest)
    items = corpus_mod.read_manifest(manifest)
    if not items:
        raise ScriboError(f"{manifest}: empty manifest, nothing to benchmark")
    paths = [manifest.parent / it.filepath for it in items]

    transcribe(model, paths[0], args.chunk, params)  # warm-up, excluded
    jobs = [p for _ in range(args.reps) for p in paths]
    results = [transcribe(model, path, args.chunk, params) for path in jobs]

    rtfs = [rep.rtf for _, rep in results]
    total_audio = sum(rep.clip_duration for _, rep in results)
    total_wall = sum(rep.wall_time for _, rep in results)
    for path, (_, rep) in zip(jobs, results):
        _emit(args, {"clip": str(path), **rep.to_dict()},
              f"{Path(path).name}: {_report_line(rep)}")
    summary = {
        "measurements": len(rtfs),
        "mean_rtf": statistics.mean(rtfs),
        "median_rtf": statistics.median(rtfs),
        "p90_rtf": _p90(rtfs),
        "aggregate_rtf": total_wall / total_audio,
        "total_audio": total_audio,
        "total_wall": total_wall,
        "peak_rss_mib": _peak_rss_mib(),
        **{var: os.environ.get(var) for var in THREAD_ENV},
        "row_parts": row_parts(),
    }
    threads = ", ".join(f"{var}={summary[var] or 'unset'}" for var in THREAD_ENV)
    _emit(args, summary,
          f"{len(rtfs)} measurements: mean rtf {summary['mean_rtf']:.3f}, "
          f"median rtf {summary['median_rtf']:.3f}, p90 rtf {summary['p90_rtf']:.3f}, "
          f"aggregate {summary['aggregate_rtf']:.3f}; peak RSS {summary['peak_rss_mib']:.1f} MiB; "
          f"{threads}, row parts {summary['row_parts']}")
    return 0


# ---------------------------------------------------------------------------
# Corpus commands


def cmd_corpus_convert(args) -> int:
    manifest, sidecar = corpus_mod.convert_dataset(args.format, args.src, args.out,
                                                   workers=args.workers)
    _emit(args, {"manifest": str(manifest), **sidecar},
          f"converted {sidecar['items']} items -> {manifest}")
    return 0


def cmd_corpus_clean(args) -> int:
    manifest = Path(args.manifest)
    items = corpus_mod.read_manifest(manifest)
    report = corpus_mod.clean_corpus(items)
    name = args.name or manifest.stem + ".clean"
    written = corpus_mod.write_dataset(report.kept, "manifest-csv", manifest.parent,
                                       name=name)
    counts = report.metric_counts()
    obj = {"kept": len(report.kept), "excluded": len(report.excluded),
           "by_metric": {str(k): v for k, v in counts.items()}, "manifest": str(written)}
    lines = [f"kept {len(report.kept)} of {len(items)} items -> {written}"]
    for metric in sorted(counts):
        if counts[metric]:
            lines.append(f"  metric {metric}: excluded {counts[metric]}")
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_corpus_stats(args) -> int:
    items = corpus_mod.read_manifest(Path(args.manifest))
    stats = corpus_mod.compute_stats(items)
    obj = {
        "items": stats.item_count,
        "total_duration": stats.total_duration,
        "mean_duration": stats.mean_duration,
        "mean_chars_per_second": stats.mean_chars_per_second,
        "top_speakers": stats.top_speakers,
    }
    lines = [
        f"{stats.item_count} items, {stats.total_duration:.1f}s total "
        f"({stats.total_duration / 3600:.2f}h)",
        f"mean duration {stats.mean_duration:.2f}s, "
        f"mean {stats.mean_chars_per_second:.2f} chars/s",
    ]
    for speaker, count in stats.top_speakers[:10]:
        lines.append(f"  {speaker}: {count}")
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_corpus_split(args) -> int:
    manifest = Path(args.manifest)
    items = corpus_mod.read_manifest(manifest)
    names = args.names.split(",") if args.names else None
    parts = corpus_mod.split_dataset(items, args.fractions, seed=args.seed,
                                     by_key=args.by, names=names)
    written = {}
    for name, part in parts.items():
        written[name] = str(corpus_mod.write_dataset(part, "manifest-csv",
                                                     manifest.parent, name=name))
    obj = {name: {"items": len(part), "manifest": written[name]}
           for name, part in parts.items()}
    human = "\n".join(f"{name}: {len(part)} items -> {written[name]}"
                      for name, part in parts.items())
    _emit(args, obj, human)
    return 0


# ---------------------------------------------------------------------------
# Text and LM commands


def cmd_normalize(args) -> int:
    if args.rules:
        rules = load_rules(args.rules)
    else:
        rules = shipped_rules(args.lang)
    alphabet = _load_alphabet(args.alphabet or args.lang)

    if args.text is not None:
        lines = [args.text]
    elif args.infile:
        lines = read_text(args.infile, ScriboError).splitlines()
    else:
        lines = decode_text(sys.stdin.buffer.read(), "<stdin>", ScriboError).splitlines()
    for line in lines:
        result = normalize_text(line, rules, alphabet)
        _emit(args, {"text": result}, result)
    return 0


def cmd_lm_score(args) -> int:
    model = lm_mod.parse_arpa(args.arpa)
    words = args.text.split()
    score = model.score_sequence(words, with_markers=not args.no_markers)
    _emit(args, {"log10": score.log10_total, "oov": score.oov_count},
          f"log10 {score.log10_total:.6f} ({score.oov_count} OOV)")
    return 0


def cmd_lm_ppl(args) -> int:
    model = lm_mod.parse_arpa(args.arpa)
    if args.text is not None:
        words = args.text.split()
    elif args.infile:
        words = read_text(args.infile, ScriboError).split()
    else:
        raise ScriboError("lm ppl needs --text or --in")
    ppl = model.perplexity(words, with_markers=not args.no_markers)
    _emit(args, {"perplexity": ppl, "words": len(words)},
          f"perplexity {ppl:.4f} over {len(words)} words")
    return 0


def cmd_lm_prune(args) -> int:
    model = lm_mod.parse_arpa(args.arpa)
    before = model.total_ngrams
    pruned = lm_mod.prune_model(model, args.max_ngrams)
    lm_mod.serialize_arpa(pruned, args.out)
    obj = {"before": before, "after": pruned.total_ngrams, "out": args.out}
    _emit(args, obj, f"pruned {before} -> {pruned.total_ngrams} n-grams -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    params = _decode_params(args)
    tensors, _ = read_tensor_blob(args.logits)
    if "logits" not in tensors:
        raise WeightError(f"{args.logits}: blob has no tensor named 'logits'")
    logits = tensors["logits"]
    alphabet = _load_alphabet(args.alphabet)
    if params is None:
        text = greedy_decode(logits, alphabet)
        _emit(args, {"transcript": text}, text)
    else:
        hyps = beam_decode(logits, alphabet, params)
        best = hyps[0]
        _emit(args, {"transcript": best.text, "acoustic_log": best.acoustic_log,
                     "lm_log10": best.lm_log10, "combined": best.combined}, best.text)
    return 0


def cmd_adapt(args) -> int:
    model = load_weights(_model_dir(args))
    target = _load_alphabet(args.target)
    new_cfg, new_weights = adapt_alphabet(model.net, model.weights, model.alphabet,
                                          target, init=args.init, scale=args.scale,
                                          seed=args.seed)
    new_symbols = [s for s in target.symbols if s not in model.alphabet.symbols]
    out = Path(args.out)
    save_weights(out, new_cfg, new_weights, model.features, target,
                 name=f"{model.name}-adapted")
    obj = {
        "out": str(out),
        "vocab_size": new_cfg.vocab_size,
        "new_symbols": new_symbols,
        "params": param_count(new_cfg),
    }
    _emit(args, obj,
          f"vocab {model.net.vocab_size} -> {new_cfg.vocab_size}, "
          f"new symbols {new_symbols}, saved to {out}")
    return 0


def cmd_eval(args) -> int:
    ref_lines = read_text(args.ref, ScriboError).splitlines()
    hyp_lines = read_text(args.hyp, ScriboError).splitlines()
    if len(ref_lines) != len(hyp_lines):
        raise ScriboError(
            f"line count mismatch: {args.ref} has {len(ref_lines)}, "
            f"{args.hyp} has {len(hyp_lines)}"
        )
    total_words = total_edits = 0
    for ref, hyp in zip(ref_lines, hyp_lines):
        ref_words = ref.split()
        total_edits += word_edits(ref_words, hyp.split())
        total_words += len(ref_words)
    if total_words == 0:
        raise ScriboError(f"{args.ref}: no reference words")
    wer = total_edits / total_words
    _emit(args, {"wer": wer, "reference_words": total_words},
          f"wer {wer:.4f} over {total_words} reference words")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and dispatch


def _build_parser() -> _Parser:
    parser = _Parser(prog="scribo",
                     description="Speech-to-text corpus and inference toolkit")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output, one JSON object per line")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    corpus = sub.add_parser("corpus", help="dataset operations")
    csub = corpus.add_subparsers(dest="corpus_command", required=True, parser_class=_Parser)

    p = csub.add_parser("convert", help="convert a dataset to 16 kHz mono WAV + manifest")
    p.add_argument("--format", required=True, choices=corpus_mod.READ_FORMATS)
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_count("worker count"), default=1)
    p.set_defaults(func=cmd_corpus_convert)

    p = csub.add_parser("clean", help="apply the six exclusion metrics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--name", help="basename for the cleaned manifest")
    p.set_defaults(func=cmd_corpus_clean)

    p = csub.add_parser("stats", help="corpus statistics")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_corpus_stats)

    p = csub.add_parser("split", help="partition a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fractions", type=_fractions, default=[0.8, 0.1, 0.1])
    p.add_argument("--by", help="group-preserving key, e.g. speaker")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--names", help="comma-separated partition names")
    p.set_defaults(func=cmd_corpus_split)

    p = sub.add_parser("normalize", help="normalize transcripts")
    p.add_argument("--lang", default="de", help="shipped rule set / alphabet preset")
    p.add_argument("--rules", help="JSON rule file overriding --lang rules")
    p.add_argument("--alphabet", help="alphabet preset name or JSON file")
    p.add_argument("--text", help="normalize this string instead of reading input")
    p.add_argument("--in", dest="infile", help="read lines from this file")
    p.set_defaults(func=cmd_normalize)

    lmp = sub.add_parser("lm", help="ARPA language model operations")
    lsub = lmp.add_subparsers(dest="lm_command", required=True, parser_class=_Parser)

    p = lsub.add_parser("score", help="log10 score of a token sequence")
    p.add_argument("--arpa", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--no-markers", action="store_true")
    p.set_defaults(func=cmd_lm_score)

    p = lsub.add_parser("ppl", help="perplexity of text")
    p.add_argument("--arpa", required=True)
    p.add_argument("--text")
    p.add_argument("--in", dest="infile")
    p.add_argument("--no-markers", action="store_true")
    p.set_defaults(func=cmd_lm_ppl)

    p = lsub.add_parser("prune", help="cap the n-gram count")
    p.add_argument("--arpa", required=True)
    p.add_argument("--max-ngrams", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lm_prune)

    p = sub.add_parser("decode", help="decode a saved logit matrix")
    p.add_argument("--logits", required=True, help="tensor blob directory")
    p.add_argument("--alphabet", required=True)
    _add_decode_flags(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("transcribe", help="speech to text for one WAV file")
    p.add_argument("--model", help=f"model directory (default ${MODEL_DIR_ENV})")
    p.add_argument("--wav", required=True)
    p.add_argument("--chunk", type=_finite("chunk length", 0.0),
                   help="streaming chunk length in seconds")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_transcribe)

    p = sub.add_parser("adapt-alphabet", help="re-head a model for a new alphabet")
    p.add_argument("--model", help=f"model directory (default ${MODEL_DIR_ENV})")
    p.add_argument("--target", required=True, help="target alphabet preset or JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--init", choices=("zero", "uniform"), default="zero")
    p.add_argument("--scale", type=_finite("scale", 0.0, MAX_INIT_SCALE), default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="word error rate between two transcripts")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="real-time-factor benchmark over a manifest")
    p.add_argument("--model", help=f"model directory (default ${MODEL_DIR_ENV})")
    p.add_argument("--manifest", required=True)
    p.add_argument("--reps", type=_count("repetition count"), default=1)
    p.add_argument("--chunk", type=_finite("chunk length", 0.0))
    _add_decode_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def run(argv) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"scribo: error: {exc}", file=sys.stderr)
        return 1
    except (ScriboError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
