"""Deterministic input generator for the scribo benchmark.

Run as a separate process before the measured one, so that set-up time
and peak memory of the measured process belong to the program alone:

    python3 perfbench/inputs.py --workload offline_greedy --seed 0 --cache .bench_cache

Everything is built in code from the seed; nothing is downloaded.

* The model is ``quartznet15x5(28)`` with ``random_weights`` under a
  fixed weight seed, saved with ``save_weights``.  It is the program's
  model, not a workload input, so it is shared by every workload seed
  (and kept once per cache, which saves 73 MB per seed).
* Clips are seeded noise: segments of 0.2-1.0 s with their own level
  and spectral tilt, so the network's output changes along the clip.
* The language model is a synthetic trigram ARPA file whose
  vocabulary is every single letter plus seeded two- and three-letter
  strings, so words the beam search forms hit stored n-grams and
  backoff paths alike.
* The corpus is a raw folder-txt dataset of 44.1 kHz stereo WAVs with
  German transcripts holding numbers and units.

The generator writes ``inputs.json`` last, with the seed and a sha256
digest over every generated file; a directory without it is incomplete
and is rebuilt.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import wave
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scribo.features import FeatureConfig  # noqa: E402
from scribo.net import quartznet15x5, random_weights, save_weights  # noqa: E402
from scribo.textnorm import ALPHABETS  # noqa: E402

from run import WORKLOADS  # noqa: E402

MODEL_SEED = 0
MODEL_DIR = f"model-qn15x5-v28-w{MODEL_SEED}"
RATE = 16000

# Clip plans.  Durations are fixed ladders and only the content is
# seeded, so a metric's spread across seeds reflects the program rather
# than a different mix of clip lengths.
GREEDY_DURATIONS = tuple(5.0 + 15.0 * i / 11 for i in range(12))  # 5 .. 20 s
BEAM_DURATIONS = (2.0,) * 4
STREAM_DURATION = 90.0
CORPUS_ITEMS = 40
CORPUS_RATE = 44100
CORPUS_SPEAKERS = 8

# How many seeds per workload stay in the cache; older ones are pruned.
KEEP_SEEDS = 6


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _noise(rng: np.random.Generator, seconds: float, rate: int) -> np.ndarray:
    """Segmented coloured noise in [-1, 1]."""
    n = int(round(seconds * rate))
    out = np.empty(n, dtype=np.float64)
    pos = 0
    while pos < n:
        seg = min(n - pos, int(rate * rng.uniform(0.2, 1.0)))
        level = 10.0 ** rng.uniform(-2.0, -0.6)
        tilt = rng.uniform(-0.95, 0.95)  # one-pole colouring: <0 bright, >0 dark
        x = lfilter([1.0 - abs(tilt)], [1.0, -tilt], rng.standard_normal(seg))
        out[pos:pos + seg] = level * x / (np.std(x) + 1e-12)
        pos += seg
    return np.clip(out, -1.0, 1.0)


def _write_wav(path: Path, samples: np.ndarray, rate: int = RATE, channels: int = 1) -> None:
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def _clips(out: Path, seed: int, tag: int, durations) -> list[dict]:
    out.mkdir(parents=True, exist_ok=True)
    clips = []
    for i, seconds in enumerate(durations):
        name = f"clip{i:02d}.wav"
        # keep sample counts a multiple of 16 so durations are exact in ms
        samples = _noise(_rng(seed, tag, i), seconds, RATE)
        samples = samples[: len(samples) // 16 * 16]
        _write_wav(out / name, samples)
        clips.append({"path": name, "duration": len(samples) / RATE})
    return clips


def _arpa(path: Path, seed: int) -> dict:
    """A trigram ARPA file that is prefix-consistent but not normalised."""
    rng = _rng(seed, 3)
    letters = list("abcdefghijklmnopqrstuvwxyz'")
    pairs = {a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghijklmnopqrstuvwxyz"}
    shorts = sorted(rng.choice(sorted(pairs), size=260, replace=False).tolist())
    triples = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=3))
               for _ in range(140)]
    vocab = ["<s>", "</s>", "<unk>"] + letters + sorted(set(shorts + triples) - set(letters))
    words = [w for w in vocab if w not in ("<s>", "<unk>")]
    starts = [w for w in vocab if w not in ("</s>", "<unk>")]

    def prob(lo, hi):
        return float(rng.uniform(lo, hi))

    uni = {(w,): (prob(-4.0, -1.0), prob(-1.0, -0.05)) for w in vocab}
    uni[("<s>",)] = (-99.0, prob(-1.0, -0.05))
    bi = {}
    while len(bi) < 4000:
        key = (starts[rng.integers(len(starts))], words[rng.integers(len(words))])
        bi.setdefault(key, (prob(-3.0, -0.3), prob(-0.8, -0.05)))
    bi_keys = sorted(bi)
    tri = {}
    while len(tri) < 3000:
        h = bi_keys[rng.integers(len(bi_keys))]
        if h[1] == "</s>":
            continue
        key = h + (words[rng.integers(len(words))],)
        tri.setdefault(key, prob(-2.5, -0.1))

    lines = ["\\data\\", f"ngram 1={len(uni)}", f"ngram 2={len(bi)}", f"ngram 3={len(tri)}", ""]
    lines.append("\\1-grams:")
    lines += [f"{p:.6f}\t{k[0]}\t{b:.6f}" for k, (p, b) in sorted(uni.items())]
    lines += ["", "\\2-grams:"]
    lines += [f"{p:.6f}\t{' '.join(k)}\t{b:.6f}" for k, (p, b) in sorted(bi.items())]
    lines += ["", "\\3-grams:"]
    lines += [f"{p:.6f}\t{' '.join(k)}" for k, p in sorted(tri.items())]
    lines += ["", "\\end\\", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return {"path": path.name, "vocab": len(vocab), "ngrams": [len(uni), len(bi), len(tri)]}


_SUBJECTS = ("Der Zug", "Die Lieferung", "Unser Büro", "Frau Müller", "Der Läufer",
             "Die Straße", "Das Paket", "Herr Großmann", "Die Brücke", "Ein Würfel")
_PHRASES = (
    "wiegt {n} kg und kostet {m} €",
    "ist {n} km lang, ca. {m} % davon führen bergauf",
    "fährt um {n} h ab und braucht {m} min",
    "hat Nr. {n} und liegt {m} m über dem Meer",
    "misst {n} cm, d.h. etwa {m} mm mehr als erwartet",
    "bringt {n} l Wasser bei {m} °C",
    "kostet {n}.{m:03d} € usw.",
    "trägt {n} g Zucker, z.B. für {m} Kuchen",
    "zählt {n} Sitze & {m} Stehplätze",
    "steht in § {n} Absatz {m}",
)


def _sentence(rng: np.random.Generator) -> str:
    parts = []
    for _ in range(int(rng.integers(1, 3))):
        subject = _SUBJECTS[rng.integers(len(_SUBJECTS))]
        phrase = _PHRASES[rng.integers(len(_PHRASES))]
        parts.append(f"{subject} {phrase.format(n=int(rng.integers(1, 2500)), m=int(rng.integers(0, 1000)))}")
    return "; ".join(parts) + "."


def _corpus(out: Path, seed: int) -> dict:
    """Raw folder-txt corpus: spkNN_iiii.wav (44.1 kHz stereo) + .txt."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 4)
    items = []
    for i in range(CORPUS_ITEMS):
        speaker = f"spk{i % CORPUS_SPEAKERS:02d}"
        name = f"{speaker}_{i:04d}"
        seconds = float(rng.uniform(1.0, 8.0))
        text = _sentence(rng)
        if i == CORPUS_ITEMS - 1:
            seconds = 0.3  # exercises exclusion metric 1 (too short)
        left = _noise(_rng(seed, 4, i, 0), seconds, CORPUS_RATE)
        right = 0.5 * left + 0.5 * _noise(_rng(seed, 4, i, 1), seconds, CORPUS_RATE)
        _write_wav(out / f"{name}.wav", np.stack([left, right], axis=1).ravel(),
                   rate=CORPUS_RATE, channels=2)
        (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        items.append({"path": f"{name}.wav", "speaker": speaker,
                      "duration": len(left) / CORPUS_RATE})
    return {"items": items, "rate": CORPUS_RATE, "channels": 2}


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name == "inputs.json":
            continue
        h.update(str(path.relative_to(directory)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def ensure_model(cache: Path) -> Path:
    model_dir = cache / MODEL_DIR
    if (model_dir / "manifest.json").exists():
        return model_dir
    tmp = cache / (MODEL_DIR + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    cfg = quartznet15x5(28)
    save_weights(tmp, cfg, random_weights(cfg, seed=MODEL_SEED), FeatureConfig(),
                 ALPHABETS["en"], name="quartznet15x5-random")
    os.replace(tmp, model_dir)
    return model_dir


def _build(workload: str, seed: int, out: Path) -> dict:
    spec: dict = {"workload": workload, "seed": seed, "model": MODEL_DIR}
    if workload == "offline_greedy":
        spec["clips"] = _clips(out / "clips", seed, 1, GREEDY_DURATIONS)
    elif workload == "beam_lm":
        spec["clips"] = _clips(out / "clips", seed, 2, BEAM_DURATIONS)
        spec["arpa"] = _arpa(out / "trigram.arpa", seed)
    elif workload == "streaming_long":
        spec["clips"] = _clips(out / "clips", seed, 5, (STREAM_DURATION,))
    elif workload == "corpus_prep":
        spec["corpus"] = _corpus(out / "raw", seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


def _prune(cache: Path, workload: str, keep: Path) -> None:
    dirs = sorted((p for p in cache.glob(f"{workload}-seed*") if p != keep and p.is_dir()),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for old in dirs[KEEP_SEEDS - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def ensure_inputs(workload: str, seed: int, cache: Path) -> dict:
    """Build (or reuse) the inputs of one workload and seed; return its spec."""
    cache.mkdir(parents=True, exist_ok=True)
    model_dir = ensure_model(cache)
    out = cache / f"{workload}-seed{seed}"
    spec_path = out / "inputs.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        os.utime(out)
    else:
        tmp = cache / f"{workload}-seed{seed}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        tmp.mkdir(parents=True)
        spec = _build(workload, seed, tmp)
        spec["model_checksum"] = json.loads(
            (model_dir / "manifest.json").read_text(encoding="utf-8"))["checksum"]
        spec["input_digest"] = "sha256:" + _digest(tmp)
        (tmp / "inputs.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
        os.replace(tmp, out)
    _prune(cache, workload, out)
    spec["dir"] = str(out)
    spec["model_dir"] = str(model_dir)
    return spec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache", required=True)
    args = p.parse_args(argv)
    spec = ensure_inputs(args.workload, args.seed, Path(args.cache))
    print(json.dumps({k: spec[k] for k in ("workload", "seed", "input_digest",
                                           "model_checksum", "dir", "model_dir")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
