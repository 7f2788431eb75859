"""Acceptance gate: one test per shipped guarantee.

Each test here pins down one externally visible promise of the package,
at the stated tolerance. Run

    python3 -m pytest tests/test_acceptance.py -v

to get a single pass/fail line per criterion.
"""
import itertools
import math
import random
import wave

import numpy as np
import pytest

from scribo import cli, corpus, lm as lm_mod, net
from scribo.ctcdecoder import DecodeParams, beam_decode, greedy_decode
from scribo.features import AudioClip, FeatureConfig, load_wav, logmel, normalize_features
from scribo.textnorm import ALPHABETS, AlphabetSpec, normalize_text, shipped_rules

from conftest import small_config, tone, write_wav


# ---------------------------------------------------------------------------
# Shared large-model fixtures (criteria 1, 4, 5, 9)


@pytest.fixture(scope="module")
def big():
    cfg = net.quartznet15x5(28)
    return cfg, net.random_weights(cfg, seed=0)


@pytest.fixture(scope="module")
def ten_second_wav(tmp_path_factory):
    rng = np.random.default_rng(7)
    samples = rng.uniform(-0.5, 0.5, 10 * 16000).astype(np.float32)
    path = tmp_path_factory.mktemp("accept") / "noise10s.wav"
    write_wav(path, samples)
    return path


@pytest.fixture(scope="module")
def big_model(big):
    cfg, weights = big
    return net.LoadedModel("accept", cfg, weights, FeatureConfig(),
                           ALPHABETS["en"])


# ---------------------------------------------------------------------------
# 1. Parameter budget of the full-size network


def test_criterion_01_parameter_count_within_budget():
    count = net.param_count(net.quartznet15x5(28))
    # 19M plus or minus five percent
    assert 19e6 * 0.95 <= count <= 19e6 * 1.05, count


# ---------------------------------------------------------------------------
# 2. Beam search against an exhaustive oracle


def exhaustive_best(log_rows, alphabet):
    """Best transcript by brute-force path enumeration."""
    t_len, width = log_rows.shape
    blank = width - 1
    totals: dict[str, float] = {}
    for path in itertools.product(range(width), repeat=t_len):
        score = 0.0
        prev = -1
        chars = []
        for t, s in enumerate(path):
            score += log_rows[t, s]
            if s != blank and s != prev:
                chars.append(alphabet.symbols[s])
            prev = s
        text = "".join(chars)
        if text in totals:
            totals[text] = np.logaddexp(totals[text], score)
        else:
            totals[text] = score
    return max(totals.items(), key=lambda kv: kv[1])


def test_criterion_02_beam_search_matches_exhaustive_oracle():
    failures = []
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        t_len = int(rng.integers(1, 7))
        vocab = int(rng.integers(1, 5))
        alphabet = AlphabetSpec(tuple("abcd"[:vocab]))
        raw = rng.normal(0.0, 2.0, (t_len, vocab + 1))
        log_rows = raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))
        params = DecodeParams(beam_width=(vocab + 1) ** t_len, alpha=0.0,
                              beta=0.0, lm=None)
        top = beam_decode(log_rows, alphabet, params)[0]
        want_text, want_score = exhaustive_best(log_rows, alphabet)
        if top.text != want_text or abs(top.combined - want_score) > 1e-9:
            failures.append((case, top.text, want_text,
                             top.combined - want_score))
    assert not failures, f"{len(failures)}/100 mismatches: {failures[:5]}"


# ---------------------------------------------------------------------------
# 3. Toy language model scored by hand


def test_criterion_03_toy_arpa_matches_hand_scores(toy_model):
    lg = math.log10
    hand = [
        ([], "a", lg(0.4)),                       # stored unigram
        (["a"], "b", lg(0.6)),                    # stored bigram
        (["b"], "c", lg(0.5)),                    # stored bigram
        (["a"], "c", lg(0.4 / 0.7) + lg(0.2)),    # backoff through bo(a)
        (["b"], "a", lg(0.5 / 0.8) + lg(0.4)),    # backoff through bo(b)
        (["c"], "b", lg(0.3)),                    # history with default backoff
        (["a"], "zzz", lg(0.4 / 0.7) + lg(0.1)),  # OOV routes to <unk>
    ]
    for history, word, want in hand:
        got = toy_model.score_word(history, word)
        assert got == pytest.approx(want, abs=1e-6), (history, word)

    seq = toy_model.score_sequence(["a", "b"], with_markers=False)
    assert seq.log10_total == pytest.approx(lg(0.4) + lg(0.6), abs=1e-6)

    # every stored history must describe a proper distribution
    histories = [()]
    for k in range(1, toy_model.order):
        histories.extend(toy_model.tables[k])
    vocab = sorted(toy_model.vocab)
    for hist_ids in histories:
        history = [toy_model.id_to_token[i] for i in hist_ids]
        total = sum(10 ** toy_model.score_word(history, w) for w in vocab)
        assert total == pytest.approx(1.0, abs=1e-6), history


# ---------------------------------------------------------------------------
# 4. Streaming inference equals the offline pass


def test_criterion_04_streaming_matches_offline(big, big_model, ten_second_wav):
    cfg, weights = big
    feat_cfg = big_model.features
    clip = load_wav(ten_second_wav)

    offline = net.forward(cfg, weights, normalize_features(logmel(clip, feat_cfg)))
    # a chunk over the receptive field (over 80 s here) is one push of the
    # whole 10 s clip; the shorter chunks carry each conv's context across
    # pushes
    chunk = net.receptive_field_seconds(cfg, feat_cfg) + 0.5
    for seconds in (chunk, 1.0, 3.3):
        streamed = net.forward_streaming(cfg, weights, clip, seconds, feat_cfg)
        assert streamed.shape == offline.shape
        assert float(np.abs(streamed - offline).max()) <= 1e-4, seconds

    text_offline, _ = cli.transcribe(big_model, ten_second_wav)
    text_streamed, _ = cli.transcribe(big_model, ten_second_wav, chunk=chunk)
    assert text_streamed == text_offline


# ---------------------------------------------------------------------------
# 5. Alphabet surgery keeps shared logits bit-exact


def test_criterion_05_alphabet_surgery_preserves_shared_logits(big):
    cfg, weights = big
    en, es, it = ALPHABETS["en"], ALPHABETS["es"], ALPHABETS["it"]

    es_cfg, es_weights = net.adapt_alphabet(cfg, weights, en, es, init="zero")
    it_cfg, it_weights = net.adapt_alphabet(es_cfg, es_weights, es, it)

    en_cols = [es.index(s) for s in en.symbols] + [es.size]
    it_cols = [es.index(s) for s in it.symbols] + [es.size]
    new_col = es.index("ñ")
    rng = np.random.default_rng(42)
    for _ in range(10):
        feats = rng.normal(0, 1, (50, cfg.input_features)).astype(np.float32)
        out_en = net.forward(cfg, weights, feats, log_probs=False)
        out_es = net.forward(es_cfg, es_weights, feats, log_probs=False)
        out_it = net.forward(it_cfg, it_weights, feats, log_probs=False)
        assert np.array_equal(out_es[:, en_cols], out_en)     # extend
        assert np.array_equal(out_it, out_es[:, it_cols])     # shrink
        assert np.all(out_es[:, new_col] == 0.0)              # zero-init head


# ---------------------------------------------------------------------------
# 6. Corpus cleaning against a naive restatement


def naive_clean(items):
    """The six exclusion rules, restated independently."""
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


def synthetic_items(n, seed):
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz      "
    items = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.08:
            duration = rng.uniform(0.0, 0.5)
        elif roll < 0.14:
            duration = rng.uniform(30.0, 80.0)
        elif roll < 0.16:
            duration = 0.0
        else:
            duration = rng.uniform(0.5, 30.0)
        shape = rng.random()
        if shape < 0.05:
            chars = rng.randint(490, 620)       # straddle the length cap
        elif shape < 0.15:
            chars = rng.randint(0, 4)           # slow / empty speech
        else:
            chars = rng.randint(5, 200)
        text = "".join(rng.choice(letters) for _ in range(chars))
        speaker = f"spk{rng.randint(0, 20)}" if rng.random() < 0.7 else None
        items.append(corpus.DatasetItem(f"{i:04d}.wav", text, duration, speaker))
    return items


def test_criterion_06_cleaning_matches_naive_oracle():
    items = synthetic_items(1000, seed=2024)
    report = corpus.clean_corpus(items)
    kept, excluded = naive_clean(items)
    assert report.kept == kept
    assert report.excluded == excluded
    assert {m for _, m in excluded} >= {1, 2, 3}   # the corpus is varied


# ---------------------------------------------------------------------------
# 7. Normalization is idempotent and closed over the alphabet


def random_unicode(rng, max_len=80):
    pools = [
        (0x0020, 0x007E),     # ASCII
        (0x00A0, 0x02FF),     # Latin supplements and extensions
        (0x0370, 0x03FF),     # Greek
        (0x0400, 0x045F),     # Cyrillic
        (0x4E00, 0x4E7F),     # CJK sample
        (0x1F600, 0x1F64F),   # emoji
    ]
    n = rng.randint(0, max_len)
    chars = []
    for _ in range(n):
        lo, hi = rng.choice(pools)
        chars.append(chr(rng.randint(lo, hi)))
    return "".join(chars)


@pytest.mark.parametrize("lang", ["en", "de"])
def test_criterion_07_normalization_idempotent_and_closed(lang):
    rules = shipped_rules(lang)
    alphabet = ALPHABETS[lang]
    allowed = set(alphabet.symbols)
    rng = random.Random(hash(lang) & 0xFFFF)
    for _ in range(1000):
        raw = random_unicode(rng)
        once = normalize_text(raw, rules, alphabet)
        assert set(once) <= allowed, raw
        assert normalize_text(once, rules, alphabet) == once, raw


# ---------------------------------------------------------------------------
# 8. Manifest write/read round trip with real audio


def test_criterion_08_manifest_round_trip(tmp_path):
    rng = random.Random(50)
    items = []
    for i in range(50):
        ms = rng.randint(100, 3000)
        path = tmp_path / f"clip{i:02d}.wav"
        write_wav(path, tone(ms / 1000.0, freq=200.0 + 10 * i))
        speaker = f"spk{i % 7}" if i % 3 else None
        text = f"utterance {i} with words"
        items.append(corpus.DatasetItem(path.name, text, ms / 1000.0, speaker))

    manifest = corpus.write_dataset(items, "manifest-csv", tmp_path, name="rt")
    back = corpus.read_manifest(manifest)
    assert len(back) == 50
    for orig, rt in zip(items, back):
        assert rt.filepath == orig.filepath
        assert rt.text == orig.text
        assert rt.duration == pytest.approx(orig.duration, abs=1e-6)
        assert rt.speaker == orig.speaker

    for item in back:
        with wave.open(str(tmp_path / item.filepath), "rb") as fh:
            assert fh.getnchannels() == 1
            assert fh.getsampwidth() == 2
            assert fh.getframerate() == 16000


# ---------------------------------------------------------------------------
# 9. Real-time-factor harness


def test_criterion_09_rtf_harness_reports_breakdown(big_model, ten_second_wav):
    # Reference figures for orientation only (hardware dependent, not
    # asserted): roughly 0.24 on a desktop CPU core and 0.7 to 1.3 on
    # Raspberry Pi class ARM for this architecture.
    text, report = cli.transcribe(big_model, ten_second_wav)
    assert isinstance(text, str)
    assert report.clip_duration == pytest.approx(10.0)
    assert report.rtf > 0
    assert report.rtf == pytest.approx(report.wall_time / report.clip_duration)
    assert set(report.stage_breakdown) == {"features", "forward", "decode"}
    assert all(v >= 0 for v in report.stage_breakdown.values())
    assert sum(report.stage_breakdown.values()) <= report.wall_time + 1e-3


# ---------------------------------------------------------------------------
# 10. Batch-norm folding changes nothing


def test_criterion_10_batchnorm_folding_equivalence():
    worst = 0.0
    for seed in range(10):
        cfg = small_config(vocab_size=5 if seed % 2 else 12)
        weights = net.random_weights(cfg, seed=seed)
        folded = net.fold_batchnorm(cfg, weights)
        feats = np.random.default_rng(seed).normal(
            0, 1, (40, cfg.input_features)).astype(np.float32)
        a = net.forward(cfg, weights, feats)
        b = net.forward(cfg, folded, feats)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-5, worst
