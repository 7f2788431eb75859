"""Greedy and prefix beam search decoding against exact oracles."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scribo.ctcdecoder import (DecodeParams, Hypothesis, beam_decode, collapse,
                               greedy_decode, word_error_rate)
from scribo.lm import NgramModel, parse_arpa
from scribo.textnorm import ALPHABETS, AlphabetSpec

from beam_reference import reference_beam_decode

ABC = AlphabetSpec(symbols="abc")


def log_softmax_rows(raw):
    raw = np.asarray(raw, dtype=np.float64)
    return raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))


def brute_force_best(logits, blank):
    """Exact CTC posterior argmax by enumerating every alignment."""
    T, W = logits.shape
    scores = {}
    for path in itertools.product(range(W), repeat=T):
        lp = sum(logits[t, s] for t, s in enumerate(path))
        key = tuple(collapse(list(path), blank))
        scores[key] = np.logaddexp(scores.get(key, -np.inf), lp)
    # mirror the decoder tie-break: shorter, then lexicographic
    best = max(scores.items(), key=lambda kv: (kv[1], -len(kv[0]), kv[0]))
    return best


# ----------------------------------------------------------------- collapse

def test_collapse_examples():
    a, b, blank = 0, 1, 9
    assert collapse([a, a, blank, b], blank) == [a, b]
    assert collapse([blank, blank], blank) == []
    assert collapse([a, blank, a], blank) == [a, a]


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
def test_collapse_idempotent_unless_blank_split_repeats(path):
    blank = 3
    once = collapse(path, blank)
    assert blank not in once
    if all(x != y for x, y in zip(once, once[1:])):
        assert collapse(once, blank) == once
    else:
        # a blank separated equal labels; re-collapsing merges them,
        # so collapse is not idempotent on such outputs by design
        assert collapse(once, blank) != once


# ------------------------------------------------------------------- greedy

def test_greedy_all_blank_is_empty():
    logits = np.full((4, 4), -10.0)
    logits[:, 3] = -0.01
    assert greedy_decode(logits, ABC) == ""


def test_greedy_collapse_path():
    rows = []
    for label in (0, 0, 3, 1):
        row = np.full(4, -9.0)
        row[label] = -0.1
        rows.append(row)
    assert greedy_decode(np.array(rows), ABC) == "ab"


def test_greedy_tie_takes_lower_index():
    row = np.array([[-1.0, -1.0, -5.0, -5.0]])
    assert greedy_decode(row, ABC) == "a"


def test_greedy_empty_input():
    assert greedy_decode(np.zeros((0, 4)), ABC) == ""


def test_greedy_width_mismatch():
    with pytest.raises(ValueError):
        greedy_decode(np.zeros((3, 5)), ABC)


# -------------------------------------------------------------- beam search

def test_beam_matches_brute_force_on_fixed_matrix():
    rng = np.random.default_rng(0)
    logits = log_softmax_rows(rng.normal(0, 2, (4, 4)))
    key, score = brute_force_best(logits, ABC.blank_index)
    hyp = beam_decode(logits, ABC, DecodeParams(beam_width=1024, beta=0.0))[0]
    assert hyp.text == "".join(ABC.symbols[i] for i in key)
    assert hyp.combined == pytest.approx(score, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_beam_oracle_random_instances(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 7))
    V = int(rng.integers(1, 5))
    logits = log_softmax_rows(rng.normal(0, 2, (T, V + 1)))
    alphabet = AlphabetSpec(symbols="abcd"[:V])
    key, score = brute_force_best(logits, alphabet.blank_index)
    params = DecodeParams(beam_width=(V + 1) ** T, beta=0.0)
    hyp = beam_decode(logits, alphabet, params)[0]
    assert hyp.text == "".join(alphabet.symbols[i] for i in key)
    assert hyp.combined == pytest.approx(score, abs=1e-9)


def test_beam_monotone_in_width():
    rng = np.random.default_rng(5)
    logits = log_softmax_rows(rng.normal(0, 1.5, (12, 5)))
    alphabet = AlphabetSpec(symbols="abcd")
    best = -np.inf
    for width in (1, 2, 4, 8, 16, 64, 256):
        hyp = beam_decode(logits, alphabet, DecodeParams(beam_width=width, beta=0.0))[0]
        assert hyp.combined >= best - 1e-12
        best = hyp.combined


def test_beam_sorted_and_bounded():
    rng = np.random.default_rng(11)
    logits = log_softmax_rows(rng.normal(0, 1, (6, 4)))
    hyps = beam_decode(logits, ABC, DecodeParams(beam_width=7))
    assert len(hyps) <= 7
    scores = [h.combined for h in hyps]
    assert scores == sorted(scores, reverse=True)


def test_beam_deterministic():
    rng = np.random.default_rng(2)
    logits = log_softmax_rows(rng.normal(0, 1, (8, 4)))
    a = beam_decode(logits, ABC, DecodeParams(beam_width=16))
    b = beam_decode(logits, ABC, DecodeParams(beam_width=16))
    assert a == b


def test_beam_width_validation():
    with pytest.raises(ValueError):
        DecodeParams(beam_width=0)


@pytest.mark.parametrize("width", [2.5, True, "8"], ids=repr)
def test_beam_width_must_be_an_integer(width):
    # 2.5 failed mid-decode in numpy's partition; True searched at width 1
    with pytest.raises(ValueError, match="beam_width must be an integer >= 1"):
        DecodeParams(beam_width=width)


@pytest.mark.parametrize("weights", [{"alpha": math.nan}, {"alpha": math.inf},
                                     {"beta": math.nan}, {"beta": math.inf},
                                     {"beta": -math.inf}], ids=repr)
def test_fusion_weights_must_be_finite(weights):
    with pytest.raises(ValueError, match="finite"):
        DecodeParams(**weights)


def test_alpha_must_not_be_negative():
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        DecodeParams(alpha=-1.0)


def test_beam_counts_words_in_combined():
    sp = AlphabetSpec(symbols=" ab")
    rows = []
    for label in (1, 0, 2, 3):   # "a b" then blank
        row = np.full(4, -9.0)
        row[label] = -0.01
        rows.append(row)
    hyp = beam_decode(np.array(rows), sp, DecodeParams(beam_width=4, beta=0.5))[0]
    assert hyp.text == "a b"
    assert hyp.combined == pytest.approx(hyp.acoustic_log + 0.5 * 2, abs=1e-9)


# ---------------------------------------------------------------- LM fusion

UNIGRAM_ARPA = """\\data\\
ngram 1=3

\\1-grams:
-0.05\ta
-2.0\tb
-2.0\t<unk>

\\end\\
"""


@pytest.fixture
def unigram_lm(tmp_path):
    f = tmp_path / "uni.arpa"
    f.write_text(UNIGRAM_ARPA)
    return parse_arpa(f)


def near_tie_logits():
    # single frame: "b" acoustically just ahead of "a"
    row = np.log(np.array([[0.01, 0.45, 0.46, 0.08]]))
    return row


def test_lm_flips_near_tie(unigram_lm):
    sp = AlphabetSpec(symbols=" ab")
    logits = near_tie_logits()
    no_lm = beam_decode(logits, sp, DecodeParams(beam_width=8))[0]
    assert no_lm.text == "b"

    fused = beam_decode(
        logits, sp, DecodeParams(beam_width=8, alpha=0.8, beta=1.0, lm=unigram_lm)
    )
    assert fused[0].text == "a"
    # hand-checked combined: ln p(a) + alpha ln(10) lm + beta
    want = math.log(0.45) + 0.8 * math.log(10) * -0.05 + 1.0
    assert fused[0].combined == pytest.approx(want, abs=1e-9)
    assert fused[0].lm_log10 == pytest.approx(-0.05, abs=1e-12)


def test_lm_scores_trailing_word_once(unigram_lm):
    sp = AlphabetSpec(symbols=" ab")
    rows = []
    for label in (1, 0, 2):   # "a b": completed "a", trailing "b"
        row = np.full(4, -8.0)
        row[label] = -0.01
        rows.append(row)
    hyp = beam_decode(
        np.array(rows), sp, DecodeParams(beam_width=8, alpha=1.0, beta=0.0, lm=unigram_lm)
    )[0]
    assert hyp.text == "a b"
    assert hyp.lm_log10 == pytest.approx(-0.05 + -2.0, abs=1e-12)


def test_disabled_fusion_identical_to_no_lm(unigram_lm):
    sp = AlphabetSpec(symbols=" ab")
    rng = np.random.default_rng(9)
    logits = log_softmax_rows(rng.normal(0, 1.5, (7, 4)))
    plain = beam_decode(logits, sp, DecodeParams(beam_width=16, alpha=0.0, beta=0.0))
    fused = beam_decode(
        logits, sp, DecodeParams(beam_width=16, alpha=0.0, beta=0.0, lm=unigram_lm)
    )
    assert plain == fused


def test_lm_requires_space_symbol(unigram_lm):
    logits = np.zeros((2, 4))
    with pytest.raises(ValueError):
        beam_decode(logits, ABC, DecodeParams(beam_width=4, lm=unigram_lm))


# ------------------------------------------------- against the frozen reference

# the parsed form of UNIGRAM_ARPA, built directly so hypothesis tests
# need no file fixture
UNIGRAM_LM = NgramModel(1, [{(0,): (-0.05, 0.0), (1,): (-2.0, 0.0), (2,): (-2.0, 0.0)}],
                        ["a", "b", "<unk>"])


def small_trigram(words=("a", "b", "c", "ab", "ba", "ca", "bc")):
    """A trigram model with backoff weights and no <unk>, so the search
    meets stored trigrams, backoff through stored and unstored
    histories, OOV words at the floor and OOV history tokens."""
    rng = np.random.default_rng(42)
    n = len(words)
    uni = {(i,): (float(-rng.uniform(0.2, 2.0)), float(-rng.uniform(0.0, 0.8)))
           for i in range(n)}
    bi = {(i, j): (float(-rng.uniform(0.1, 1.5)), float(-rng.uniform(0.0, 0.5)))
          for i in range(n) for j in range(n) if (i + 2 * j) % 3 == 0}
    tri = {(i, j, k): (float(-rng.uniform(0.05, 1.0)), 0.0)
           for (i, j) in bi for k in range(n) if (i + j + k) % 2 == 0}
    return NgramModel(3, [uni, bi, tri], list(words))


TRIGRAM_LM = small_trigram()


class CountingLm:
    """Exposes only what the decoder may use (order and score_word) and
    counts each (history, word) it is asked for."""

    def __init__(self, model):
        self.order = model.order
        self._model = model
        self.calls: dict[tuple, int] = {}

    def score_word(self, history, word):
        key = (tuple(history), word)
        self.calls[key] = self.calls.get(key, 0) + 1
        return self._model.score_word(history, word)


def random_logits(seed, frames, width, rounded=False):
    rng = np.random.default_rng(seed)
    logits = log_softmax_rows(rng.normal(0, 2, (frames, width)))
    # integer-valued rows tie many candidates at the beam cutoff
    return np.round(logits) if rounded else logits


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(0, 10), vocab=st.integers(1, 4),
       with_space=st.booleans(), width=st.integers(1, 64),
       alpha=st.floats(0.0, 2.0), beta=st.floats(-1.0, 2.0),
       lm=st.sampled_from([None, UNIGRAM_LM, TRIGRAM_LM]), rounded=st.booleans())
# a beam's parent prefix is dropped and re-created by another beam, so
# merges must find a parent by its content, not by which beam made it
@example(seed=28, frames=6, vocab=3, with_space=False, width=28, alpha=0.8, beta=1.0,
         lm=None, rounded=True)
def test_beam_decode_matches_reference(seed, frames, vocab, with_space, width, alpha, beta,
                                       lm, rounded):
    symbols = (" " + "abc"[:vocab - 1]) if with_space else "abcd"[:vocab]
    alphabet = AlphabetSpec(tuple(symbols))
    logits = random_logits(seed, frames, vocab + 1, rounded)
    params = DecodeParams(beam_width=width, alpha=alpha, beta=beta,
                          lm=lm if with_space else None)
    assert beam_decode(logits, alphabet, params) == reference_beam_decode(logits, alphabet,
                                                                          params)


def benchmark_shaped_logits(seed, frames):
    """28 symbols plus blank, with blank, space and a-c favoured, so
    hypotheses spell words the trigram model knows."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(0, 2, (frames, 29))
    raw[:, [0, 1, 2, 3]] += 1.5
    raw[:, 28] += 2.0
    return log_softmax_rows(raw).astype(np.float32)


def test_benchmark_shaped_case_matches_reference():
    logits = benchmark_shaped_logits(7, 100)
    params = DecodeParams(beam_width=256, alpha=0.8, beta=1.0, lm=TRIGRAM_LM)
    got = beam_decode(logits, ALPHABETS["en"], params)
    assert len(got) == 256
    assert got == reference_beam_decode(logits, ALPHABETS["en"], params)


@pytest.mark.parametrize("seed", range(4))
def test_lm_scored_no_more_often_than_by_reference(seed):
    logits = benchmark_shaped_logits(seed, 30)
    ours, theirs = CountingLm(TRIGRAM_LM), CountingLm(TRIGRAM_LM)
    got = beam_decode(logits, ALPHABETS["en"], DecodeParams(beam_width=32, lm=ours))
    want = reference_beam_decode(logits, ALPHABETS["en"], DecodeParams(beam_width=32, lm=theirs))
    assert got == want
    assert sum(ours.calls.values()) <= sum(theirs.calls.values())


@pytest.mark.parametrize("seed", range(6))
def test_beam_with_trigram_lm_matches_reference(seed):
    if seed < 4:
        alphabet, logits, width = AlphabetSpec(tuple(" ab")), random_logits(seed, 12, 4, seed % 2), 16
    else:
        alphabet, logits, width = ALPHABETS["en"], benchmark_shaped_logits(seed, 40), 64
    ours, theirs = CountingLm(TRIGRAM_LM), CountingLm(TRIGRAM_LM)
    got = beam_decode(logits, alphabet, DecodeParams(beam_width=width, lm=ours))
    assert got == reference_beam_decode(logits, alphabet, DecodeParams(beam_width=width, lm=theirs))
    assert sum(ours.calls.values()) <= sum(theirs.calls.values())


def test_long_decode_holds_no_per_clip_cache():
    # a cache that grows with the clip (a memo of LM scores took 3.5 MiB
    # here) would fail the bound; the beams themselves take about 0.3 MiB
    logits = benchmark_shaped_logits(0, 1000)
    params = DecodeParams(beam_width=8, lm=TRIGRAM_LM)
    tracemalloc.start()
    try:
        beam_decode(logits, ALPHABETS["en"], params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("lm", [None, UNIGRAM_LM])
def test_beam_zero_frames(lm):
    sp = AlphabetSpec(symbols=" ab")
    params = DecodeParams(beam_width=8, alpha=0.8, beta=1.0, lm=lm)
    assert beam_decode(np.zeros((0, 4)), sp, params) == [Hypothesis("", 0.0, 0.0, 0.0)]


def test_beam_float32_decodes_like_float64_upcast():
    logits = benchmark_shaped_logits(3, 40)
    params = DecodeParams(beam_width=64, alpha=0.8, beta=1.0, lm=TRIGRAM_LM)
    alphabet = ALPHABETS["en"]
    assert beam_decode(logits, alphabet, params) == beam_decode(
        logits.astype(np.float64), alphabet, params)


# ---------------------------------------------------------------------- WER

def test_wer_identity():
    assert word_error_rate("a b c", "a b c") == 0.0


def test_wer_one_substitution():
    assert word_error_rate("a b c", "a x c") == pytest.approx(1 / 3)


def test_wer_all_deletions():
    assert word_error_rate("a b", "") == 1.0


def test_wer_insertions_exceed_one():
    assert word_error_rate("a", "a b c") == 2.0


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError):
        word_error_rate("   ", "a")


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=6),
       st.lists(st.sampled_from("ab"), max_size=6))
def test_wer_nonnegative(ref, hyp):
    assert word_error_rate(" ".join(ref), " ".join(hyp)) >= 0.0
