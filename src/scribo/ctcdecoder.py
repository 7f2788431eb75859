"""CTC decoding: greedy best path and prefix beam search with LM fusion.

Input is a matrix of per-frame log-softmax scores (natural log) with
the blank in the last column. The beam search merges all alignments of
a prefix by tracking blank/non-blank ending probabilities in log space;
an optional word n-gram model is fused at word boundaries.

All tie-breaking is deterministic (lower label index, shorter text,
lexicographic), so equal inputs give equal outputs at any beam width.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lm import NgramModel
from .textnorm import AlphabetSpec

LOG10 = math.log(10.0)
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class DecodeParams:
    """Beam search knobs; alpha/beta follow the shallow-fusion formula
    combined = acoustic + alpha*ln(10)*lm_log10 + beta*word_count."""

    beam_width: int = 256
    alpha: float = 0.8
    beta: float = 1.0
    lm: NgramModel | None = None

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


@dataclass(frozen=True)
class Hypothesis:
    text: str
    acoustic_log: float
    lm_log10: float
    combined: float


def collapse(path, blank_id: int) -> list[int]:
    """Standard CTC collapse: merge adjacent repeats, then drop blanks."""
    out: list[int] = []
    prev = None
    for label in path:
        if label != prev:
            out.append(label)
        prev = label
    return [l for l in out if l != blank_id]


def _check_width(logits, alphabet: AlphabetSpec) -> np.ndarray:
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] != alphabet.size + 1:
        raise ValueError(
            f"logit width {logits.shape} does not match alphabet size {alphabet.size}+blank"
        )
    return logits


def greedy_decode(logits, alphabet: AlphabetSpec) -> str:
    """Per-frame argmax path, collapsed and mapped to graphemes.

    Frame ties go to the lower label index (argmax convention).
    """
    logits = _check_width(logits, alphabet)
    if logits.shape[0] == 0:
        return ""
    path = np.argmax(logits, axis=1)
    labels = collapse(path.tolist(), alphabet.blank_index)
    return "".join(alphabet.symbols[i] for i in labels)


def word_error_rate(reference: str, hypothesis: str) -> float:
    """Word-level Levenshtein distance over reference word count."""
    ref = reference.split()
    hyp = hypothesis.split()
    if not ref:
        raise ValueError("reference must contain at least one word")
    prev = list(range(len(hyp) + 1))
    for i, rw in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, hw in enumerate(hyp, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (rw != hw))
        prev = cur
    return prev[-1] / len(ref)


def _lse(a: float, b: float) -> float:
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass
class _PrefixState:
    """LM bookkeeping for one prefix; a pure function of its text."""

    words: tuple[str, ...] = ()
    pending: str = ""
    lm_log10: float = 0.0


def beam_decode(logits, alphabet: AlphabetSpec, params: DecodeParams) -> list[Hypothesis]:
    """Prefix beam search over CTC labelings.

    Each prefix accumulates the probability of every alignment mapping
    to it, split into blank-ending and non-blank-ending mass. When an
    LM is active its word scores enter at each completed word boundary
    (space) and, once at end of input, for the trailing word; beta adds
    a bonus per counted word. Returns at most beam_width hypotheses,
    best combined score first.
    """
    logits = _check_width(logits, alphabet)
    lm_active = params.lm is not None and params.alpha != 0.0
    space_id = alphabet.index(" ") if " " in alphabet.symbols else None
    if params.lm is not None and space_id is None:
        raise ValueError("LM fusion needs a space symbol in the alphabet")
    lm_weight = params.alpha * LOG10 if lm_active else 0.0
    blank = alphabet.blank_index
    n_symbols = alphabet.size
    symbols = alphabet.symbols

    def extend_state(st: _PrefixState, label: int) -> _PrefixState:
        if label == space_id:
            if not st.pending:
                return st
            delta = 0.0
            if lm_active:
                ctx = list(st.words[-(params.lm.order - 1):]) if params.lm.order > 1 else []
                delta = params.lm.score_word(ctx, st.pending)
            return _PrefixState(st.words + (st.pending,), "", st.lm_log10 + delta)
        return _PrefixState(st.words, st.pending + symbols[label], st.lm_log10)

    beams: dict[tuple[int, ...], list[float]] = {(): [0.0, _NEG_INF]}
    states: dict[tuple[int, ...], _PrefixState] = {(): _PrefixState()}

    for row in logits:
        row = row.tolist()
        cand: dict[tuple[int, ...], list[float]] = {}
        for prefix, (pb, pnb) in beams.items():
            ptot = _lse(pb, pnb)
            entry = cand.get(prefix)
            if entry is None:
                entry = cand[prefix] = [_NEG_INF, _NEG_INF]
            entry[0] = _lse(entry[0], ptot + row[blank])
            last = prefix[-1] if prefix else None
            for s in range(n_symbols):
                p = row[s]
                grown = prefix + (s,)
                gentry = cand.get(grown)
                if gentry is None:
                    gentry = cand[grown] = [_NEG_INF, _NEG_INF]
                    if grown not in states:
                        states[grown] = extend_state(states[prefix], s)
                if s == last:
                    # repeat stays in the prefix; only a blank in between
                    # starts a second copy
                    entry[1] = _lse(entry[1], pnb + p)
                    gentry[1] = _lse(gentry[1], pb + p)
                else:
                    gentry[1] = _lse(gentry[1], ptot + p)

        def rank(item):
            prefix, (pb, pnb) = item
            st = states[prefix]
            score = _lse(pb, pnb) + lm_weight * st.lm_log10 + params.beta * len(st.words)
            return (-score, len(prefix), prefix)

        ordered = sorted(cand.items(), key=rank)[: params.beam_width]
        beams = dict(ordered)
        states = {p: states[p] for p in beams}

    hyps = []
    for prefix, (pb, pnb) in beams.items():
        st = states[prefix]
        acoustic = _lse(pb, pnb)
        lm_total = st.lm_log10
        if lm_active and st.pending:
            ctx = list(st.words[-(params.lm.order - 1):]) if params.lm.order > 1 else []
            lm_total += params.lm.score_word(ctx, st.pending)
        words = len(st.words) + (1 if st.pending else 0)
        combined = acoustic + lm_weight * lm_total + params.beta * words
        text = "".join(symbols[i] for i in prefix)
        hyps.append(Hypothesis(text, acoustic, lm_total if lm_active else 0.0, combined))
    hyps.sort(key=lambda h: (-h.combined, len(h.text), h.text))
    return hyps
