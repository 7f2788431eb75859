"""Frozen reference for ``scribo.ctcdecoder.beam_decode``.

This is the original pure-Python prefix beam search (tuple-keyed
prefixes, one state object per prefix, a full sort of every candidate
each frame), kept verbatim so the vectorized decoder can be required to
return the very same hypotheses, in the same order, with the same
float scores. Do not optimize it: its only job is to be obviously
right.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scribo.ctcdecoder import DecodeParams, Hypothesis
from scribo.textnorm import AlphabetSpec

LOG10 = math.log(10.0)
_NEG_INF = float("-inf")


def _check_width(logits, alphabet: AlphabetSpec) -> np.ndarray:
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] != alphabet.size + 1:
        raise ValueError(
            f"logit width {logits.shape} does not match alphabet size {alphabet.size}+blank"
        )
    return logits


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


def reference_beam_decode(logits, alphabet: AlphabetSpec, params: DecodeParams) -> list[Hypothesis]:
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
