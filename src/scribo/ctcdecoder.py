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

from .errors import check_fields
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
        check_fields(self)
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
    path = np.argmax(_check_width(logits, alphabet), axis=1)
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




def beam_decode(logits, alphabet: AlphabetSpec, params: DecodeParams) -> list[Hypothesis]:
    """Prefix beam search over CTC labelings (Hannun et al. 2014).

    Each prefix accumulates the probability of every alignment mapping
    to it, split into blank-ending and non-blank-ending mass. When an
    LM is active its word scores enter at each completed word boundary
    (space) and, once at end of input, for the trailing word; beta adds
    a bonus per counted word. Returns at most beam_width hypotheses,
    best combined score first.

    Per frame the B live beams and their B x S one-symbol extensions
    are scored with numpy and the best beam_width kept; candidates
    tied at the cutoff go shorter prefix first, then lexicographic by
    label. Only the LM state of the new beams is per-beam Python work.
    """
    logits = _check_width(logits, alphabet)
    lm = params.lm if params.alpha != 0.0 else None
    space_id = alphabet.index(" ") if " " in alphabet.symbols else None
    if params.lm is not None and space_id is None:
        raise ValueError("LM fusion needs a space symbol in the alphabet")
    lm_weight = params.alpha * LOG10 if lm is not None else 0.0
    beta = params.beta
    width = params.beam_width
    blank = alphabet.blank_index
    n_sym = alphabet.size
    symbols = alphabet.symbols
    context_len = lm.order - 1 if lm is not None else 0

    # The live beams as parallel arrays: the prefix as a string of label
    # code points, the prefix it extends (None for the empty one) and its
    # last label, blank- and non-blank-ending log mass, and the LM state
    # of its text: the log10 sum and count of its completed words, the
    # last order-1 of them and the word still being spelled. sp_lm and
    # sp_words are the sum and count once that word ends too, as in its
    # space extension and in its hypothesis at end of input.
    prefix = np.array([""], dtype=object)
    parent = np.array([None], dtype=object)
    context = np.empty(1, dtype=object)
    context[0] = ()
    pending = prefix.copy()
    last = np.full(1, -1)
    pb = np.zeros(1)
    pnb = np.full(1, _NEG_INF)
    lm_sum = np.zeros(1)
    words = np.zeros(1, dtype=np.int64)
    sp_lm, sp_words = lm_sum.copy(), words.copy()

    for row in np.asarray(logits, dtype=np.float64):
        n_beams = prefix.size
        p = row[:n_sym]
        ptot = np.logaddexp(pb, pnb)
        grown = ptot[:, None] + p
        # a repeated label extends the prefix only across a blank
        rep = np.flatnonzero(last >= 0)
        p_rep = p[last[rep]]
        grown[rep, last[rep]] = pb[rep] + p_rep
        stay_pb = ptot + row[blank]
        stay_pnb = np.full(n_beams, _NEG_INF)
        stay_pnb[rep] = pnb[rep] + p_rep

        # the extension spelling a live beam merges into that beam; a
        # parent that is live holds the very prefix object, so each
        # lookup is a hit on identity
        index = dict(zip(prefix.tolist(), range(n_beams)))
        j = np.array([index.get(u, -1) for u in parent.tolist()])
        merged = np.flatnonzero(j >= 0)
        dropped = j[merged] * n_sym + last[merged]
        stay_pnb[merged] = np.logaddexp(stay_pnb[merged], grown.ravel()[dropped])

        # candidates: the B beams, then the B x S extensions row-major,
        # each scored as acoustic + alpha*ln(10)*lm + beta*words
        lm_term = lm_weight * lm_sum
        word_term = beta * words
        score_all = grown + lm_term[:, None]
        score_all += word_term[:, None]
        if space_id is not None:
            score_all[:, space_id] = grown[:, space_id] + lm_weight * sp_lm + beta * sp_words
        score_all = np.concatenate([np.logaddexp(stay_pb, stay_pnb) + lm_term + word_term,
                                    score_all.ravel()])
        live = np.delete(np.arange(score_all.size), dropped + n_beams)
        if live.size > width:
            neg = -score_all[live]
            cut = np.partition(neg, width - 1)[width - 1]
            keep = live[neg < cut]
            tied = live[neg == cut]
            if keep.size + tied.size > width:
                def prefix_order(c):
                    if c < n_beams:
                        text = prefix[c]
                    else:
                        b, s = divmod(c - n_beams, n_sym)
                        text = prefix[b] + chr(s)
                    return len(text), text

                tied = np.array(sorted(tied.tolist(), key=prefix_order)[: width - keep.size],
                                dtype=np.int64)
            live = np.concatenate([keep, tied])

        ext = live >= n_beams
        src = np.where(ext, (live - n_beams) // n_sym, live)
        lab = np.where(ext, (live - n_beams) % n_sym, last[src])
        pb = np.where(ext, _NEG_INF, stay_pb[src])
        pnb = np.where(ext, grown[src, lab], stay_pnb[src])
        parent = np.where(ext, prefix[src], parent[src])
        last = lab
        prefix, context, pending = prefix[src], context[src], pending[src]
        lm_sum, words = lm_sum[src], words[src]
        sp_lm, sp_words = sp_lm[src], sp_words[src]
        # each new beam derives its LM state from its source beam's: a
        # letter extends the pending word, a space after a word takes
        # the source's sp terms and moves the word into the context
        new = np.flatnonzero(ext)
        for i, s in zip(new.tolist(), lab[new].tolist()):
            prefix[i] += chr(s)
            if s != space_id:
                pending[i] += symbols[s]
                sp_words[i] = words[i] + 1
                if lm is not None:
                    sp_lm[i] = lm_sum[i] + lm.score_word(context[i], pending[i])
            elif pending[i]:
                lm_sum[i], words[i] = sp_lm[i], sp_words[i]
                context[i] = (context[i] + (pending[i],))[-context_len:] if context_len else ()
                pending[i] = ""

    hyps = []
    for text, acoustic, lm_total, n_words in zip(prefix.tolist(), np.logaddexp(pb, pnb).tolist(),
                                                 sp_lm.tolist(), sp_words.tolist()):
        combined = acoustic + lm_weight * lm_total + beta * n_words
        hyps.append(Hypothesis("".join(symbols[ord(c)] for c in text), acoustic,
                               lm_total if lm is not None else 0.0, combined))
    hyps.sort(key=lambda h: (-h.combined, len(h.text), h.text))
    return hyps
