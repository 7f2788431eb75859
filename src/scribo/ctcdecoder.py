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
# Nodes a beam search may add to its prefix trie between compactions.
# The trie and the LM memo otherwise grow with every frame (about 0.2 M
# nodes for 30 s at width 256); each compaction keeps only the live
# beams and their ancestors, so memory stays bounded on long clips.
_TRIE_SLACK = 1 << 14


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


class _PrefixTrie:
    """The prefixes of a beam search, as integer node ids.

    Node 0 is the empty prefix. Parallel lists hold each node's parent
    and last label, and the LM bookkeeping of its text: the number of
    completed words, the summed log10 score of those words, the last
    order-1 of them (the context of the next word) and the word still
    being spelled. A child is created once, through a dict keyed on
    (parent, label) packed into one int, so its state is computed once;
    LM word scores are memoized on (context, word). Both hold until
    `compact` drops the nodes no live beam descends from.
    """

    def __init__(self, alphabet: AlphabetSpec, space_id: int | None, lm):
        self.parent = [-1]
        self.label = [-1]
        self.n_words = [0]
        self.lm_log10 = [0.0]
        self.context: list[tuple[str, ...]] = [()]
        self.pending = [""]
        self._symbols = alphabet.symbols
        self._space = space_id
        self._lm = lm
        self._context_len = lm.order - 1 if lm is not None else 0
        self._children: dict[int, int] = {}
        self._scores: dict[tuple[tuple[str, ...], str], float] = {}

    def score(self, context: tuple[str, ...], word: str) -> float:
        """log10 p(word | context), or 0.0 without an active LM."""
        if self._lm is None:
            return 0.0
        key = (context, word)
        val = self._scores.get(key)
        if val is None:
            val = self._scores[key] = self._lm.score_word(list(context), word)
        return val

    def child(self, node: int, label: int) -> int:
        """Node id of prefix(node) + label, created on first use."""
        key = node * len(self._symbols) + label
        kid = self._children.get(key)
        if kid is not None:
            return kid
        kid = self._children[key] = len(self.parent)
        n_words, lm_log10 = self.n_words[node], self.lm_log10[node]
        context, pending = self.context[node], self.pending[node]
        if label != self._space:
            pending += self._symbols[label]
        elif pending:
            n_words += 1
            lm_log10 += self.score(context, pending)
            context = (context + (pending,))[-self._context_len:] if self._context_len else ()
            pending = ""
        self.parent.append(node)
        self.label.append(label)
        self.n_words.append(n_words)
        self.lm_log10.append(lm_log10)
        self.context.append(context)
        self.pending.append(pending)
        return kid

    def compact(self, live: list[int]) -> np.ndarray:
        """Keep only the live nodes and their ancestors, and forget the
        memoized LM scores. Kept nodes are renumbered in creation order
        (parents before children); returns each old id's new id, -1 for
        a dropped node."""
        keep = [False] * len(self.parent)
        for n in live:
            while n >= 0 and not keep[n]:
                keep[n] = True
                n = self.parent[n]
        old = [i for i, k in enumerate(keep) if k]
        new_id = np.full(len(keep), -1, dtype=np.int64)
        new_id[old] = np.arange(len(old))
        renum = new_id.tolist()
        self.parent = [renum[self.parent[i]] if i else -1 for i in old]
        self.label = [self.label[i] for i in old]
        self.n_words = [self.n_words[i] for i in old]
        self.lm_log10 = [self.lm_log10[i] for i in old]
        self.context = [self.context[i] for i in old]
        self.pending = [self.pending[i] for i in old]
        stride = len(self._symbols)
        self._children = {self.parent[k] * stride + self.label[k]: k
                          for k in range(1, len(old))}
        self._scores.clear()
        return new_id

    def lm_terms(self, nodes: list[int]) -> tuple[list[float], list[int]]:
        """LM log10 sums and completed-word counts of the given nodes."""
        return [self.lm_log10[n] for n in nodes], [self.n_words[n] for n in nodes]

    def labels(self, node: int) -> tuple[int, ...]:
        out = []
        while node > 0:
            out.append(self.label[node])
            node = self.parent[node]
        return tuple(reversed(out))


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
    label. Only the LM and trie bookkeeping is per-beam Python work.
    """
    logits = _check_width(logits, alphabet)
    lm_active = params.lm is not None and params.alpha != 0.0
    space_id = alphabet.index(" ") if " " in alphabet.symbols else None
    if params.lm is not None and space_id is None:
        raise ValueError("LM fusion needs a space symbol in the alphabet")
    lm_weight = params.alpha * LOG10 if lm_active else 0.0
    beta = params.beta
    width = params.beam_width
    blank = alphabet.blank_index
    n_sym = alphabet.size
    trie = _PrefixTrie(alphabet, space_id, params.lm if lm_active else None)
    trie_limit = _TRIE_SLACK

    # The live beams as parallel arrays: trie node, its parent and last
    # label, blank- and non-blank-ending log mass, and the LM sum and
    # word count of the prefix and of its space child.
    nodes = np.zeros(1, dtype=np.int64)
    up = np.full(1, -1)
    last = np.full(1, -1)
    pb = np.zeros(1)
    pnb = np.full(1, _NEG_INF)
    lm_sum = np.zeros(1)
    words = np.zeros(1, dtype=np.int64)
    sp_lm, sp_words = lm_sum.copy(), words.copy()
    if space_id is not None:
        sp_lm[:], sp_words[:] = trie.lm_terms([trie.child(0, space_id)])

    for row in np.asarray(logits, dtype=np.float64):
        n_beams = nodes.size
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

        # the extension spelling a live beam merges into that beam
        by_node = np.argsort(nodes)
        j = by_node[np.minimum(np.searchsorted(nodes, up, sorter=by_node), n_beams - 1)]
        merged = np.flatnonzero(nodes[j] == up)
        dropped = j[merged] * n_sym + last[merged]
        stay_pnb[merged] = np.logaddexp(stay_pnb[merged], grown.ravel()[dropped])

        # candidates: the B beams, then the B x S extensions row-major,
        # each scored as acoustic + alpha*ln(10)*lm + beta*words
        lm_term = lm_weight * lm_sum
        word_term = beta * words
        score = grown + lm_term[:, None]
        score += word_term[:, None]
        if space_id is not None:
            score[:, space_id] = grown[:, space_id] + lm_weight * sp_lm + beta * sp_words
        score = np.concatenate([np.logaddexp(stay_pb, stay_pnb) + lm_term + word_term,
                                score.ravel()])
        live = np.delete(np.arange(score.size), dropped + n_beams)
        if live.size > width:
            neg = -score[live]
            cut = np.partition(neg, width - 1)[width - 1]
            keep = live[neg < cut]
            tied = live[neg == cut]
            if keep.size + tied.size > width:
                def prefix_order(c):
                    if c < n_beams:
                        labels = trie.labels(int(nodes[c]))
                    else:
                        b, s = divmod(c - n_beams, n_sym)
                        labels = trie.labels(int(nodes[b])) + (s,)
                    return len(labels), labels

                tied = np.array(sorted(tied.tolist(), key=prefix_order)[: width - keep.size],
                                dtype=np.int64)
            live = np.concatenate([keep, tied])

        ext = live >= n_beams
        src = np.where(ext, (live - n_beams) // n_sym, live)
        lab = np.where(ext, (live - n_beams) % n_sym, last[src])
        pb = np.where(ext, _NEG_INF, stay_pb[src])
        pnb = np.where(ext, grown[src, lab], stay_pnb[src])
        up = np.where(ext, nodes[src], up[src])
        last = lab
        nodes = nodes[src]
        lm_sum, words = lm_sum[src], words[src]
        sp_lm, sp_words = sp_lm[src], sp_words[src]
        new = np.flatnonzero(ext)
        if new.size:
            kids = [trie.child(n, s) for n, s in zip(up[new].tolist(), lab[new].tolist())]
            nodes[new] = kids
            lm_sum[new], words[new] = trie.lm_terms(kids)
            if space_id is not None:
                sp_lm[new], sp_words[new] = trie.lm_terms(
                    [trie.child(k, space_id) for k in kids])
        if len(trie.parent) > trie_limit:
            new_id = trie.compact(nodes.tolist())
            nodes = new_id[nodes]
            up = np.where(up >= 0, new_id[up], -1)
            trie_limit = len(trie.parent) + _TRIE_SLACK

    hyps = []
    for n, acoustic in zip(nodes.tolist(), np.logaddexp(pb, pnb).tolist()):
        lm_total = trie.lm_log10[n]
        pending = trie.pending[n]
        if lm_active and pending:
            lm_total += trie.score(trie.context[n], pending)
        n_words = trie.n_words[n] + (1 if pending else 0)
        combined = acoustic + lm_weight * lm_total + beta * n_words
        text = "".join(alphabet.symbols[i] for i in trie.labels(n))
        hyps.append(Hypothesis(text, acoustic, lm_total if lm_active else 0.0, combined))
    hyps.sort(key=lambda h: (-h.combined, len(h.text), h.text))
    return hyps
