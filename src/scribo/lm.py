"""ARPA n-gram language model: parse, score, perplexity, prune.

Implements standard Katz backoff over the tables of a text ARPA file.
Tokens are interned to integer ids so tuple keys stay small; the model
is immutable after parsing and scoring is read-only, so one instance
can serve any number of threads.

Scores are log10 probabilities throughout, matching the on-disk format.
"""
from __future__ import annotations

import logging
import math
import re
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ArpaError, read_text

log = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

#: log10 probability assigned to OOV words when the model has no <unk>.
DEFAULT_OOV_LOG10 = -8.0

# at most 18 digits: a longer count is no real model, and int() refuses
# strings of more than 4300 digits
_NGRAM_COUNT_RE = re.compile(r"^ngram (\d{1,18})\s*=\s*(\d{1,18})$")


@dataclass(frozen=True)
class LmScore:
    """Total log10 probability of a sequence plus how many words were OOV."""

    log10_total: float
    oov_count: int


class NgramModel:
    """Backoff n-gram model whose vocabulary is its unigrams' tokens.

    ``tables[k]`` maps a k-tuple of token ids to ``(log10_prob,
    backoff_log10)``; entries of the highest order carry a backoff of
    0.0. The model keeps the table dicts it is given, not copies: do not
    mutate them after construction.
    """

    def __init__(self, order: int, tables: list[dict], id_to_token: list[str]):
        if order < 1:
            raise ValueError("model order must be >= 1")
        if len(tables) != order:
            raise ValueError("need one table per order")
        self.order = order
        self.tables: dict[int, dict[tuple[int, ...], tuple[float, float]]] = dict(
            enumerate(tables, 1))
        self.id_to_token = list(id_to_token)
        self.token_to_id = {self.id_to_token[i]: i for (i,) in self.tables[1]}
        self.unk_id = self.token_to_id.get(UNK)

    # -- introspection ------------------------------------------------

    @property
    def vocab(self) -> set[str]:
        return set(self.token_to_id)

    @property
    def total_ngrams(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def __repr__(self):
        counts = ", ".join(f"{k}:{len(t)}" for k, t in self.tables.items())
        return f"NgramModel(order={self.order}, ngrams={{{counts}}})"

    # -- scoring ------------------------------------------------------

    def _score_ids(self, history: tuple[int, ...], wid: int) -> float:
        # Katz: longest stored match wins; each level of shortening adds
        # the history's backoff weight, 0 when the history is unstored.
        # ``wid`` has a unigram, so the loop ends by the empty history.
        acc = 0.0
        while True:
            entry = self.tables[len(history) + 1].get(history + (wid,))
            if entry is not None:
                return acc + entry[0]
            stored = self.tables[len(history)].get(history)
            if stored is not None:
                acc += stored[1]
            history = history[1:]

    def score_word(self, history: Sequence[str], word: str) -> float:
        """Katz-backoff log10 p(word | history).

        The history, any sequence of tokens, is truncated to the last
        order-1 tokens. OOV tokens, those with no unigram, route to <unk>
        when the model has one; else an OOV word scores DEFAULT_OOV_LOG10
        and an OOV history token cuts the context.
        """
        wid = self.token_to_id.get(word, self.unk_id)
        if wid is None:
            return DEFAULT_OOV_LOG10
        ids: list[int] = []
        for tok in history[max(0, len(history) - (self.order - 1)):]:
            tid = self.token_to_id.get(tok, self.unk_id)
            if tid is None:
                ids.clear()
            else:
                ids.append(tid)
        return self._score_ids(tuple(ids), wid)

    def score_sequence(self, words: list[str], with_markers: bool = True) -> LmScore:
        """Sum of per-word scores.

        With markers the sentence start symbol seeds the history (it is
        never scored itself) and the end symbol is scored as a final
        word, so a k-word sentence contributes k+1 scored positions.
        """
        history = [BOS] if with_markers else []
        total = 0.0
        oov = 0
        for word in list(words) + ([EOS] if with_markers else []):
            if word not in self.token_to_id:
                oov += 1
            total += self.score_word(history, word)
            history.append(word)
        return LmScore(total, oov)

    def perplexity(self, words: list[str], with_markers: bool = True) -> float:
        """10^(-log10_total / N) with N counting scored positions."""
        if not words:
            raise ValueError("perplexity of an empty sequence is undefined")
        score = self.score_sequence(words, with_markers)
        n = len(words) + (1 if with_markers else 0)
        return 10.0 ** (-score.log10_total / n)


# ---------------------------------------------------------------------------
# ARPA text format


def _parse_entry(line: str, k: int, highest: bool, lineno: int):
    # prob, k words, optional backoff; tabs and spaces separate fields alike
    parts = line.split()
    head, tokens, tail = parts[0], parts[1:1 + k], parts[1 + k:]
    if len(tokens) != k:
        raise ArpaError(f"line {lineno}: expected {k} tokens")
    if len(tail) > 1 or (highest and tail):
        raise ArpaError(f"line {lineno}: unexpected trailing fields")
    try:
        prob = float(head)
        backoff = float(tail[0]) if tail else 0.0
    except ValueError as exc:
        raise ArpaError(f"line {lineno}: non-numeric probability") from exc
    # NaN fails both comparisons; -inf stays, a zero probability or backoff
    if not (prob < math.inf and backoff < math.inf):
        raise ArpaError(f"line {lineno}: log10 value must be finite or -inf")
    return prob, tuple(tokens), backoff


def parse_arpa(path) -> NgramModel:
    """Parse a text ARPA file into an NgramModel.

    Enforces the header counts and section structure, naming the file in
    every ArpaError and warning; positive log-probabilities, and n-grams
    with no stored prefix or a word with no unigram, are logged, not fatal.
    """
    lines = read_text(path, ArpaError).splitlines()
    try:
        model = _parse_arpa_lines(lines, path)
    except ArpaError as exc:
        raise ArpaError(f"{path}: {exc}") from exc
    _check_prefix_consistency(model, path)
    return model


def _parse_arpa_lines(lines: list[str], path) -> NgramModel:
    it = iter(enumerate(lines, 1))
    for _, line in it:
        if line.strip() == "\\data\\":
            break
    else:
        raise ArpaError(r"missing \data\ header")

    counts: dict[int, int] = {}
    for _, line in it:
        line = line.strip()
        if not line:
            break
        m = _NGRAM_COUNT_RE.match(line)
        if not m:
            raise ArpaError(f"bad count line in \\data\\ section: {line!r}")
        counts[int(m.group(1))] = int(m.group(2))
    if not counts:
        raise ArpaError("empty \\data\\ section")
    # N distinct orders are 1..N exactly when they lie in [1, N]; a range
    # as long as the largest declared order could exhaust memory
    order = len(counts)
    if max(counts) != order or min(counts) != 1:
        raise ArpaError("non-contiguous n-gram orders in header")

    interner: dict[str, int] = {}
    raw_tables: list[dict[tuple[int, ...], tuple[float, float]]] = [{} for _ in range(order)]

    current_k = 0
    saw_end = False
    for lineno, line in it:
        line = line.strip()
        if not line:
            continue
        if line == "\\end\\":
            saw_end = True
            break
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                current_k = int(line[1:-len("-grams:")])
            except ValueError:
                raise ArpaError(f"line {lineno}: bad section header {line!r}") from None
            if current_k not in counts:
                raise ArpaError(f"line {lineno}: section \\{current_k}-grams: not in header")
            continue
        if current_k == 0:
            raise ArpaError(f"line {lineno}: entry before any n-gram section")
        prob, tokens, backoff = _parse_entry(line, current_k, current_k == order, lineno)
        if prob > 0.0:
            log.warning("%s: line %d: positive log-probability %g kept as-is", path, lineno, prob)
        key = tuple(interner.setdefault(t, len(interner)) for t in tokens)
        if key in raw_tables[current_k - 1]:
            raise ArpaError(f"line {lineno}: duplicate {current_k}-gram {' '.join(tokens)!r}")
        raw_tables[current_k - 1][key] = (prob, backoff)

    if not saw_end:
        raise ArpaError(r"missing \end\ marker")
    for k in range(1, order + 1):
        if len(raw_tables[k - 1]) != counts[k]:
            raise ArpaError(
                f"header declares {counts[k]} {k}-grams but file has {len(raw_tables[k - 1])}"
            )

    # interned ids count up from 0 in insertion order
    return NgramModel(order, raw_tables, list(interner))


def _check_prefix_consistency(model: NgramModel, path) -> None:
    """Log how many n-grams have no stored prefix or a word with no unigram."""
    words = set(model.token_to_id.values())
    bad = 0
    for k in range(2, model.order + 1):
        lower = model.tables[k - 1]
        for key in model.tables[k]:
            if key[:-1] not in lower or not words.issuperset(key):
                bad += 1
    if bad:
        log.warning("%s: %d n-grams have no stored prefix or a word with no unigram", path, bad)


def serialize_arpa(model: NgramModel, path) -> None:
    """Write the model back out as a text ARPA file.

    Sections run 1..N with entries sorted lexicographically by token
    strings; floats use repr so a parse round trip is exact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for k in range(1, model.order + 1):
            fh.write(f"ngram {k}={len(model.tables[k])}\n")
        for k in range(1, model.order + 1):
            fh.write(f"\n\\{k}-grams:\n")
            entries = sorted(
                model.tables[k].items(),
                key=lambda kv: tuple(model.id_to_token[i] for i in kv[0]),
            )
            for key, (prob, backoff) in entries:
                tokens = " ".join(model.id_to_token[i] for i in key)
                tail = f"\t{backoff!r}" if k < model.order else ""
                fh.write(f"{prob!r}\t{tokens}{tail}\n")
        fh.write("\n\\end\\\n")


def prune_model(model: NgramModel, max_ngrams: int) -> NgramModel:
    """Drop higher-order entries until at most max_ngrams remain.

    Unigrams are never pruned. Candidates go lowest probability first
    (ties: higher order first, then token order), and dropping an entry
    also drops every stored extension of it, so the result keeps ARPA
    prefix consistency. Stored probabilities and backoffs are copied
    unchanged; the pruned model is a smaller approximation.
    """
    if max_ngrams < len(model.tables[1]):
        raise ValueError(
            f"max_ngrams={max_ngrams} is below the unigram count {len(model.tables[1])}"
        )

    def tokens_of(key):
        return tuple(model.id_to_token[i] for i in key)

    candidates = sorted(
        (prob, -k, tokens_of(key), k, key)
        for k in range(2, model.order + 1)
        for key, (prob, _) in model.tables[k].items()
    )
    # children[k][prefix] lists the stored (k+1)-grams extending prefix
    children: dict[int, dict] = {k: defaultdict(list) for k in range(2, model.order + 1)}
    for k in range(2, model.order + 1):
        for key in model.tables[k]:
            children[k][key[:-1]].append(key)

    kept = {k: set(model.tables[k]) for k in range(1, model.order + 1)}
    excess = model.total_ngrams - max_ngrams
    it = iter(candidates)
    while excess > 0:
        _, _, _, k, key = next(it)  # cannot exhaust: unigrams alone fit
        if key not in kept[k]:
            continue
        stack = [(k, key)]
        while stack:
            k2, key2 = stack.pop()
            kept[k2].remove(key2)
            excess -= 1
            for ext in children.get(k2 + 1, {}).get(key2, ()):
                if ext in kept[k2 + 1]:
                    stack.append((k2 + 1, ext))
    tables = [
        {key: val for key, val in model.tables[k].items() if key in kept[k]}
        for k in range(1, model.order + 1)
    ]
    return NgramModel(model.order, tables, model.id_to_token)
