"""Rule-driven transcript normalization.

Turns raw transcripts into clean lowercase text restricted to a target
alphabet: numbers become words, known unit tokens are expanded to their
spoken form, diacritics are flattened via replacement rules, and
everything else outside the alphabet is dropped.

Rules live in per-language JSON files (see ``rules/``); the pipeline is
deterministic and idempotent, so normalizing twice equals normalizing
once.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .errors import RuleFileError, ScriboError, check_fields, read_json

# Token is an integer amount with "." or "," thousands separators.
_THOUSANDS_RE = re.compile(r"^\d{1,3}(?:[.,]\d{3})+$")
_INT_RE = re.compile(r"^\d+$")
_DIGIT_RUN_RE = re.compile(r"\d+")
_WS_RE = re.compile(r"\s+")

MAX_SPELLED_NUMBER = 10**12


@dataclass(frozen=True)
class AlphabetSpec:
    """Ordered grapheme list for a decoder output layer.

    The CTC blank is implicit: it is not a member of ``symbols`` and
    always sits at index ``len(symbols)`` (last output column).
    """

    symbols: tuple[str, ...]
    blank_index: int = -1

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        for sym in self.symbols:
            if not isinstance(sym, str) or len(sym) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {sym!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be unique")
        if type(self.blank_index) is int and self.blank_index == -1:  # the default
            object.__setattr__(self, "blank_index", len(self.symbols))
        check_fields(self)
        if self.blank_index != len(self.symbols):
            raise ValueError("blank_index must equal len(symbols) (blank is last)")

    @property
    def size(self) -> int:
        """Number of real symbols, excluding the blank."""
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    @classmethod
    def from_object(cls, raw) -> "AlphabetSpec":
        """An AlphabetSpec from parsed JSON: its keyword arguments,
        ``{"symbols": [...]}`` with one string per symbol and optionally
        ``blank_index``. Any other shape raises TypeError or ValueError."""
        if not isinstance(raw, dict) or not isinstance(raw.get("symbols"), list):
            raise ValueError('an alphabet must be an object {"symbols": [...]} '
                             'with one string per symbol')
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str | Path) -> "AlphabetSpec":
        """Read an alphabet file, which holds what from_object takes: the
        ``alphabet`` section of a saved model is one too."""
        raw = read_json(path, ScriboError)
        try:
            return cls.from_object(raw)
        except (TypeError, ValueError) as exc:
            raise ScriboError(f"{path}: invalid alphabet: {exc}") from exc


# Latin a-z plus space and apostrophe, the usual English CTC alphabet.
_EN_SYMBOLS = tuple(" abcdefghijklmnopqrstuvwxyz'")

#: Built-in alphabets. German/French/Italian collapse onto the English
#: set once diacritics are transliterated; Spanish keeps its extra ñ.
ALPHABETS: dict[str, AlphabetSpec] = {
    "en": AlphabetSpec(_EN_SYMBOLS),
    "de": AlphabetSpec(_EN_SYMBOLS),
    "fr": AlphabetSpec(_EN_SYMBOLS),
    "it": AlphabetSpec(_EN_SYMBOLS),
    "es": AlphabetSpec(_EN_SYMBOLS + ("ñ",)),
}


@dataclass(frozen=True)
class NormRules:
    """Normalization rules for one language: ``replacements`` are
    [pattern, replacement] string pairs applied in order, ``units`` maps
    unit tokens to their spoken form, ``number_language`` names a number
    spelling table and ``lowercase`` says whether to lowercase first."""

    replacements: tuple[tuple[str, str], ...] = ()
    units: dict[str, str] = field(default_factory=dict)
    number_language: str = "en"
    lowercase: bool = True

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.replacements, (list, tuple)):
            raise ValueError("replacements must be an array")
        for i, pair in enumerate(self.replacements):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and isinstance(pair[0], str) and isinstance(pair[1], str) and pair[0]):
                raise ValueError(f"replacements[{i}] must be a [pattern, replacement] "
                                 "string pair")
        object.__setattr__(self, "replacements", tuple(map(tuple, self.replacements)))
        if not isinstance(self.units, dict) or not all(
            isinstance(k, str) and k and isinstance(v, str) for k, v in self.units.items()
        ):
            raise ValueError("units must map unit tokens to spoken-form strings")
        if self.number_language not in _NUMBER_TABLES:
            raise ValueError(f"number_language must be one of {sorted(_NUMBER_TABLES)}, "
                             f"got {self.number_language!r}")


def load_rules(path: str | Path) -> NormRules:
    """Load a JSON rule file: an object holding NormRules' keyword
    arguments. A file that breaks them raises RuleFileError naming it."""
    raw = read_json(path, RuleFileError)
    try:
        if not isinstance(raw, dict):
            raise ValueError("rule file must be a JSON object")
        return NormRules(**raw)
    except (TypeError, ValueError) as exc:
        raise RuleFileError(f"{path}: {exc}") from exc


def shipped_rules(lang: str) -> NormRules:
    """Load one of the rule files bundled with the package."""
    return load_rules(Path(__file__).parent / "rules" / f"{lang}.json")


# ---------------------------------------------------------------------------
# Number spelling


_EN_ONES = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_EN_TENS = ("", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety")
_EN_SCALES = ((10**12, "trillion"), (10**9, "billion"), (10**6, "million"), (10**3, "thousand"))


def _en_below_thousand(n: int) -> list[str]:
    parts = []
    if n >= 100:
        parts += [_EN_ONES[n // 100], "hundred"]
        n %= 100
    if n >= 20:
        parts.append(_EN_TENS[n // 10])
        if n % 10:
            parts.append(_EN_ONES[n % 10])
    elif n:
        parts.append(_EN_ONES[n])
    return parts


def _en_number(n: int) -> str:
    if n == 0:
        return "zero"
    parts: list[str] = []
    for value, name in _EN_SCALES:
        if n >= value:
            parts += _en_below_thousand(n // value) + [name]
            n %= value
    parts += _en_below_thousand(n)
    return " ".join(parts)


_DE_ONES = (
    "null eins zwei drei vier fünf sechs sieben acht neun zehn elf zwölf "
    "dreizehn vierzehn fünfzehn sechzehn siebzehn achtzehn neunzehn"
).split()
_DE_TENS = ("", "", "zwanzig", "dreißig", "vierzig", "fünfzig", "sechzig", "siebzig", "achtzig", "neunzig")
# (scale, singular, plural); "eine million" but "zwei millionen"
_DE_SCALES = (
    (10**12, "billion", "billionen"),
    (10**9, "milliarde", "milliarden"),
    (10**6, "million", "millionen"),
)


def _de_below_hundred(n: int, final: bool) -> str:
    # final distinguishes standalone "eins" from the compound form "ein"
    if n == 0:
        return ""
    if n == 1:
        return "eins" if final else "ein"
    if n < 20:
        return _DE_ONES[n]
    tens, ones = divmod(n, 10)
    if ones == 0:
        return _DE_TENS[tens]
    one_word = "ein" if ones == 1 else _DE_ONES[ones]
    return one_word + "und" + _DE_TENS[tens]


def _de_below_thousand(n: int, final: bool) -> str:
    hundreds, rest = divmod(n, 100)
    word = ""
    if hundreds:
        word += ("ein" if hundreds == 1 else _DE_ONES[hundreds]) + "hundert"
    word += _de_below_hundred(rest, final)
    return word


def _de_number(n: int) -> str:
    if n == 0:
        return "null"
    words: list[str] = []
    for value, singular, plural in _DE_SCALES:
        count, n = divmod(n, value)
        if count == 1:
            words += ["eine", singular]
        elif count:
            words += [_de_below_thousand(count, final=True), plural]
    thousands, rest = divmod(n, 1000)
    tail = ""
    if thousands:
        tail += ("ein" if thousands == 1 else _de_below_thousand(thousands, final=False)) + "tausend"
    if rest:
        tail += _de_below_thousand(rest, final=True)
    if tail:
        words.append(tail)
    return " ".join(words)


_NUMBER_TABLES = {"en": _en_number, "de": _de_number}


def number_to_words(n: int, lang: str) -> str:
    """Spell a cardinal number in the given language.

    Supports 0 <= n <= 10**12 for the languages with a shipped spelling
    table ("en", "de"). Output is lowercase and, after the language's
    transliteration rules run, contains only alphabet characters.
    """
    if lang not in _NUMBER_TABLES:
        raise ValueError(f"no number spelling table for language {lang!r}")
    if not 0 <= n <= MAX_SPELLED_NUMBER:
        raise ValueError(f"number out of spellable range: {n}")
    return _NUMBER_TABLES[lang](n)


# ---------------------------------------------------------------------------
# Transliteration and the full pipeline


def transliterate(text: str, mapping) -> str:
    """Apply an ordered replacement list, one left-to-right pass per rule.

    Earlier rules win on overlap. With ASCII-safe replacement values no
    source pattern can survive in the output.
    """
    for src, dst in mapping:
        text = text.replace(src, dst)
    return text


def _spell_token(digits: str, lang: str) -> str:
    value = int(digits)
    if value <= MAX_SPELLED_NUMBER:
        return number_to_words(value, lang)
    # beyond the cardinal range, fall back to reading digits one by one
    return " ".join(number_to_words(int(ch), lang) for ch in digits)


def _spell_numbers(text: str, lang: str) -> str:
    out = []
    for tok in text.split():
        if _INT_RE.match(tok):
            out.append(_spell_token(tok, lang))
        elif _THOUSANDS_RE.match(tok):
            out.append(_spell_token(tok.replace(".", "").replace(",", ""), lang))
        elif any(ch.isdecimal() for ch in tok):
            # decimals, ordinals etc.: spell each digit group on its own
            out.append(_DIGIT_RUN_RE.sub(lambda m: f" {_spell_token(m.group(), lang)} ", tok))
        else:
            out.append(tok)
    return " ".join(out)


@lru_cache(maxsize=64)
def _unit_patterns(unit_items: tuple[tuple[str, str], ...],
                   keep: frozenset) -> tuple[re.Pattern | None, re.Pattern | None]:
    """Compile the two unit-expansion passes for one rule/alphabet pair.

    Any unit may follow a digit quantity ("3kg", "30°c"). Only units
    containing a character outside the alphabet may also stand alone:
    pure-letter tokens like "g" or "min" are common words or filter
    residue, and rewriting them without a quantity would make the
    pipeline non-idempotent.
    """
    if not unit_items:
        return None, None
    keys = sorted((k for k, _ in unit_items), key=len, reverse=True)
    alt_all = "|".join(re.escape(k) for k in keys)
    attached = re.compile(rf"(?P<q>\d)\s*(?P<u>{alt_all})(?![\w'])")
    loose = [k for k in keys if not set(k) <= keep]
    standalone = None
    if loose:
        alt = "|".join(re.escape(k) for k in loose)
        # apostrophes count as attached ("geht's" must not split)
        standalone = re.compile(rf"(?<![\w'])(?:{alt})(?![\w'])")
    return attached, standalone


def _expand_units(text: str, units: dict[str, str], keep: frozenset) -> str:
    attached, standalone = _unit_patterns(tuple(sorted(units.items())), keep)
    if attached is not None:
        text = attached.sub(lambda m: f"{m.group('q')} {units[m.group('u')]} ", text)
    if standalone is not None:
        text = standalone.sub(lambda m: f" {units[m.group()]} ", text)
    return text


def normalize_text(text: str, rules: NormRules, alphabet: AlphabetSpec) -> str:
    """Run the full normalization pipeline.

    Stages, in order: lowercase, unit expansion, number spelling,
    replacement rules, alphabet filtering, whitespace collapse. The
    result contains only characters from ``alphabet.symbols``, with
    inner whitespace collapsed to single spaces and no digits left.
    """
    keep = frozenset(alphabet.symbols)
    if rules.lowercase:
        text = text.lower()
    text = _expand_units(text, rules.units, keep)
    text = _spell_numbers(text, rules.number_language)
    text = transliterate(text, rules.replacements)

    keep_space = " " in keep
    chars = []
    for ch in text:
        if ch.isspace():
            if keep_space:
                chars.append(" ")
        elif ch in keep:
            chars.append(ch)
    return _WS_RE.sub(" ", "".join(chars)).strip()
