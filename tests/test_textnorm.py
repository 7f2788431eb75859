"""Normalization rules, number spelling, transliteration, the full pipeline."""
import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scribo.errors import ArpaError, RuleFileError, ScriboError
from scribo.lm import parse_arpa
from scribo.textnorm import (ALPHABETS, AlphabetSpec, NormRules, load_rules,
                             normalize_text, number_to_words, shipped_rules,
                             transliterate)

from conftest import fuzzed, run_quietly

EN = ALPHABETS["en"]
DE_RULES = shipped_rules("de")
EN_RULES = shipped_rules("en")


# ---------------------------------------------------------------- alphabets

def test_alphabet_blank_is_last():
    for name, al in ALPHABETS.items():
        assert al.blank_index == len(al.symbols)
        assert len(set(al.symbols)) == len(al.symbols)
        assert " " in al.symbols


def test_alphabet_spanish_extends_english():
    assert ALPHABETS["es"].symbols == ALPHABETS["en"].symbols + ("ñ",)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        AlphabetSpec(symbols="aab")


def test_alphabet_dict_round_trip():
    al = ALPHABETS["de"]
    assert AlphabetSpec(**dataclasses.asdict(al)) == al


def test_alphabet_json_round_trip(tmp_path):
    path = tmp_path / "es.json"
    path.write_text(json.dumps(dataclasses.asdict(ALPHABETS["es"])), encoding="utf-8")
    assert AlphabetSpec.from_json(path) == ALPHABETS["es"]


@pytest.mark.parametrize("content", [
    b"{}", b"[1]", b'{"symbols": [1]}', b'{"symbols": "ab"}', b'{"symbols": ["ab"]}',
    b'{"symbols": [["a"]]}', b'{"symbols": ["a"], "blank_index": 1e400}',
    b'{"symbols": ["a"], "blank_index": 0}', b'{"symbols": ["a"], "junk": 1}',
    b'{"symbols": ["a"], "blank_index": "1"}', b"\xff\xfe", b"{", b'{"symbols": []}',
], ids=repr)
def test_alphabet_json_rejects_malformed_file(tmp_path, content):
    path = tmp_path / "alphabet.json"
    path.write_bytes(content)
    with pytest.raises(ScriboError, match="alphabet.json"):
        AlphabetSpec.from_json(path)


_ALPHABET_BASES = (
    json.dumps(dataclasses.asdict(EN)).encode(),
    '{"symbols": ["a", "ñ", " "]}'.encode(),
)


@settings(max_examples=300, deadline=None)
@given(blob=fuzzed(*_ALPHABET_BASES))
def test_alphabet_json_fuzz(tmp_path_factory, blob):
    """Any bytes give an AlphabetSpec or a ScriboError; `normalize
    --alphabet` exits 0 on what loads and 2 on what does not."""
    src = tmp_path_factory.mktemp("alphabet") / "alphabet.json"
    src.write_bytes(blob)
    try:
        assert isinstance(AlphabetSpec.from_json(src), AlphabetSpec)
        want = 0
    except ScriboError:
        want = 2
    assert run_quietly("normalize", "--alphabet", str(src), "--text", "hi")[0] == want


# --------------------------------------------------------------- rule files

def test_load_rules_minimal(tmp_path):
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"replacements": [["ä", "ae"]]}))
    rules = load_rules(f)
    assert rules.replacements == (("ä", "ae"),)
    assert rules.lowercase


def test_load_rules_empty_object(tmp_path):
    f = tmp_path / "r.json"
    f.write_text("{}")
    rules = load_rules(f)
    assert rules.replacements == ()
    assert rules.units == {}


def test_load_rules_bad_replacement_type(tmp_path):
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"replacements": [["ä", 42]]}))
    with pytest.raises(RuleFileError):
        load_rules(f)


def test_load_rules_unknown_key(tmp_path):
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"replacments": []}))
    with pytest.raises(RuleFileError):
        load_rules(f)


@pytest.mark.parametrize("content,message", [
    ([], "rule file must be a JSON object"),
    ({"units": ["kg"]}, "units must map"),
    ({"units": {"kg": 1}}, "units must map"),
    ({"units": {"": "gramm"}}, "units must map"),
    ({"number_language": 7}, "number_language must be a string"),
    ({"lowercase": "yes"}, "lowercase must be a boolean"),
    ({"number_language": "fr"}, "number_language must be one of"),
    ({"replacements": [["", "x"]]}, r"replacements\[0\] must be a \[pattern, replacement\]"),
    ({"replacments": []}, "NormRules.* unexpected keyword argument 'replacments'"),
])
def test_load_rules_names_the_mistyped_field(tmp_path, content, message):
    f = tmp_path / "r.json"
    f.write_text(json.dumps(content))
    with pytest.raises(RuleFileError, match=f"^{re.escape(str(f))}: {message}"):
        load_rules(f)


@pytest.mark.parametrize("text", [
    '{"replacements": 5}',
    '{"replacements": null}',
    '{"lowercase": 1' + "0" * 5000 + "}",  # more digits than int() converts
    "[" * 100000 + "]" * 100000,
    b"\xff\xfe{}",
])
def test_load_rules_rejects_unreadable_file(tmp_path, text):
    f = tmp_path / "r.json"
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(RuleFileError):
        load_rules(f)


def test_normalize_refuses_a_rule_file_without_a_spelling_table(tmp_path):
    # with "fr" the file loaded and only text with a digit failed, unnamed
    f = tmp_path / "r.json"
    f.write_text(json.dumps({"number_language": "fr"}))
    for text in ("abc", "3 kg"):
        code, err = run_quietly("normalize", "--rules", str(f), "--text", text)
        assert code == 2
        assert f"{f}: number_language must be one of ['de', 'en'], got 'fr'" in err


def test_load_rules_malformed_json(tmp_path):
    f = tmp_path / "r.json"
    f.write_text("{not json")
    with pytest.raises(RuleFileError):
        load_rules(f)


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("read,error", [
    (load_rules, RuleFileError), (AlphabetSpec.from_json, ScriboError), (parse_arpa, ArpaError),
], ids=["rules", "alphabet", "arpa"])
def test_reader_names_a_file_it_cannot_read(tmp_path, read, error, kind):
    path = tmp_path / "input.file"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(error, match=r"input\.file: cannot read: "):
        read(path)


def test_shipped_rules_exist():
    assert DE_RULES.number_language == "de"
    assert EN_RULES.number_language == "en"


# ------------------------------------------------------------ number tables

@pytest.mark.parametrize(
    "n,lang,want",
    [
        (0, "en", "zero"),
        (13, "en", "thirteen"),
        (21, "en", "twenty one"),
        (105, "en", "one hundred five"),
        (1001, "en", "one thousand one"),
        (10**12, "en", "one trillion"),
        (0, "de", "null"),
        (21, "de", "einundzwanzig"),
        (40, "de", "vierzig"),
        (105, "de", "einhundertfünf"),
        (1001, "de", "eintausendeins"),
        (10**6, "de", "eine million"),
        (2 * 10**6, "de", "zwei millionen"),
        (10**12, "de", "eine billion"),
    ],
)
def test_number_spelling(n, lang, want):
    assert number_to_words(n, lang) == want


def test_number_out_of_range():
    for n in (-1, 10**12 + 1):
        with pytest.raises(ValueError):
            number_to_words(n, "en")


def test_number_unknown_language():
    with pytest.raises(ValueError):
        number_to_words(3, "xx")


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**12))
def test_number_spelling_alphabet_safe(n):
    # after the German replacement pass, spellings fit the bare alphabet
    for lang in ("en", "de"):
        text = transliterate(number_to_words(n, lang), DE_RULES.replacements)
        assert set(text) <= set(EN.symbols)


def test_german_number_unit_digit():
    # final "eins" keeps its s; the prefixed form drops it
    assert number_to_words(1, "de") == "eins"
    assert number_to_words(101, "de") == "einhunderteins"
    assert number_to_words(100, "de") == "einhundert"
    assert number_to_words(1100, "de") == "eintausendeinhundert"


# ------------------------------------------------------------ transliterate

def test_transliterate_german():
    assert transliterate("grün", DE_RULES.replacements) == "gruen"
    assert transliterate("weiß", DE_RULES.replacements) == "weiss"


def test_transliterate_french_diacritic():
    assert transliterate("façade", (("ç", "c"),)) == "facade"


def test_transliterate_fixpoint_on_plain_ascii():
    assert transliterate("abc", DE_RULES.replacements) == "abc"


def test_transliterate_removes_all_map_graphemes():
    text = "äöüß und mehr äöü"
    out = transliterate(text, DE_RULES.replacements)
    for src, _ in DE_RULES.replacements:
        if len(src) == 1 and src in "äöüß":
            assert src not in out


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40), st.text(max_size=40))
def test_transliterate_concat_homomorphism(a, b):
    single = tuple((s, d) for s, d in DE_RULES.replacements if len(s) == 1)
    f = lambda t: transliterate(t, single)
    assert f(a + b) == f(a) + f(b)


# -------------------------------------------------------------- pipeline

def test_normalize_weight_sentence():
    got = normalize_text("Ich wiege 3 kg!", DE_RULES, EN)
    assert got == "ich wiege drei kilogramm"
    # same without the space before the unit
    assert normalize_text("Ich wiege 3kg!", DE_RULES, EN) == got


def test_normalize_umlaut_word():
    assert normalize_text("Äpfel?", DE_RULES, EN) == "aepfel"


def test_normalize_empty():
    assert normalize_text("", DE_RULES, EN) == ""


def test_normalize_mixed_german_sentence():
    got = normalize_text("Es ist 18h und 30°C draußen, 100%!", DE_RULES, EN)
    assert got == (
        "es ist achtzehn uhr und dreissig grad celsius draussen "
        "einhundert prozent"
    )


def test_normalize_thousands_separator():
    assert normalize_text("geht's 1.000 mal", DE_RULES, EN) == "geht's eintausend mal"
    assert normalize_text("12,345 things", EN_RULES, EN) == (
        "twelve thousand three hundred forty five things"
    )


def test_normalize_units_do_not_fire_inside_words():
    # "s" and "t" are German unit tokens but must stay put inside words
    got = normalize_text("das Tor ist gut", DE_RULES, EN)
    assert got == "das tor ist gut"


def test_normalize_apostrophe_words_untouched():
    assert normalize_text("I'm fine", EN_RULES, EN) == "i'm fine"


def test_normalize_squared_unit():
    assert normalize_text("5 m² Fläche", DE_RULES, EN) == "fuenf quadratmeter flaeche"


def test_normalize_whitespace_collapse():
    assert normalize_text("  a \t b\n\nc  ", EN_RULES, EN) == "a b c"


def test_normalize_huge_number_digit_by_digit():
    out = normalize_text(str(10**12 + 5), EN_RULES, EN)
    assert out == "one zero zero zero zero zero zero zero zero zero zero zero five"


_TEXT = st.text(
    alphabet=st.characters(max_codepoint=0x2FF),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_normalize_idempotent(text):
    once = normalize_text(text, DE_RULES, EN)
    assert normalize_text(once, DE_RULES, EN) == once


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_normalize_closure_and_digit_free(text):
    out = normalize_text(text, DE_RULES, EN)
    assert set(out) <= set(EN.symbols)
    assert not re.search(r"\d", out)
    assert out == out.strip()
    assert "  " not in out


_RULE_BASES = (
    json.dumps({"replacements": [["ä", "ae"], ["ß", "ss"]], "units": {"km": "kilometer"},
                "number_language": "de", "lowercase": True}).encode(),
    b'{"replacements": [], "units": {}}',
)


@settings(max_examples=300, deadline=None)
@given(blob=fuzzed(*_RULE_BASES))
def test_load_rules_fuzz(tmp_path_factory, blob):
    """Any bytes load or raise RuleFileError; `normalize --rules` exits 0
    on what loads and 2 on what does not."""
    src = tmp_path_factory.mktemp("rules") / "rules.json"
    src.write_bytes(blob)
    try:
        load_rules(src)
        want = 0
    except ScriboError:
        want = 2
    assert run_quietly("normalize", "--rules", str(src), "--text", "Die Straße, km")[0] == want
