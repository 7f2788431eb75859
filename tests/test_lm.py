"""ARPA parsing, backoff scoring, perplexity, serialization, pruning."""
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scribo.errors import ArpaError, ScriboError
from scribo.lm import DEFAULT_OOV_LOG10, NgramModel, parse_arpa, prune_model, serialize_arpa

from conftest import ODD_ARPA, TOY_ARPA, fuzzed, run_quietly

# toy model probabilities, hand-derived (see conftest for the mass layout)
P_A = math.log10(0.4)
P_B = math.log10(0.3)
P_C = math.log10(0.2)
P_UNK = math.log10(0.1)
BO_A = math.log10(0.4 / 0.7)
BO_B = math.log10(0.5 / 0.8)
P_AB = math.log10(0.6)
P_BC = math.log10(0.5)

# fixture with the backoff arithmetic spelled out in round numbers:
# score("the","dog") = bo(the) + P(dog) = -0.2 + -1.0 = -1.2
WORDS_ARPA = """\\data\\
ngram 1=4
ngram 2=1

\\1-grams:
-0.5\tthe\t-0.2
-0.8\tcat
-1.0\tdog
-2.5\t<unk>

\\2-grams:
-0.301\tthe cat

\\end\\
"""


@pytest.fixture
def words_model(tmp_path):
    p = tmp_path / "words.arpa"
    p.write_text(WORDS_ARPA)
    return parse_arpa(p)


def test_parse_header_and_counts(toy_model):
    assert toy_model.order == 2
    assert len(toy_model.tables[1]) == 4
    assert len(toy_model.tables[2]) == 2
    assert toy_model.total_ngrams == 6
    assert set(toy_model.vocab) == {"a", "b", "c", "<unk>"}


def test_parse_five_gram_order(tmp_path):
    lines = ["\\data\\"]
    lines += [f"ngram {k}={1}" for k in range(1, 6)]
    lines.append("")
    grams = ["a", "a a", "a a a", "a a a a", "a a a a a"]
    for k in range(1, 6):
        lines.append(f"\\{k}-grams:")
        row = f"-0.5\t{grams[k - 1]}"
        if k < 5:
            row += "\t-0.1"
        lines.append(row)
        lines.append("")
    lines.append("\\end\\")
    p = tmp_path / "five.arpa"
    p.write_text("\n".join(lines))
    assert parse_arpa(p).order == 5


def test_parse_missing_end_marker(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(TOY_ARPA.replace("\\end\\", ""))
    with pytest.raises(ArpaError):
        parse_arpa(p)


def test_parse_count_mismatch(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(TOY_ARPA.replace("ngram 1=4", "ngram 1=5"))
    with pytest.raises(ArpaError, match="declares"):
        parse_arpa(p)


def test_parse_non_numeric_probability(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(TOY_ARPA.replace(f"{P_AB}\ta b", "oops\ta b"))
    with pytest.raises(ArpaError):
        parse_arpa(p)


@pytest.mark.parametrize("old,new,message", [
    ("ngram 1=4\nngram 2=1\n", "", "empty \\data\\ section"),
    ("\\2-grams:", "\\two-grams:", "line 11: bad section header '\\\\two-grams:'"),
    ("\\2-grams:", "\\3-grams:", "line 11: section \\3-grams: not in header"),
    ("-0.8\tcat", "-0.8\tthe", "line 7: duplicate 1-gram 'the'"),
    ("-1.0\tdog", "-1.0\tdog\t-0.1\t-0.2", "line 8: unexpected trailing fields"),
    ("-0.301\tthe cat", "-0.301\tthe cat\t-0.1", "line 12: unexpected trailing fields"),
], ids=["empty-data", "bad-header", "unknown-section", "duplicate", "two-backoffs",
        "highest-order-backoff"])
def test_parse_errors_name_the_file_once(tmp_path, old, new, message):
    p = tmp_path / "bad.arpa"
    p.write_text(WORDS_ARPA.replace(old, new))
    with pytest.raises(ArpaError) as info:
        parse_arpa(p)
    assert str(info.value) == f"{p}: {message}"


# (entry of WORDS_ARPA, the same entry with {} for the bad value, its line)
_VALUE_SLOTS = {
    "unigram": ("-1.0\tdog", "{}\tdog", 8),
    "backoff": ("-0.5\tthe\t-0.2", "-0.5\tthe\t{}", 6),
    "bigram": ("-0.301\tthe cat", "{}\tthe cat", 12),
}


@pytest.mark.parametrize("slot", _VALUE_SLOTS)
@pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "+nan", "inf", "+inf", "INF",
                                   "Infinity", "+infinity", "1e999"])
def test_parse_rejects_nan_and_positive_infinity(tmp_path, slot, value):
    entry, bad, lineno = _VALUE_SLOTS[slot]
    p = tmp_path / "bad.arpa"
    p.write_text(WORDS_ARPA.replace(entry, bad.format(value)))
    with pytest.raises(ArpaError, match=f"^{re.escape(str(p))}: line {lineno}: "):
        parse_arpa(p)
    assert run_quietly("lm", "score", "--arpa", str(p), "--text", "the dog")[0] == 2
    code, err = run_quietly("lm", "ppl", "--arpa", str(p), "--text", "the dog")
    assert code == 2 and f"line {lineno}" in err


@pytest.mark.parametrize("slot", ["unigram", "backoff"])
def test_parse_keeps_negative_infinity(tmp_path, slot):
    # log10 of a zero probability or backoff weight
    entry, bad, _ = _VALUE_SLOTS[slot]
    p = tmp_path / "zero.arpa"
    p.write_text(WORDS_ARPA.replace(entry, bad.format("-inf")))
    model = parse_arpa(p)
    assert model.score_word(["the"], "dog") == -math.inf
    out = tmp_path / "round.arpa"
    serialize_arpa(model, out)
    again = parse_arpa(out)

    def entries(m):
        return {tuple(m.id_to_token[i] for i in key): value
                for table in m.tables.values() for key, value in table.items()}

    assert entries(again) == entries(model)


@pytest.mark.parametrize("bad", [
    TOY_ARPA.replace("ngram 2=2", "ngram 2=2\nngram 99999999999999=0").encode(),
    TOY_ARPA.replace("ngram 2=2", "ngram 2=" + "2" * 5000).encode(),
    TOY_ARPA.replace("ngram 1=4", "ngram 0=4").encode(),
    TOY_ARPA.encode().replace(b"\ta\t", b"\t\xe4\t"),  # Latin-1, not UTF-8
], ids=["huge-order", "count-digits", "order-zero", "not-utf8"])
def test_parse_rejects_bad_header_or_encoding(tmp_path, bad):
    p = tmp_path / "bad.arpa"
    p.write_bytes(bad)
    with pytest.raises(ArpaError):
        parse_arpa(p)


def test_parse_missing_data_header(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(TOY_ARPA.replace("\\data\\", ""))
    with pytest.raises(ArpaError):
        parse_arpa(p)


def test_parse_reports_prefix_violation(tmp_path, caplog):
    # bigram "x b" has no unigram "x": accepted, but flagged
    broken = TOY_ARPA.replace(f"{P_AB}\ta b", f"{P_AB}\tx b")
    p = tmp_path / "odd.arpa"
    p.write_text(broken)
    with caplog.at_level("WARNING"):
        model = parse_arpa(p)
    assert model.total_ngrams == 6
    assert any("prefix" in r.message for r in caplog.records)


def test_parse_warnings_name_the_file(tmp_path, caplog):
    p = tmp_path / "odd.arpa"
    p.write_text(ODD_ARPA)
    with caplog.at_level("WARNING", logger="scribo.lm"):
        parse_arpa(p)
    assert caplog.messages == [
        f"{p}: line 6: positive log-probability 0.5 kept as-is",
        f"{p}: 1 n-grams have no stored prefix or a word with no unigram",
    ]


def test_parse_counts_each_inconsistent_ngram_once(tmp_path, caplog):
    # "c a" has no stored prefix and holds "c", which has no unigram: one;
    # "c a b" has its prefix stored but holds "c": two; "a b a" is sound
    p = tmp_path / "tri.arpa"
    p.write_text("""\\data\\
ngram 1=3
ngram 2=3
ngram 3=2

\\1-grams:
-0.5\ta\t-0.1
-1.0\tb\t-0.1
-1.0\t<unk>

\\2-grams:
-0.3\ta b\t-0.1
-0.2\tc a\t-0.1
-0.4\tb a

\\3-grams:
-0.1\ta b a
-0.1\tc a b

\\end\\
""")
    with caplog.at_level("WARNING", logger="scribo.lm"):
        parse_arpa(p)
    assert caplog.messages == [f"{p}: 2 n-grams have no stored prefix or a word with no unigram"]


@pytest.mark.parametrize("unk", [True, False], ids=["unk", "no-unk"])
def test_a_word_with_no_unigram_is_oov(tmp_path, unk):
    # "c" occurs only in the bigram "c a": it routes, scores and counts as
    # the unknown "zzz" does, as the word and in the history
    text = ODD_ARPA if unk else ODD_ARPA.replace("ngram 1=3", "ngram 1=2").replace(
        "-1.0\t<unk>\n", "")
    p = tmp_path / "odd.arpa"
    p.write_text(text)
    model = parse_arpa(p)
    assert model.vocab == ({"a", "b", "<unk>"} if unk else {"a", "b"})
    for history in ([], ["a"], ["b", "a"], ["c"], ["zzz"]):
        assert model.score_word(history, "c") == model.score_word(history, "zzz")
    for word in ("a", "b", "</s>"):
        assert model.score_word(["c"], word) == model.score_word(["zzz"], word)
    assert model.score_sequence(["c", "a"]) == model.score_sequence(["zzz", "a"])
    assert model.score_sequence(["c"]).oov_count == 2   # "c" and "</s>"
    if not unk:
        assert model.score_word([], "c") == DEFAULT_OOV_LOG10


@pytest.mark.parametrize("order,tables,message", [
    (0, [], "order must be >= 1"),
    (2, [{(0,): (-0.5, 0.0)}], "one table per order"),
], ids=["order-0", "too-few-tables"])
def test_model_refuses_a_bad_order_or_table_count(order, tables, message):
    with pytest.raises(ValueError, match=message):
        NgramModel(order, tables, ["a"])


def test_score_stored_bigram(words_model):
    assert words_model.score_word(["the"], "cat") == pytest.approx(-0.301, abs=1e-12)


def test_score_backoff_arithmetic(words_model):
    # unseen bigram: backoff(the) + P(dog) = -0.2 + -1.0
    assert words_model.score_word(["the"], "dog") == pytest.approx(-1.2, abs=1e-12)


def test_score_oov_routes_to_unk(words_model):
    assert words_model.score_word([], "zebra") == pytest.approx(-2.5, abs=1e-12)
    score = words_model.score_sequence(["zebra"], with_markers=False)
    assert score.oov_count == 1
    assert score.log10_total == pytest.approx(-2.5, abs=1e-12)


def test_score_oov_floor_without_unk(tmp_path):
    no_unk = "\n".join(
        l for l in WORDS_ARPA.splitlines() if "<unk>" not in l
    ).replace("ngram 1=4", "ngram 1=3")
    p = tmp_path / "nounk.arpa"
    p.write_text(no_unk)
    model = parse_arpa(p)
    assert model.score_word([], "zebra") == pytest.approx(-8.0)


def test_score_hand_derived_backoffs(toy_model):
    assert toy_model.score_word(["a"], "c") == pytest.approx(BO_A + P_C, abs=1e-9)
    assert toy_model.score_word(["b"], "a") == pytest.approx(BO_B + P_A, abs=1e-9)
    # "c" stores no backoff weight: missing weight counts as 0
    assert toy_model.score_word(["c"], "b") == pytest.approx(P_B, abs=1e-9)
    assert toy_model.score_word(["a"], "b") == pytest.approx(P_AB, abs=1e-9)


def test_score_history_truncated_to_order(toy_model):
    long_history = ["c", "b", "c", "a"]
    assert toy_model.score_word(long_history, "b") == toy_model.score_word(["a"], "b")


def test_sequence_empty_is_zero(toy_model):
    score = toy_model.score_sequence([], with_markers=False)
    assert score.log10_total == 0.0
    assert score.oov_count == 0


def test_sequence_hand_summed(toy_model):
    score = toy_model.score_sequence(["a", "b", "c"], with_markers=False)
    want = P_A + P_AB + P_BC    # log10(0.4 * 0.6 * 0.5)
    assert score.log10_total == pytest.approx(want, abs=1e-6)
    assert score.oov_count == 0


def test_sequence_with_markers_nonpositive(toy_model, words_model):
    for model in (toy_model, words_model):
        for words in (["a"], ["a", "b"], ["zebra", "b", "c"], []):
            assert model.score_sequence(words, with_markers=True).log10_total <= 0


def test_sequence_additive_over_concatenation(toy_model):
    # junction history carried over: score(xy) = score(x) + score(y | tail of x)
    whole = toy_model.score_sequence(["a", "b", "c"], with_markers=False)
    head = toy_model.score_sequence(["a", "b"], with_markers=False)
    junction = toy_model.score_word(["b"], "c")
    assert whole.log10_total == pytest.approx(head.log10_total + junction, abs=1e-12)


def test_normalization_per_stored_history(toy_model):
    vocab = ["a", "b", "c", "<unk>"]
    for history in ([], ["a"], ["b"], ["c"]):
        total = sum(10 ** toy_model.score_word(history, w) for w in vocab)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_perplexity_uniform_unigrams(tmp_path):
    p = math.log10(0.25)
    text = "\\data\\\nngram 1=4\n\n\\1-grams:\n"
    text += "".join(f"{p}\t{w}\n" for w in "abcd")
    text += "\n\\end\\\n"
    f = tmp_path / "uni.arpa"
    f.write_text(text)
    model = parse_arpa(f)
    words = list("abcdabcdab")
    assert model.perplexity(words, with_markers=False) == pytest.approx(4.0)


def test_perplexity_certain_token_is_one(tmp_path):
    f = tmp_path / "one.arpa"
    f.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n0.0\ta\n\n\\end\\\n")
    model = parse_arpa(f)
    assert model.perplexity(["a"], with_markers=False) == pytest.approx(1.0)


def test_perplexity_toy_value(toy_model):
    # 10 ** (-log10(0.12) / 3)
    want = 0.12 ** (-1 / 3)
    assert toy_model.perplexity(["a", "b", "c"], with_markers=False) == pytest.approx(
        want, abs=1e-4
    )


def test_perplexity_empty_rejected(toy_model):
    with pytest.raises(ValueError):
        toy_model.perplexity([], with_markers=False)


def test_roundtrip_identical(toy_model, tmp_path):
    out = tmp_path / "round.arpa"
    serialize_arpa(toy_model, out)
    again = parse_arpa(out)
    assert again.order == toy_model.order
    for k in range(1, toy_model.order + 1):
        def table(m):
            return {
                tuple(m.id_to_token[i] for i in key): value
                for key, value in m.tables[k].items()
            }

        assert table(again) == table(toy_model)


def test_tab_and_space_layouts_parse_alike(tmp_path):
    # fields split on any whitespace: serialize_arpa's tab layout and its
    # space-separated twin are the same model
    tabs, spaces = tmp_path / "tabs.arpa", tmp_path / "spaces.arpa"
    tabs.write_text(TOY_ARPA)
    spaces.write_text(TOY_ARPA.replace("\t", " "))
    assert "\t" in TOY_ARPA
    assert _entries(parse_arpa(tabs)) == _entries(parse_arpa(spaces))


def test_tab_between_words_separates_them(tmp_path):
    p = tmp_path / "m.arpa"
    p.write_text(TOY_ARPA.replace(f"{P_AB}\ta b", "-0.5\ta\tb"))
    model = parse_arpa(p)
    assert _entries(model)[2][("a", "b")] == (repr(-0.5), repr(0.0))


def test_prune_noop_when_under_limit(toy_model):
    pruned = prune_model(toy_model, 10)
    assert pruned.total_ngrams == 6
    assert pruned.tables == toy_model.tables


def test_prune_to_unigram_boundary(toy_model):
    pruned = prune_model(toy_model, 4)
    assert pruned.total_ngrams == 4
    assert pruned.order == toy_model.order
    assert len(pruned.tables[2]) == 0


def test_prune_below_unigrams_rejected(toy_model):
    with pytest.raises(ValueError):
        prune_model(toy_model, 3)


def test_prune_drops_lowest_probability_first(toy_model):
    # P(b c)=log10(.5) < P(a b)=log10(.6), so "b c" goes first
    pruned = prune_model(toy_model, 5)
    kept = {
        tuple(pruned.id_to_token[i] for i in key) for key in pruned.tables[2]
    }
    assert kept == {("a", "b")}


TRIGRAM_ARPA = """\\data\\
ngram 1=3
ngram 2=3
ngram 3=2

\\1-grams:
-0.4\ta\t-0.1
-0.6\tb\t-0.2
-0.9\tc

\\2-grams:
-0.30\ta b\t-0.05
-0.70\tb c\t-0.10
-0.95\ta c

\\3-grams:
-0.20\ta b c
-0.80\tb c a

\\end\\
"""


def test_prune_cascade_keeps_prefixes_consistent(tmp_path):
    p = tmp_path / "tri.arpa"
    p.write_text(TRIGRAM_ARPA)
    model = parse_arpa(p)

    def names(m, k):
        return {tuple(m.id_to_token[i] for i in key) for key in m.tables[k]}

    # candidates sorted by probability ascending:
    # (a,c) -0.95, (b,c,a) -0.80, (b,c) -0.70, (a,b) -0.30, (a,b,c) -0.20
    pruned = prune_model(model, 6)
    assert pruned.total_ngrams == 6
    assert names(pruned, 1) == {("a",), ("b",), ("c",)}
    assert names(pruned, 2) == {("a", "b"), ("b", "c")}
    assert names(pruned, 3) == {("a", "b", "c")}

    pruned5 = prune_model(model, 5)
    assert names(pruned5, 2) == {("a", "b")}
    assert names(pruned5, 3) == {("a", "b", "c")}

    # dropping (a,b) cascades to (a,b,c): count falls 5 -> 3
    pruned4 = prune_model(model, 4)
    assert pruned4.total_ngrams == 3
    assert len(pruned4.tables[2]) == 0
    assert len(pruned4.tables[3]) == 0


def test_prune_passes_over_what_a_cascade_dropped():
    # (a,b) goes first and takes (a,b,c) with it; (a,b,c) then comes up
    # as a candidate of its own and is passed over, not dropped twice
    uni = {(0,): (-0.4, -0.1), (1,): (-0.6, -0.2), (2,): (-0.9, 0.0)}
    bi = {(0, 1): (-3.0, -0.05), (1, 2): (-0.05, 0.0)}
    tri = {(0, 1, 2): (-0.1, 0.0)}
    pruned = prune_model(NgramModel(3, [uni, bi, tri], ["a", "b", "c"]), 3)
    assert pruned.tables == {1: uni, 2: {}, 3: {}}


def test_model_holds_the_tables_it_is_given(words_model):
    tables = [dict(words_model.tables[k]) for k in (1, 2)]
    model = NgramModel(2, tables, words_model.id_to_token)
    assert all(model.tables[k] is tables[k - 1] for k in (1, 2))


def test_prune_exhaustive_consistency(tmp_path):
    p = tmp_path / "tri.arpa"
    p.write_text(TRIGRAM_ARPA)
    model = parse_arpa(p)
    for cap in range(3, model.total_ngrams + 1):
        pruned = prune_model(model, cap)
        assert pruned.total_ngrams <= cap
        assert len(pruned.tables[1]) == 3
        for k in range(2, pruned.order + 1):
            for key in pruned.tables[k]:
                assert key[:-1] in pruned.tables[k - 1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "zebra"]), max_size=8))
def test_scores_never_positive_for_nonempty(words):
    model = _cached_toy()
    score = model.score_sequence(words, with_markers=False)
    if words:
        assert score.log10_total < 0
    else:
        assert score.log10_total == 0.0


_TOY_CACHE: dict[str, NgramModel] = {}


def _cached_toy() -> NgramModel:
    if "m" not in _TOY_CACHE:
        import os
        import tempfile

        fd, name = tempfile.mkstemp(suffix=".arpa", text=True)
        with os.fdopen(fd, "w") as f:
            f.write(TOY_ARPA)
        try:
            _TOY_CACHE["m"] = parse_arpa(name)
        finally:
            os.unlink(name)
    return _TOY_CACHE["m"]


# ------------------------------------------------------------------ fuzzing

def _entries(model: NgramModel) -> dict:
    """Tables keyed by token strings, floats by repr (so NaN compares)."""
    return {k: {tuple(model.id_to_token[i] for i in key): (repr(p), repr(b))
                for key, (p, b) in table.items()}
            for k, table in model.tables.items()}


@settings(max_examples=300, deadline=None)
@given(blob=fuzzed(TOY_ARPA.encode(), WORDS_ARPA.encode()))
def test_parse_arpa_fuzz(tmp_path_factory, blob):
    """Any bytes parse or raise ArpaError; what parses survives a
    serialize -> parse round trip, and a file that does not parse makes
    `lm score` exit 2."""
    d = tmp_path_factory.mktemp("arpa")
    src = d / "fuzz.arpa"
    src.write_bytes(blob)
    try:
        model = parse_arpa(src)
    except ScriboError:
        assert run_quietly("lm", "score", "--arpa", str(src), "--text", "a b")[0] == 2
        return
    serialize_arpa(model, d / "again.arpa")
    again = parse_arpa(d / "again.arpa")
    assert again.order == model.order
    assert _entries(again) == _entries(model)
    assert run_quietly("lm", "score", "--arpa", str(src), "--text", "a b")[0] == 0
