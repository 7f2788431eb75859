"""End-to-end runs of the command-line front end via run()."""
import io
import json
import math
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scribo import cli, corpus, lm as lm_mod, net
from scribo.cli import MODEL_DIR_ENV, run
from scribo.textnorm import ALPHABETS

from conftest import ODD_ARPA, mixed_rate_folder, raw_wav, tone, write_twins, write_wav


def run_cli(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def jlines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


@pytest.fixture(autouse=True)
def no_ambient_model(monkeypatch):
    monkeypatch.delenv(MODEL_DIR_ENV, raising=False)


@pytest.fixture()
def wav_dir(tmp_path):
    d = tmp_path / "audio"
    d.mkdir()
    write_wav(d / "one.wav", tone(0.5, freq=440.0))
    write_wav(d / "two.wav", tone(0.5, freq=660.0))
    return d


def make_manifest(directory, items, name="dataset"):
    return corpus.write_dataset(items, "manifest-csv", directory, name=name)


# -------------------------------------------------------------- exit codes

def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "transcribe" in out


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 1


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_missing_required_flag_is_usage_error(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("a b\n")
    assert run_cli(capsys, "eval", "--ref", str(ref))[0] == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(capsys, "eval", "--bogus")[0] == 1


@pytest.mark.parametrize("command", ["decode", "transcribe", "bench"])
def test_greedy_decoder_with_arpa_is_usage_error(capsys, tmp_path, command):
    # refused before any file is read: the ARPA file is garbage and the
    # other inputs do not exist, either of which would be exit 2
    arpa = tmp_path / "garbage.arpa"
    arpa.write_text("not an arpa file\n")
    inputs = {"decode": ["--logits", str(tmp_path / "logits"), "--alphabet", "en"],
              "transcribe": ["--model", str(tmp_path / "model"),
                             "--wav", str(tmp_path / "a.wav")],
              "bench": ["--model", str(tmp_path / "model"),
                        "--manifest", str(tmp_path / "m.tsv")]}[command]
    code, out, err = run_cli(capsys, command, *inputs, "--decoder", "greedy",
                             "--arpa", str(arpa))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "--arpa" in err


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
@pytest.mark.parametrize("command", ["corpus convert"])
def test_workers_below_one_is_usage_error(capsys, tmp_path, command, workers):
    out = tmp_path / "out"
    argv = [*command.split(), "--format", "folder-txt",
            "--in", str(tmp_path / "raw"), "--out", str(out)]
    code, _, err = run_cli(capsys, *argv, "--workers", workers)
    assert code == 1
    assert "worker count" in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1", "many"])
@pytest.mark.parametrize("argv,flag,what", [
    (["bench", "--manifest", "missing.tsv"], "--reps", "repetition count"),
    (["transcribe", "--model", "missing", "--wav", "missing.wav", "--decoder", "beam"],
     "--beam-width", "beam width"),
])
def test_count_below_one_is_usage_error(capsys, argv, flag, what, count):
    # refused by the parser, before any named file is read
    code, out, err = run_cli(capsys, *argv, flag, count)
    assert code == 1
    assert out == ""
    assert flag in err and what in err


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "-0.5"), ("--alpha", "x"),
    ("--beta", "nan"), ("--beta", "inf"), ("--beta", "-inf"),
])
def test_fusion_weight_out_of_range_is_usage_error(capsys, tmp_path, flag, value):
    # refused by the parser, before the garbage ARPA file is parsed
    arpa = tmp_path / "garbage.arpa"
    arpa.write_text("not an arpa file\n")
    decoder = ["--arpa", str(arpa)] if flag == "--alpha" else ["--decoder", "beam"]
    code, out, err = run_cli(capsys, "decode", "--logits", str(tmp_path / "logits"),
                             "--alphabet", "en", *decoder, f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert flag in err and "finite" in err


def test_missing_model_directory_is_data_error(capsys, tmp_path):
    wav = tmp_path / "a.wav"
    write_wav(wav, tone(0.2))
    code, _, err = run_cli(capsys, "transcribe", "--wav", str(wav),
                           "--model", str(tmp_path / "no-model"))
    assert code == 2
    assert "error:" in err


def _drop(key):
    def edit(manifest):
        del manifest["tensors"][0][key]
    return edit


@pytest.mark.parametrize("corrupt", [
    _drop("name"), _drop("shape"), _drop("offset"), _drop("length"),
    lambda m: m["net"].pop("blocks"),
    lambda m: m["net"]["prologue"].update(width=3),
    lambda m: m["net"].update(dropout=0.1),
], ids=["no-name", "no-shape", "no-offset", "no-length", "net-no-blocks", "net-unknown-key",
        "net-unknown-top-level-key"])
def test_malformed_model_manifest_is_data_error(capsys, tiny_model_dir, tmp_path, corrupt):
    model = tmp_path / "model"
    shutil.copytree(tiny_model_dir, model)
    manifest = json.loads((model / "manifest.json").read_text())
    corrupt(manifest)
    (model / "manifest.json").write_text(json.dumps(manifest))
    wav = tmp_path / "a.wav"
    write_wav(wav, tone(0.2))
    code, _, err = run_cli(capsys, "transcribe", "--model", str(model), "--wav", str(wav))
    assert code == 2
    assert "malformed" in err


def test_no_model_flag_and_no_env_is_data_error(capsys, tmp_path):
    wav = tmp_path / "a.wav"
    write_wav(wav, tone(0.2))
    code, _, err = run_cli(capsys, "transcribe", "--wav", str(wav))
    assert code == 2
    assert MODEL_DIR_ENV in err


# --------------------------------------------------------------------- eval

def test_eval_identical_files(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("the cat sat\non a mat\n")
    hyp.write_text("the cat sat\non a mat\n")
    code, out, _ = run_cli(capsys, "eval", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    assert out.strip() == "wer 0.0000 over 6 reference words"


def test_eval_counts_weighted_errors(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("a b c\nd e f\n")
    hyp.write_text("a x c\nd e f\n")
    code, out, _ = run_cli(capsys, "--json", "eval", "--ref", str(ref),
                           "--hyp", str(hyp))
    assert code == 0
    (obj,) = jlines(out)
    assert obj["reference_words"] == 6
    assert obj["wer"] == pytest.approx(1 / 6)


def test_eval_divides_whole_edit_counts_once(capsys, tmp_path):
    # 15 + 1 edits over 22 + 3 words; scaling each line's rate back up by
    # its word count gave 0.6399999999999999
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text(" ".join(["w"] * 22) + "\na b c\n")
    hyp.write_text(" ".join(["x"] * 15 + ["w"] * 7) + "\na b z\n")
    code, out, _ = run_cli(capsys, "--json", "eval", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    assert jlines(out) == [{"wer": 0.64, "reference_words": 25}]


def test_eval_counts_the_insertions_of_an_empty_reference_line(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("a b\n\n")
    hyp.write_text("a b\nx y z\n")
    code, out, _ = run_cli(capsys, "--json", "eval", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    assert jlines(out) == [{"wer": 1.5, "reference_words": 2}]


def test_eval_line_count_mismatch(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("a\nb\n")
    hyp.write_text("a\n")
    code, _, err = run_cli(capsys, "eval", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 2
    assert "mismatch" in err


def test_eval_empty_reference(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("\n")
    hyp.write_text("something\n")
    assert run_cli(capsys, "eval", "--ref", str(ref), "--hyp", str(hyp))[0] == 2


# ---------------------------------------------------------------- normalize

def test_normalize_text_flag(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--lang", "de",
                           "--text", "Ich wiege 3 kg!")
    assert code == 0
    assert out.strip() == "ich wiege drei kilogramm"


def test_normalize_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "normalize", "--lang", "en",
                           "--text", "It's 21!")
    assert code == 0
    (obj,) = jlines(out)
    assert obj == {"text": "it's twenty one"}


def test_normalize_file_input(capsys, tmp_path):
    src = tmp_path / "lines.txt"
    src.write_text("Guten Tag!\nWir kaufen 2 Äpfel.\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "normalize", "--lang", "de",
                           "--in", str(src))
    assert code == 0
    assert out.splitlines() == ["guten tag", "wir kaufen zwei aepfel"]


def test_normalize_unknown_language(capsys):
    assert run_cli(capsys, "normalize", "--lang", "xx", "--text", "hi")[0] == 2


# ----------------------------------------------------------------------- lm

def test_lm_score_values(capsys, toy_arpa):
    code, out, _ = run_cli(capsys, "--json", "lm", "score", "--arpa",
                           str(toy_arpa), "--text", "a b", "--no-markers")
    assert code == 0
    (obj,) = jlines(out)
    assert obj["log10"] == pytest.approx(math.log10(0.4) + math.log10(0.6))
    assert obj["oov"] == 0


def test_lm_score_reports_oov(capsys, toy_arpa):
    code, out, _ = run_cli(capsys, "--json", "lm", "score", "--arpa",
                           str(toy_arpa), "--text", "a zebra", "--no-markers")
    assert code == 0
    assert jlines(out)[0]["oov"] == 1


def test_lm_score_human_line(capsys, toy_arpa):
    code, out, _ = run_cli(capsys, "lm", "score", "--arpa", str(toy_arpa),
                           "--text", "a", "--no-markers")
    assert code == 0
    assert out.startswith("log10 ")


@pytest.mark.parametrize("text", ["c", "zzz"])
def test_lm_score_counts_a_word_with_no_unigram_as_oov(capsys, tmp_path, text):
    # "c" occurs only in the bigram "c a"; "</s>" is the second OOV token
    arpa = tmp_path / "odd.arpa"
    arpa.write_text(ODD_ARPA)
    code, out, _ = run_cli(capsys, "lm", "score", "--arpa", str(arpa), "--text", text)
    assert code == 0
    assert out == "log10 -2.000000 (2 OOV)\n"


def test_lm_ppl(capsys, toy_arpa):
    code, out, _ = run_cli(capsys, "--json", "lm", "ppl", "--arpa",
                           str(toy_arpa), "--text", "a b", "--no-markers")
    assert code == 0
    (obj,) = jlines(out)
    assert obj["words"] == 2
    assert obj["perplexity"] == pytest.approx((0.4 * 0.6) ** -0.5)


def test_lm_ppl_needs_input(capsys, toy_arpa):
    assert run_cli(capsys, "lm", "ppl", "--arpa", str(toy_arpa))[0] == 2


def test_lm_prune_writes_smaller_model(capsys, toy_arpa, tmp_path):
    out_path = tmp_path / "pruned.arpa"
    code, out, _ = run_cli(capsys, "--json", "lm", "prune", "--arpa",
                           str(toy_arpa), "--max-ngrams", "4",
                           "--out", str(out_path))
    assert code == 0
    (obj,) = jlines(out)
    assert obj["before"] == 6
    assert obj["after"] <= 4
    pruned = lm_mod.parse_arpa(out_path)
    assert pruned.total_ngrams == obj["after"]
    assert len(pruned.tables[1]) == 4          # unigrams survive pruning


def test_lm_score_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "lm", "score", "--arpa",
                           str(tmp_path / "no.arpa"), "--text", "a")
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------------- decode

def log_rows(rows):
    m = np.log(np.asarray(rows, dtype=np.float64))
    return (m - np.log(np.exp(m).sum(axis=1, keepdims=True))).astype(np.float32)


@pytest.fixture()
def logit_blob(tmp_path):
    """Blob whose greedy and beam decodes both read "a b"."""
    # symbols a, b, space; blank last
    rows = log_rows([
        [0.90, 0.04, 0.03, 0.03],
        [0.03, 0.03, 0.04, 0.90],
        [0.04, 0.03, 0.90, 0.03],
        [0.04, 0.90, 0.03, 0.03],
    ])
    blob_dir = tmp_path / "logits"
    net.write_tensor_blob(blob_dir, {"logits": rows})
    alphabet = tmp_path / "alphabet.json"
    alphabet.write_text(json.dumps({"symbols": ["a", "b", " "]}),
                        encoding="utf-8")
    return blob_dir, alphabet


def test_decode_greedy(capsys, logit_blob):
    blob_dir, alphabet = logit_blob
    code, out, _ = run_cli(capsys, "decode", "--logits", str(blob_dir),
                           "--alphabet", str(alphabet), "--decoder", "greedy")
    assert code == 0
    assert out.strip() == "a b"


def test_decode_beam_reports_scores(capsys, logit_blob):
    blob_dir, alphabet = logit_blob
    code, out, _ = run_cli(capsys, "--json", "decode", "--logits", str(blob_dir),
                           "--alphabet", str(alphabet), "--decoder", "beam",
                           "--beam-width", "64")
    assert code == 0
    (obj,) = jlines(out)
    assert obj["transcript"] == "a b"
    assert obj["lm_log10"] == 0.0
    assert obj["combined"] == pytest.approx(obj["acoustic_log"] + 2.0)  # beta 1.0


def test_decode_with_lm_fusion(capsys, logit_blob, toy_arpa):
    blob_dir, alphabet = logit_blob
    code, out, _ = run_cli(capsys, "--json", "decode", "--logits", str(blob_dir),
                           "--alphabet", str(alphabet), "--arpa", str(toy_arpa),
                           "--beam-width", "64")
    assert code == 0
    (obj,) = jlines(out)
    assert obj["transcript"] == "a b"
    # P(a) then P(b | a)
    assert obj["lm_log10"] == pytest.approx(math.log10(0.4) + math.log10(0.6))


def test_decode_missing_logits_tensor(capsys, tmp_path):
    blob_dir = tmp_path / "blob"
    net.write_tensor_blob(blob_dir, {"x": np.zeros((2, 2), dtype=np.float32)})
    alphabet = tmp_path / "alphabet.json"
    alphabet.write_text(json.dumps({"symbols": ["a"]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "decode", "--logits", str(blob_dir),
                           "--alphabet", str(alphabet))
    assert code == 2
    assert "logits" in err


def test_decode_unknown_alphabet(capsys, logit_blob):
    blob_dir, _ = logit_blob
    code, _, err = run_cli(capsys, "decode", "--logits", str(blob_dir),
                           "--alphabet", "klingon")
    assert code == 2
    assert "preset" in err


_BAD_ALPHABETS = {
    "empty-object": b"{}",
    "array": b"[1]",
    "non-string-symbol": b'{"symbols": [1]}',
    "not-utf8": b'{"symbols": ["\xe4"]}',
    "unknown-key": b'{"symbols": ["a"], "junk": 1}',
}


@pytest.mark.parametrize("content", _BAD_ALPHABETS.values(), ids=list(_BAD_ALPHABETS))
@pytest.mark.parametrize("command", ["normalize", "decode", "adapt-alphabet"])
def test_bad_alphabet_file_is_data_error(capsys, logit_blob, tiny_model_dir, tmp_path,
                                        command, content):
    path = tmp_path / "bad-alphabet.json"
    path.write_bytes(content)
    argv = {
        "normalize": ["normalize", "--alphabet", str(path), "--text", "hi"],
        "decode": ["decode", "--logits", str(logit_blob[0]), "--alphabet", str(path)],
        "adapt-alphabet": ["adapt-alphabet", "--model", str(tiny_model_dir),
                           "--target", str(path), "--out", str(tmp_path / "out")],
    }[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "bad-alphabet.json" in err and "Traceback" not in err


# --------------------------------------------------------------- transcribe

def test_transcribe_human_output(capsys, tiny_model_dir, tmp_path):
    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(1.0))
    code, out, _ = run_cli(capsys, "transcribe", "--model", str(tiny_model_dir),
                           "--wav", str(wav))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("rtf ")


def test_transcribe_json_report(capsys, tiny_model_dir, tmp_path):
    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(1.0))
    code, out, _ = run_cli(capsys, "--json", "transcribe", "--model",
                           str(tiny_model_dir), "--wav", str(wav))
    assert code == 0
    (obj,) = jlines(out)
    assert set(obj) == {"transcript", "clip_duration", "wall_time", "rtf", "stages"}
    assert obj["clip_duration"] == pytest.approx(1.0)
    assert obj["rtf"] > 0
    assert set(obj["stages"]) == {"features", "forward", "decode"}
    assert sum(obj["stages"].values()) <= obj["wall_time"] + 1e-3
    assert obj["rtf"] == pytest.approx(obj["wall_time"] / obj["clip_duration"])


def test_transcribe_chunked_matches_full(capsys, tiny_model_dir, tmp_path):
    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(2.0, freq=523.0, amp=0.4))
    code, full_out, _ = run_cli(capsys, "--json", "transcribe", "--model",
                                str(tiny_model_dir), "--wav", str(wav))
    assert code == 0
    code, chunk_out, _ = run_cli(capsys, "--json", "transcribe", "--model",
                                 str(tiny_model_dir), "--wav", str(wav),
                                 "--chunk", "1.0")
    assert code == 0
    full = jlines(full_out)[0]
    chunked = jlines(chunk_out)[0]
    assert chunked["transcript"] == full["transcript"]
    assert chunked["stages"]["features"] == 0.0   # folded into forward


@pytest.mark.parametrize("chunk", ["0", "0.001"])
def test_transcribe_bad_chunk_is_data_error(capsys, tiny_model_dir, tmp_path, chunk):
    # a finite length >= 0 parses; below one feature hop the model refuses it
    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(1.0))
    code, _, err = run_cli(capsys, "transcribe", "--model", str(tiny_model_dir),
                           "--wav", str(wav), "--chunk", chunk)
    assert code == 2
    assert "chunk" in err


@pytest.mark.parametrize("command", ["transcribe", "bench"])
@pytest.mark.parametrize("chunk", ["inf", "nan", "-1", "x"])
def test_bad_chunk_is_usage_error_before_loading(capsys, tmp_path, command, chunk):
    # the model directory does not exist: a usage error comes first
    source = ["--wav", "clip.wav"] if command == "transcribe" else ["--manifest", "m.tsv"]
    code, _, err = run_cli(capsys, command, "--model", str(tmp_path / "absent"), *source,
                           f"--chunk={chunk}")
    assert code == 1
    assert "chunk length must be a finite number >= 0" in err


def test_transcribe_model_from_environment(capsys, tiny_model_dir, tmp_path,
                                           monkeypatch):
    monkeypatch.setenv(MODEL_DIR_ENV, str(tiny_model_dir))
    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(0.5))
    assert run_cli(capsys, "transcribe", "--wav", str(wav))[0] == 0


@pytest.mark.parametrize("samples", [100, 320])
def test_transcribe_clip_shorter_than_two_frames(capsys, tiny_model_dir, tmp_path, samples):
    # 100 samples give no feature frame (the window is 320), 320 give one
    wav = tmp_path / "short.wav"
    write_wav(wav, 0.3 * np.sin(0.2 * np.arange(samples)))
    transcripts = []
    for chunk in ([], ["--chunk", "0.5"]):
        code, out, _ = run_cli(capsys, "--json", "transcribe", "--model",
                               str(tiny_model_dir), "--wav", str(wav), *chunk)
        assert code == 0
        transcripts.append(jlines(out)[0]["transcript"])
    assert transcripts[0] == transcripts[1]
    if samples == 100:
        assert transcripts[0] == ""


def test_transcribe_missing_wav_is_data_error(capsys, tiny_model_dir, tmp_path):
    code, _, err = run_cli(capsys, "transcribe", "--model", str(tiny_model_dir),
                           "--wav", str(tmp_path / "gone.wav"))
    assert code == 2
    assert "gone.wav" in err and "Traceback" not in err


def test_transcribe_zero_length_audio(capsys, tiny_model_dir, tmp_path):
    wav = tmp_path / "empty.wav"
    write_wav(wav, np.zeros(0))
    code, _, err = run_cli(capsys, "transcribe", "--model", str(tiny_model_dir),
                           "--wav", str(wav))
    assert code == 2
    assert "zero-length" in err


@pytest.mark.parametrize("name", ["RIFX 16-bit", "64-bit"])
def test_transcribe_rifx_or_64_bit_wav_is_data_error(capsys, tiny_model_dir, tmp_path, name):
    _, wide, _ = write_twins(tmp_path, name, 16000, 1)
    code, _, err = run_cli(capsys, "transcribe", "--model", str(tiny_model_dir),
                           "--wav", str(wide))
    assert code == 2
    assert "wide.wav" in err and "Traceback" not in err


def test_transcribe_wall_time_includes_reading_the_wav(monkeypatch, tiny_model_dir, tmp_path):
    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(0.5))
    read = cli.load_wav

    def slow_load_wav(path):
        time.sleep(0.05)
        return read(path)

    monkeypatch.setattr(cli, "load_wav", slow_load_wav)
    _, report = cli.transcribe(net.load_weights(tiny_model_dir), wav)
    assert report.wall_time >= 0.05
    assert set(report.stage_breakdown) == {"features", "forward", "decode"}


def test_transcribe_with_beam_and_lm(capsys, tiny_model_dir, tmp_path, toy_arpa):
    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(0.8))
    code, out, _ = run_cli(capsys, "--json", "transcribe", "--model",
                           str(tiny_model_dir), "--wav", str(wav),
                           "--arpa", str(toy_arpa), "--beam-width", "16")
    assert code == 0
    assert "transcript" in jlines(out)[0]


# -------------------------------------------------------------------- bench

def test_bench_measurements_and_summary(capsys, tiny_model_dir, wav_dir):
    items = [corpus.DatasetItem("one.wav", "x", 0.5),
             corpus.DatasetItem("two.wav", "y", 0.5)]
    manifest = make_manifest(wav_dir, items, name="bench")
    code, out, _ = run_cli(capsys, "--json", "bench", "--model",
                           str(tiny_model_dir), "--manifest", str(manifest),
                           "--reps", "2")
    assert code == 0
    lines = jlines(out)
    assert len(lines) == 5
    measurements, summary = lines[:4], lines[4]
    assert [Path(m["clip"]).name for m in measurements] == ["one.wav", "two.wav"] * 2
    for m in measurements:
        assert m["rtf"] > 0
        assert sum(m["stages"].values()) <= m["wall_time"] + 1e-3
    assert summary["measurements"] == 4
    assert summary["total_audio"] == pytest.approx(2.0)
    assert summary["aggregate_rtf"] == pytest.approx(
        summary["total_wall"] / summary["total_audio"])
    rtfs = sorted(m["rtf"] for m in measurements)
    assert min(rtfs) <= summary["median_rtf"] <= max(rtfs)


def test_bench_reports_p90_and_peak_rss(capsys, tiny_model_dir, wav_dir):
    items = [corpus.DatasetItem("one.wav", "x", 0.5),
             corpus.DatasetItem("two.wav", "y", 0.5)]
    manifest = make_manifest(wav_dir, items, name="bench")
    argv = ["bench", "--model", str(tiny_model_dir), "--manifest", str(manifest),
            "--reps", "5"]
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == 0
    *measurements, summary = jlines(out)
    rtfs = sorted(m["rtf"] for m in measurements)
    assert summary["median_rtf"] <= summary["p90_rtf"]
    assert summary["p90_rtf"] == rtfs[8]  # nearest rank: the 9th of 10
    assert summary["peak_rss_mib"] > 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert re.search(r"p90 rtf [0-9.]+, .*peak RSS [0-9.]+ MiB; .*, row parts [0-9]+$",
                     out.splitlines()[-1])


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 70])  # 0.9 * 70 rounds above 63
def test_p90_is_the_nearest_rank(n):
    values = list(range(n, 0, -1))
    assert cli._p90(values) == -(-9 * n // 10)  # the ceil(0.9 n)-th smallest
    assert cli._p90(values) >= statistics.median(values)


def test_bench_single_clip(capsys, tiny_model_dir, wav_dir):
    manifest = make_manifest(wav_dir, [corpus.DatasetItem("one.wav", "x", 0.5)],
                             name="single")
    code, out, _ = run_cli(capsys, "--json", "bench", "--model",
                           str(tiny_model_dir), "--manifest", str(manifest))
    assert code == 0
    lines = jlines(out)
    assert len(lines) == 2
    assert lines[1]["mean_rtf"] == lines[1]["median_rtf"] == lines[0]["rtf"]


def test_bench_empty_manifest(capsys, tiny_model_dir, tmp_path):
    manifest = make_manifest(tmp_path, [], name="empty")
    code, _, err = run_cli(capsys, "bench", "--model", str(tiny_model_dir),
                           "--manifest", str(manifest))
    assert code == 2
    assert "empty manifest" in err


def test_bench_has_no_workers_flag(capsys, tmp_path):
    code, out, err = run_cli(capsys, "bench", "--manifest", str(tmp_path / "m.tsv"),
                             "--workers", "2")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --workers 2" in err


def test_bench_records_the_thread_settings(capsys, monkeypatch, tiny_model_dir, wav_dir):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(net, "_PARTS", 2)
    items = [corpus.DatasetItem("one.wav", "x", 0.5),
             corpus.DatasetItem("two.wav", "y", 0.5)]
    manifest = make_manifest(wav_dir, items, name="bench")
    code, out, _ = run_cli(capsys, "--json", "bench", "--model",
                           str(tiny_model_dir), "--manifest", str(manifest))
    assert code == 0
    summary = jlines(out)[-1]
    assert summary["measurements"] == 2
    # the thread settings that decide how each forward splits its rows
    assert "workers" not in summary
    assert summary["OPENBLAS_NUM_THREADS"] == "1"
    assert summary["OMP_NUM_THREADS"] is None
    assert summary["row_parts"] == 2


# ------------------------------------------------------------------- corpus

def test_corpus_convert_folder(capsys, tmp_path):
    src = tmp_path / "raw"
    src.mkdir()
    write_wav(src / "a.wav", tone(0.5, rate=22050), rate=22050)
    (src / "a.txt").write_text("hello there\n")
    stereo = np.stack([tone(0.25, rate=48000), tone(0.25, rate=48000)], axis=1)
    write_wav(src / "b.wav", stereo, rate=48000, channels=2)
    (src / "b.txt").write_text("second clip\n")
    out_dir = tmp_path / "out"

    code, out, _ = run_cli(capsys, "--json", "corpus", "convert", "--format",
                           "folder-txt", "--in", str(src), "--out", str(out_dir))
    assert code == 0
    (obj,) = jlines(out)
    assert obj["items"] == 2
    assert obj["resampler"] == corpus.RESAMPLE_METHOD
    assert json.loads((out_dir / "conversion.json").read_text())["items"] == 2

    converted = corpus.read_manifest(obj["manifest"])
    assert len(converted) == 2
    from scribo.features import load_wav
    for item in converted:
        clip = load_wav(out_dir / item.filepath)
        assert clip.samples.ndim == 1
        assert item.duration == pytest.approx(clip.duration, abs=1e-6)


def test_corpus_convert_parallel_same_manifest(capsys, tmp_path):
    src = tmp_path / "raw"
    src.mkdir()
    for name in ("a", "b", "c"):
        write_wav(src / f"{name}.wav", tone(0.2, rate=8000), rate=8000)
        (src / f"{name}.txt").write_text(name)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run_cli(capsys, "corpus", "convert", "--format", "folder-txt",
                   "--in", str(src), "--out", str(serial))[0] == 0
    assert run_cli(capsys, "corpus", "convert", "--format", "folder-txt",
                   "--in", str(src), "--out", str(parallel),
                   "--workers", "3")[0] == 0
    a = (serial / "dataset.tsv").read_text()
    b = (parallel / "dataset.tsv").read_text()
    assert a == b


def test_corpus_convert_workers_write_same_bytes(capsys, tmp_path):
    src = mixed_rate_folder(tmp_path / "raw")
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert run_cli(capsys, "corpus", "convert", "--format", "folder-txt",
                       "--in", str(src), "--out", str(out),
                       "--workers", workers)[0] == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    serial, parallel = outs
    assert len([n for n in serial if n.endswith(".wav")]) == 6
    assert serial == parallel


_NAN_WAV = raw_wav(np.array([0.1, np.nan], dtype=np.float32).tobytes(),
                   tag=3, bits=32)


@pytest.mark.parametrize("blob", [
    raw_wav(bytes(4), channels=0, align=2),
    raw_wav(bytes(4), rate=0),
    _NAN_WAV,
    raw_wav(data=False),
], ids=["zero-channels", "rate-0", "nan-float", "no-data-chunk"])
def test_corpus_convert_malformed_wav_is_data_error(capsys, tmp_path, blob):
    src = tmp_path / "raw"
    src.mkdir()
    (src / "bad.wav").write_bytes(blob)
    (src / "bad.txt").write_text("bad clip\n")
    code, _, err = run_cli(capsys, "corpus", "convert", "--format", "folder-txt",
                           "--in", str(src), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "bad.wav" in err
    assert "Traceback" not in err


def test_corpus_clean(capsys, wav_dir):
    items = [corpus.DatasetItem("one.wav", "fine short sentence", 5.0),
             corpus.DatasetItem("two.wav", "ok", 0.3)]       # below 0.5 s
    manifest = make_manifest(wav_dir, items, name="noisy")
    code, out, _ = run_cli(capsys, "--json", "corpus", "clean",
                           "--manifest", str(manifest))
    assert code == 0
    (obj,) = jlines(out)
    assert obj["kept"] == 1
    assert obj["excluded"] == 1
    assert obj["by_metric"]["1"] == 1
    assert all(v == 0 for k, v in obj["by_metric"].items() if k != "1")
    kept = corpus.read_manifest(obj["manifest"])
    assert [it.filepath for it in kept] == ["one.wav"]
    assert obj["manifest"].endswith("noisy.clean.tsv")


def test_corpus_stats(capsys, wav_dir):
    items = [corpus.DatasetItem("one.wav", "abcde", 5.0, speaker="s1"),
             corpus.DatasetItem("two.wav", "ab", 1.0, speaker="s1")]
    manifest = make_manifest(wav_dir, items, name="stats")
    code, out, _ = run_cli(capsys, "--json", "corpus", "stats",
                           "--manifest", str(manifest))
    assert code == 0
    (obj,) = jlines(out)
    assert obj["items"] == 2
    assert obj["total_duration"] == pytest.approx(6.0)
    assert obj["top_speakers"] == [["s1", 2]]


def test_corpus_split_default_partitions(capsys, tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    items = []
    for i in range(10):
        write_wav(d / f"{i}.wav", tone(0.1))
        items.append(corpus.DatasetItem(f"{i}.wav", f"text {i}", 0.1))
    manifest = make_manifest(d, items, name="all")
    code, out, _ = run_cli(capsys, "--json", "corpus", "split",
                           "--manifest", str(manifest))
    assert code == 0
    (obj,) = jlines(out)
    assert set(obj) == {"train", "dev", "test"}
    assert [obj[k]["items"] for k in ("train", "dev", "test")] == [8, 1, 1]
    total = []
    for part in obj.values():
        total.extend(it.filepath for it in corpus.read_manifest(part["manifest"]))
    assert sorted(total) == sorted(it.filepath for it in items)


def test_corpus_split_by_speaker(capsys, tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    items = []
    for i in range(10):
        write_wav(d / f"{i}.wav", tone(0.1))
        items.append(corpus.DatasetItem(f"{i}.wav", "t", 0.1,
                                        speaker=f"spk{i % 2}"))
    manifest = make_manifest(d, items, name="all")
    code, out, _ = run_cli(capsys, "--json", "corpus", "split",
                           "--manifest", str(manifest),
                           "--fractions", "0.5,0.5", "--names", "a,b",
                           "--by", "speaker")
    assert code == 0
    (obj,) = jlines(out)
    for part in obj.values():
        speakers = {it.speaker for it in corpus.read_manifest(part["manifest"])}
        assert len(speakers) == 1


def test_corpus_split_bad_fraction_sum(capsys, tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    write_wav(d / "a.wav", tone(0.1))
    manifest = make_manifest(d, [corpus.DatasetItem("a.wav", "t", 0.1)])
    code, _, err = run_cli(capsys, "corpus", "split", "--manifest",
                           str(manifest), "--fractions", "0.5,0.6")
    assert code == 2
    assert "error:" in err


def test_corpus_split_unparsable_fractions(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "corpus", "split", "--manifest", "x",
                         "--fractions", "a,b")
    assert code == 1


def test_corpus_split_refuses_empty_fractions(capsys):
    code, _, err = run_cli(capsys, "corpus", "split", "--manifest", "absent.tsv",
                           "--fractions", ",")
    assert code == 1
    assert "fractions must be non-empty" in err


def test_corpus_unknown_format(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "corpus", "convert", "--format", "mp3-dir",
                         "--in", str(tmp_path), "--out", str(tmp_path / "o"))
    assert code == 1   # argparse choices reject it


# ----------------------------------------------------------- adapt-alphabet

def test_adapt_alphabet_cli(capsys, tiny_model_dir, tmp_path):
    out_dir = tmp_path / "es-model"
    code, out, _ = run_cli(capsys, "--json", "adapt-alphabet", "--model",
                           str(tiny_model_dir), "--target", "es",
                           "--out", str(out_dir))
    assert code == 0
    (obj,) = jlines(out)
    assert obj["vocab_size"] == 29
    assert obj["new_symbols"] == ["ñ"]

    model = net.load_weights(out_dir)
    assert model.alphabet == ALPHABETS["es"]
    assert model.name == "tiny-adapted"
    assert obj["params"] == net.param_count(model.net)

    wav = tmp_path / "clip.wav"
    write_wav(wav, tone(0.5))
    assert run_cli(capsys, "transcribe", "--model", str(out_dir),
                   "--wav", str(wav))[0] == 0

    it_dir = tmp_path / "it-model"
    code, out, _ = run_cli(capsys, "--json", "adapt-alphabet", "--model",
                           str(out_dir), "--target", "it", "--out", str(it_dir))
    assert code == 0
    (obj,) = jlines(out)
    assert obj["vocab_size"] == 28
    assert obj["new_symbols"] == []
    assert net.load_weights(it_dir).alphabet == ALPHABETS["it"]


def test_adapt_alphabet_reports_sizes_not_a_mode(capsys, tiny_model_dir, tmp_path):
    # the same alphabet neither extends nor shrinks the head
    out_dir = tmp_path / "en-model"
    code, out, _ = run_cli(capsys, "adapt-alphabet", "--model", str(tiny_model_dir),
                           "--target", "en", "--out", str(out_dir))
    assert code == 0
    assert out.strip() == f"vocab 28 -> 28, new symbols [], saved to {out_dir}"


def test_adapt_alphabet_unknown_target(capsys, tiny_model_dir, tmp_path):
    code, _, err = run_cli(capsys, "adapt-alphabet", "--model",
                           str(tiny_model_dir), "--target", "xx",
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "preset" in err


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "1e308", "-0.5", "x"])
def test_adapt_alphabet_refuses_a_bad_scale_before_loading(capsys, tmp_path, scale):
    # the model directory does not exist: a usage error comes first
    code, _, err = run_cli(capsys, "adapt-alphabet", "--model", str(tmp_path / "absent"),
                           "--target", "es", "--out", str(tmp_path / "o"),
                           "--init", "uniform", f"--scale={scale}")
    assert code == 1
    assert "scale must be a finite number >= 0" in err


# ------------------------------------------------------------- the read rule

@pytest.mark.parametrize("fractions", ["inf,-inf,1", "nan,0,1", "1.5,-0.5,0", "0.5,,x"])
def test_corpus_split_refuses_a_bad_fraction_before_reading(capsys, fractions):
    code, _, err = run_cli(capsys, "corpus", "split", "--manifest", "absent.tsv",
                           "--fractions", fractions)
    assert code == 1
    assert "each fraction must be a finite number >= 0" in err


def stdin_bytes(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_normalize_reads_stdin(capsys, monkeypatch):
    stdin_bytes(monkeypatch, "Guten Tag!\r\nWir kaufen 2 Äpfel.\n".encode())
    code, out, _ = run_cli(capsys, "normalize", "--lang", "de")
    assert code == 0
    assert out.splitlines() == ["guten tag", "wir kaufen zwei aepfel"]


@pytest.mark.parametrize("data", [
    b"eins\nzwei\n", b"eins\r\nzwei\r\n", b"eins\rzwei", b"eins\n\n\nzwei",
    b"eins\x0czwei\x1cdrei\n", "eins\u2028zwei\x85drei".encode(), b"\n", b"",
], ids=["lf", "crlf", "cr", "blank-lines", "ff-fs", "unicode-separators", "one-newline",
        "empty"])
def test_normalize_splits_stdin_and_in_alike(capsys, monkeypatch, tmp_path, data):
    # both split on the separators of str.splitlines()
    src = tmp_path / "lines.txt"
    src.write_bytes(data)
    code, from_file, _ = run_cli(capsys, "--json", "normalize", "--lang", "de",
                                 "--in", str(src))
    assert code == 0
    stdin_bytes(monkeypatch, data)
    code, from_stdin, _ = run_cli(capsys, "--json", "normalize", "--lang", "de")
    assert code == 0
    assert from_stdin == from_file
    assert len(jlines(from_file)) == len(data.decode().splitlines())


def test_normalize_names_stdin_that_is_not_utf8(capsys, monkeypatch):
    stdin_bytes(monkeypatch, b"gut\r\n\xff\n")
    code, out, err = run_cli(capsys, "normalize", "--lang", "de")
    assert code == 2
    assert out == ""
    assert "<stdin>: line 2: cannot read: not UTF-8" in err


def test_normalize_names_an_in_file_that_is_not_utf8(capsys, tmp_path):
    src = tmp_path / "lines.txt"
    src.write_bytes(b"gut\rgut\r\n\xe4pfel\n")
    code, _, err = run_cli(capsys, "normalize", "--lang", "de", "--in", str(src))
    assert code == 2
    assert f"{src}: line 3: cannot read: not UTF-8" in err


def test_lm_ppl_reads_in_file(capsys, toy_arpa, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("a b\r\nb a\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--json", "lm", "ppl", "--arpa", str(toy_arpa),
                           "--in", str(words))
    assert code == 0
    code, want, _ = run_cli(capsys, "--json", "lm", "ppl", "--arpa", str(toy_arpa),
                            "--text", "a b b a")
    assert code == 0
    assert jlines(out) == jlines(want)
    assert jlines(out)[0]["words"] == 4


@pytest.mark.parametrize("body,where", [
    (b"a b\n\xff\n", "line 2: cannot read: not UTF-8"),
    (None, "cannot read: No such file or directory"),
], ids=["not-utf8", "missing"])
def test_lm_ppl_names_an_in_file_it_cannot_read(capsys, toy_arpa, tmp_path, body, where):
    words = tmp_path / "words.txt"
    if body is not None:
        words.write_bytes(body)
    code, _, err = run_cli(capsys, "lm", "ppl", "--arpa", str(toy_arpa), "--in", str(words))
    assert code == 2
    assert f"{words}: {where}" in err


@pytest.mark.parametrize("bad", ["ref", "hyp"])
def test_eval_names_the_file_that_is_not_utf8(capsys, tmp_path, bad):
    files = {name: tmp_path / f"{name}.txt" for name in ("ref", "hyp")}
    for name, path in files.items():
        path.write_bytes(b"one two\n" + (b"thr\xeee\n" if name == bad else b"three\n"))
    code, _, err = run_cli(capsys, "eval", "--ref", str(files["ref"]),
                           "--hyp", str(files["hyp"]))
    assert code == 2
    assert f"{files[bad]}: line 2: cannot read: not UTF-8" in err


def test_model_files_that_cannot_be_read_are_named(capsys, tiny_model_dir, tmp_path):
    model = tmp_path / "model"
    shutil.copytree(tiny_model_dir, model)
    wav = write_wav(tmp_path / "clip.wav", tone(0.3))
    (model / net.BLOB_NAME).unlink()
    code, _, err = run_cli(capsys, "transcribe", "--model", str(model), "--wav", str(wav))
    assert code == 2
    assert f"{model / net.BLOB_NAME}: cannot read: No such file or directory" in err
    code, _, err = run_cli(capsys, "transcribe", "--model", str(tmp_path / "absent"),
                           "--wav", str(wav))
    assert code == 2
    assert f"{tmp_path / 'absent' / net.MANIFEST_NAME}: cannot read: " in err
